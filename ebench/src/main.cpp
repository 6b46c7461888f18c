// ebench: one run of one workload against a fresh database.
//
//   ebench --workload tpcc|tpcc-hybrid|ycsb --seed N --requests-per-worker N
//          --out-dir DIR [--trace 0|1] [--trace-file PATH] [--corrupt NAME]
//
// Phases: load a fresh database (set-up), run a fixed number of requests
// through 3 closed-loop workers, check the outputs, close, restart the
// database from its log directory, check again. The last stdout line is one
// JSON object with the raw measurements; ebench/run.py turns it into the
// benchmark's metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness.h"

namespace ebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t requests_per_worker = 0;
  bool trace = false;
  std::string out_dir;
  std::string trace_file;
  std::string corrupt;
};

// One fewer worker than the 4 cores of the reference host, leaving one for
// the engine's daemons.
constexpr uint32_t kWorkers = 3;

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "ebench: %s\nusage: ebench --workload tpcc|tpcc-hybrid|ycsb "
               "--seed N --requests-per-worker N --out-dir DIR [--trace 0|1] "
               "[--trace-file PATH] [--corrupt NAME]\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--requests-per-worker") {
      a.requests_per_worker = std::stoull(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else if (k == "--corrupt") {
      a.corrupt = v;
    } else {
      Usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload.empty() || a.out_dir.empty() || a.requests_per_worker == 0) {
    Usage("--workload, --requests-per-worker and --out-dir are required");
  }
  return a;
}

double RssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Secs(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Exact percentile of sorted samples (nearest rank).
double PercentileUs(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(p / 100.0 * sorted.size() + 0.999999);
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]) / 1e3;
}

std::string LatencyJson(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  std::ostringstream o;
  o << "{\"count\":" << v.size() << ",\"p50_us\":" << PercentileUs(v, 50)
    << ",\"p99_us\":" << PercentileUs(v, 99) << "}";
  return o.str();
}

// The timed phase cut into equal slices of wall time, each with its
// completions per second and the percentiles of its untraced requests'
// latencies. Medians over the slices are robust to a transient stall of the
// host, which a whole-run mean is not.
constexpr size_t kWindows = 10;

std::string WindowsJson(const PhaseResult& ph) {
  std::vector<uint64_t> done(kWindows, 0);
  std::vector<std::vector<uint64_t>> lat(kWindows);
  const double width = static_cast<double>(ph.wall_ns) / kWindows;
  for (const WorkerResult& w : ph.workers) {
    for (const Sample& s : w.samples) {
      const size_t i = std::min<size_t>(
          kWindows - 1,
          static_cast<size_t>(static_cast<double>(s.end_ns - ph.start_ns) / width));
      if (s.completed) {
        ++done[i];
        if (!s.traced) lat[i].push_back(s.lat_ns);
      }
    }
  }
  std::ostringstream rate, p50, p99, count;
  rate.precision(10);
  for (size_t i = 0; i < kWindows; ++i) {
    std::sort(lat[i].begin(), lat[i].end());
    const char* sep = i ? "," : "";
    rate << sep << static_cast<double>(done[i]) / (width / 1e9);
    p50 << sep << PercentileUs(lat[i], 50);
    p99 << sep << PercentileUs(lat[i], 99);
    count << sep << lat[i].size();
  }
  return "{\"txn_per_s\":[" + rate.str() + "],\"p50_us\":[" + p50.str() +
         "],\"p99_us\":[" + p99.str() + "],\"samples\":[" + count.str() +
         "]}";
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Chrome trace-event JSON of the kept spans (load in Perfetto or
// chrome://tracing). Timestamps are microseconds from the timed phase start.
void WriteChromeTrace(const std::string& path, const PhaseResult& ph) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (size_t w = 0; w < ph.workers.size(); ++w) {
    for (const SpanRec& s : ph.workers[w].spans) {
      if (s.end_ns == 0) continue;
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%u,"
                    "\"parent\":%d}}",
                    first ? "" : ",\n", OpName(s.op), w + 1,
                    (static_cast<double>(s.start_ns) -
                     static_cast<double>(ph.start_ns)) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.req,
                    s.parent == UINT32_MAX ? -1 : static_cast<int>(s.parent));
      f << buf;
      first = false;
    }
  }
  f << "]}\n";
}

std::unique_ptr<ermia::Database> OpenDb(const ermia::EngineConfig& cfg,
                                        Workload* wl) {
  auto db = std::make_unique<ermia::Database>(cfg);
  wl->CreateSchema(db.get());
  const ermia::Status s = db->Open();
  if (!s.ok()) {
    std::fprintf(stderr, "ebench: Open: %s\n", s.ToString().c_str());
    std::exit(3);
  }
  return db;
}

void DigestJson(std::ostringstream& o,
                const std::vector<std::pair<std::string, Digest>>& d) {
  o << "{";
  for (size_t i = 0; i < d.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\":\"%" PRIu64 ":%016" PRIx64
                  ":%016" PRIx64 "\"",
                  i ? "," : "", d[i].first.c_str(), d[i].second.rows,
                  d[i].second.sum, d[i].second.xr);
    o << buf;
  }
  o << "}";
}

int Main(int argc, char** argv) {
  const uint64_t t_start = NowNs();
  const Args args = Parse(argc, argv);

  std::unique_ptr<Workload> wl;
  if (args.workload == "tpcc") {
    wl = MakeTpcc(args.seed, kWorkers, false);
  } else if (args.workload == "tpcc-hybrid") {
    wl = MakeTpcc(args.seed, kWorkers, true);
  } else if (args.workload == "ycsb") {
    wl = MakeYcsb(args.seed, kWorkers);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (!args.corrupt.empty() && !wl->Corrupt(args.corrupt)) {
    Usage(("unknown --corrupt target for this workload: " + args.corrupt).c_str());
  }

  ermia::EngineConfig cfg;
  cfg.log_dir = args.out_dir + "/db-" + std::to_string(getpid());
  cfg.synchronous_commit = wl->SyncCommit();
  std::filesystem::remove_all(cfg.log_dir);
  std::filesystem::create_directories(cfg.log_dir);

  // ---- set-up: open + load ----
  auto db = OpenDb(cfg, wl.get());
  const uint64_t rows = wl->Load(db.get());
  const uint64_t t_loaded = NowNs();

  // ---- timed phase ----
  PhaseOptions opt;
  opt.workers = kWorkers;
  opt.requests_per_worker = args.requests_per_worker;
  opt.trace = args.trace;
  const ermia::metrics::MetricsSnapshot m0 = db->SnapshotMetrics();
  const uint64_t log0 = db->log().CurrentOffset();
  const PhaseResult ph = RunPhase(db.get(), wl.get(), args.seed, opt);
  const uint64_t log1 = db->log().CurrentOffset();
  const ermia::metrics::MetricsSnapshot m1 = db->SnapshotMetrics();
  const double rss_mb = RssMb();

  // ---- checks, close, restart, checks ----
  std::vector<std::string> errors;
  const uint64_t t_check0 = NowNs();
  const auto digest_before = wl->Check(db.get(), &errors);
  const uint64_t t_check1 = NowNs();
  db->Close();
  db.reset();
  const uint64_t t_closed = NowNs();

  db = OpenDb(cfg, wl.get());
  ermia::Status rs = db->Recover();
  if (rs.ok()) rs = wl->Probe(db.get());
  const uint64_t t_ready = NowNs();
  const ermia::metrics::MetricsSnapshot m2 = db->SnapshotMetrics();
  std::vector<std::pair<std::string, Digest>> digest_after;
  if (!rs.ok()) {
    errors.push_back("restart: " + rs.ToString());
  } else {
    std::vector<std::string> after_errors;
    digest_after = wl->Check(db.get(), &after_errors);
    for (const std::string& e : after_errors) {
      errors.push_back("after restart: " + e);
    }
    if (digest_after.size() != digest_before.size()) {
      errors.push_back("after restart: table count changed");
    } else {
      for (size_t i = 0; i < digest_after.size(); ++i) {
        if (!(digest_after[i].second == digest_before[i].second)) {
          errors.push_back("after restart: digest of " + digest_after[i].first +
                           " differs from the one taken before close");
        }
      }
    }
  }
  db->Close();
  db.reset();
  std::filesystem::remove_all(cfg.log_dir);

  if (args.trace && !args.trace_file.empty()) {
    WriteChromeTrace(args.trace_file, ph);
  }

  // ---- raw result ----
  // Whole-run figures; `traced` requests only count toward the tracing
  // overhead, never toward latencies.
  struct Totals {
    uint64_t attempted = 0, completed = 0, failed = 0, attempts = 0,
             aborted_attempts = 0, busy_ns = 0, retry_ns = 0, cpu_ns = 0,
             wall_ns = 0, traced_reqs = 0, traced_ns = 0, untraced_reqs = 0,
             untraced_ns = 0;
    OpTotal ops[static_cast<size_t>(Op::kNumOps)];
  } sum;
  std::vector<std::vector<uint64_t>> by_type(wl->TypeNames().size());
  std::vector<uint64_t> done(by_type.size(), 0);
  std::vector<uint64_t> all;
  for (const WorkerResult& w : ph.workers) {
    sum.attempts += w.attempts;
    sum.aborted_attempts += w.aborted_attempts;
    sum.retry_ns += w.retry_ns;
    sum.cpu_ns += w.cpu_ns;
    sum.wall_ns += w.wall_ns;
    for (size_t k = 0; k < static_cast<size_t>(Op::kNumOps); ++k) {
      sum.ops[k].calls += w.totals[k].calls;
      sum.ops[k].ns += w.totals[k].ns;
      sum.ops[k].self_ns += w.totals[k].self_ns;
      sum.ops[k].rows += w.totals[k].rows;
    }
    for (const Sample& s : w.samples) {
      ++sum.attempted;
      sum.busy_ns += s.lat_ns;
      (s.traced ? sum.traced_reqs : sum.untraced_reqs)++;
      (s.traced ? sum.traced_ns : sum.untraced_ns) += s.lat_ns;
      if (!s.completed) {
        ++sum.failed;
        continue;
      }
      ++sum.completed;
      ++done[s.type];
      if (s.traced) continue;
      by_type[s.type].push_back(s.lat_ns);
      all.push_back(s.lat_ns);
    }
  }

  std::ostringstream o;
  o.precision(10);
  o << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
    << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"workers\":" << kWorkers
    << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    o << (i ? "," : "") << "\"" << Escape(errors[i]) << "\"";
  }
  o << "],\"config\":{\"cc\":\"" << ermia::CcSchemeName(wl->Scheme())
    << "\",\"synchronous_commit\":" << (cfg.synchronous_commit ? "true" : "false")
    << ",\"log_dir\":\"" << Escape(cfg.log_dir) << "\""
    << ",\"max_attempts\":" << opt.max_attempts << "}"
    << ",\"attempted\":" << sum.attempted << ",\"completed\":" << sum.completed
    << ",\"failed\":" << sum.failed << ",\"attempts\":" << sum.attempts
    << ",\"aborted_attempts\":" << sum.aborted_attempts
    << ",\"rows_loaded\":" << rows
    << ",\"setup_s\":" << Secs(t_loaded - t_start)
    << ",\"run_s\":" << Secs(ph.wall_ns)
    << ",\"check_s\":" << Secs(t_check1 - t_check0)
    << ",\"close_s\":" << Secs(t_closed - t_check1)
    << ",\"restart_s\":" << Secs(t_ready - t_closed)
    << ",\"rss_mb\":" << rss_mb << ",\"log_bytes\":" << (log1 - log0)
    << ",\"busy_s\":" << Secs(sum.busy_ns) << ",\"retry_s\":" << Secs(sum.retry_ns)
    << ",\"worker_cpu_s\":" << Secs(sum.cpu_ns)
    << ",\"worker_wall_s\":" << Secs(sum.wall_ns)
    << ",\"process_cpu_s\":" << Secs(ph.process_cpu_ns)
    << ",\"traced_reqs\":" << sum.traced_reqs
    << ",\"traced_s\":" << Secs(sum.traced_ns)
    << ",\"untraced_reqs\":" << sum.untraced_reqs
    << ",\"untraced_s\":" << Secs(sum.untraced_ns)
    << ",\"latency\":" << LatencyJson(all)
    << ",\"windows\":" << WindowsJson(ph) << ",\"types\":{";
  const auto names = wl->TypeNames();
  for (size_t t = 0; t < names.size(); ++t) {
    o << (t ? "," : "") << "\"" << names[t] << "\":{\"completed\":" << done[t]
      << ",\"latency\":" << LatencyJson(by_type[t]) << "}";
  }
  o << "},\"spans\":{";
  for (size_t k = 0; k < static_cast<size_t>(Op::kNumOps); ++k) {
    const OpTotal& t = sum.ops[k];
    o << (k ? "," : "") << "\"" << OpName(static_cast<Op>(k))
      << "\":{\"calls\":" << t.calls << ",\"s\":" << Secs(t.ns)
      << ",\"self_s\":" << Secs(t.self_ns) << ",\"rows\":" << t.rows << "}";
  }
  o << "},\"digests_before\":";
  DigestJson(o, digest_before);
  o << ",\"digests_after\":";
  DigestJson(o, digest_after);
  o << ",\"engine_before\":" << m0.ToJson() << ",\"engine_after\":"
    << m1.ToJson() << ",\"engine_restart\":" << m2.ToJson() << "}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ebench

int main(int argc, char** argv) { return ebench::Main(argc, argv); }
