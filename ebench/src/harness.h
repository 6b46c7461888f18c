// Request loop, retry policy and per-call tracing shared by every workload.
//
// A run drives a fixed number of requests through a closed loop of worker
// threads (each sends its next request only when the previous one finished).
// Every call the benchmark makes into the engine goes through
// Tracer::Call, which costs one branch when the request is not traced and
// records a span (name, start, end, parent, request id) when it is.
#ifndef EBENCH_HARNESS_H_
#define EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/database.h"
#include "util.h"

namespace ebench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Span names: one per engine entry point the benchmark calls, plus the
// request span that parents them.
enum class Op : uint8_t {
  kRequest = 0,
  kBegin,     // Transaction constructor
  kLookup,    // GetOid
  kScan,      // Scan / ScanOids (rows = entries delivered)
  kInsert,    // Insert / InsertIndexEntry
  kRead,      // Read
  kUpdate,    // Update / Delete
  kCommit,    // Commit
  kAbort,     // Abort
  kNumOps,
};

const char* OpName(Op op);

struct OpTotal {
  uint64_t calls = 0;
  uint64_t ns = 0;       // inclusive duration
  uint64_t self_ns = 0;  // duration minus direct children
  uint64_t rows = 0;
};

struct SpanRec {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;  // index into the same thread's spans; UINT32_MAX = root
  uint32_t req;
  Op op;
};

class Tracer {
 public:
  explicit Tracer(size_t span_cap) : span_cap_(span_cap) {}

  bool on() const { return on_; }

  void BeginRequest(uint32_t req, bool traced, bool keep_spans) {
    on_ = traced;
    keep_ = traced && keep_spans && spans_.size() < span_cap_;
    req_ = req;
    if (on_) Open(Op::kRequest);
  }
  void EndRequest() {
    if (on_) Close(0);
    on_ = false;
  }

  // Runs one engine call, timing it as a span of `op` when tracing is on.
  // `rows`, if given, is read after the call (scans count what they
  // delivered).
  template <typename F>
  auto Call(Op op, F&& f, const uint64_t* rows = nullptr) {
    if (!on_) return f();
    Open(op);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      Close(rows != nullptr ? *rows : 0);
    } else {
      auto r = f();
      Close(rows != nullptr ? *rows : 0);
      return r;
    }
  }

  const OpTotal& total(Op op) const {
    return totals_[static_cast<size_t>(op)];
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  struct Frame {
    Op op;
    uint64_t start;
    uint64_t child_ns;
    uint32_t rec;
  };

  void Open(Op op) {
    uint32_t rec = UINT32_MAX;
    if (keep_ && spans_.size() < span_cap_) {
      rec = static_cast<uint32_t>(spans_.size());
      const uint32_t parent = stack_.empty() ? UINT32_MAX : stack_.back().rec;
      spans_.push_back(SpanRec{0, 0, parent, req_, op});
    }
    stack_.push_back(Frame{op, NowNs(), 0, rec});
  }
  void Close(uint64_t rows) {
    const uint64_t end = NowNs();
    const Frame f = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end - f.start;
    OpTotal& t = totals_[static_cast<size_t>(f.op)];
    ++t.calls;
    t.ns += dur;
    t.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
    t.rows += rows;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.rec != UINT32_MAX) {
      spans_[f.rec].start_ns = f.start;
      spans_[f.rec].end_ns = end;
    }
  }

  bool on_ = false;
  bool keep_ = false;
  uint32_t req_ = 0;
  size_t span_cap_;
  std::vector<Frame> stack_;
  std::vector<SpanRec> spans_;
  OpTotal totals_[static_cast<size_t>(Op::kNumOps)];
};

// Result of one attempt of a request.
enum class Outcome {
  kCommitted,
  kRolledBack,  // the request's own intended rollback (TPC-C NewOrder 1%)
  kCcAbort,     // conflict, validation or phantom: retried
  kFailed,      // anything else: the request fails
};

inline Outcome Classify(const ermia::Status& s) {
  if (s.ok()) return Outcome::kCommitted;
  if (s.ShouldAbort()) return Outcome::kCcAbort;
  return Outcome::kFailed;
}

// One worker's view of a workload: draws a request's inputs once, then runs
// attempts of it until it completes or fails.
class Client {
 public:
  virtual ~Client() = default;
  // Draws the next request's inputs; returns its type index.
  virtual uint32_t Prepare(Rng& rng) = 0;
  // Runs one attempt of the prepared request. Client tallies are updated
  // only by an attempt that commits.
  virtual Outcome Attempt(Tracer& tracer) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::vector<std::string> TypeNames() const = 0;
  virtual ermia::CcScheme Scheme() const = 0;
  virtual bool SyncCommit() const = 0;
  // Declares the schema on a fresh Database (before Open / Recover). Called
  // again on the restarted Database, in the same order.
  virtual void CreateSchema(ermia::Database* db) = 0;
  // Loads the initial population (one loader thread per worker); returns
  // the rows loaded.
  virtual uint64_t Load(ermia::Database* db) = 0;
  virtual std::unique_ptr<Client> MakeClient(ermia::Database* db,
                                             uint32_t worker) = 0;
  // Checks the database state against the consistency rules and the
  // clients' tallies; appends a message per violation and returns the
  // per-table digests.
  virtual std::vector<std::pair<std::string, Digest>> Check(
      ermia::Database* db, std::vector<std::string>* errors) = 0;
  // One point read, proving a (restarted) database answers queries.
  virtual ermia::Status Probe(ermia::Database* db) = 0;
  // Self-test: alters one client tally (or one input the checks use) so a
  // later check must fail. Returns false for an unknown name.
  virtual bool Corrupt(const std::string& what) = 0;
};

std::unique_ptr<Workload> MakeTpcc(uint64_t seed, uint32_t workers,
                                   bool hybrid);
std::unique_ptr<Workload> MakeYcsb(uint64_t seed, uint32_t workers);

struct PhaseOptions {
  uint32_t workers = 3;
  uint64_t requests_per_worker = 0;
  bool trace = false;
  // Retries of one request after CC aborts before it counts as failed.
  uint32_t max_attempts = 1000;
  size_t span_cap = 60000;
};

// One request's outcome.
struct Sample {
  uint64_t end_ns;  // completion time
  uint64_t lat_ns;  // first attempt to final outcome
  uint32_t type;
  bool completed;
  bool traced;
};

struct WorkerResult {
  uint64_t attempts = 0;
  uint64_t aborted_attempts = 0;
  uint64_t retry_ns = 0;  // time in attempts that CC-aborted
  uint64_t cpu_ns = 0;    // thread CPU time over the phase
  uint64_t wall_ns = 0;
  std::vector<Sample> samples;  // one per request, in order
  OpTotal totals[static_cast<size_t>(Op::kNumOps)];
  std::vector<SpanRec> spans;
};

struct PhaseResult {
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t process_cpu_ns = 0;
  std::vector<WorkerResult> workers;
};

PhaseResult RunPhase(ermia::Database* db, Workload* wl, uint64_t seed,
                     const PhaseOptions& opt);

}  // namespace ebench

#endif  // EBENCH_HARNESS_H_
