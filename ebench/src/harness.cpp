#include "harness.h"

#include <time.h>

#include <atomic>
#include <thread>

namespace ebench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kRequest:
      return "request";
    case Op::kBegin:
      return "txn.begin";
    case Op::kLookup:
      return "index.lookup";
    case Op::kScan:
      return "index.scan";
    case Op::kInsert:
      return "index.insert";
    case Op::kRead:
      return "storage.read";
    case Op::kUpdate:
      return "storage.update";
    case Op::kCommit:
      return "cc.commit";
    case Op::kAbort:
      return "cc.abort";
    case Op::kNumOps:
      break;
  }
  return "unknown";
}

namespace {

uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Traced runs alternate blocks of this many requests with tracing on and
// off, so the traced/untraced rate ratio (the tracing overhead) is measured
// on the same database state and the same moment of the run.
constexpr uint64_t kTraceBlock = 64;

void RunWorker(ermia::Database* db, Workload* wl, uint64_t seed,
               const PhaseOptions& opt, uint32_t id,
               std::atomic<uint32_t>* ready, std::atomic<bool>* go,
               WorkerResult* out) {
  std::unique_ptr<Client> client = wl->MakeClient(db, id);
  Rng rng(seed, 1000 + id);
  Tracer tracer(opt.span_cap);
  out->samples.reserve(opt.requests_per_worker);

  ready->fetch_add(1);
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();

  const uint64_t wall0 = NowNs();
  const uint64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  const uint64_t n = opt.requests_per_worker;
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t type = client->Prepare(rng);
    const bool traced = opt.trace && ((i / kTraceBlock) & 1) == 1;
    tracer.BeginRequest(static_cast<uint32_t>(id * n + i), traced,
                        /*keep_spans=*/i >= n / 4);
    const uint64_t t0 = NowNs();
    Outcome o = Outcome::kFailed;
    for (uint32_t a = 0; a < opt.max_attempts; ++a) {
      const uint64_t a0 = NowNs();
      o = client->Attempt(tracer);
      ++out->attempts;
      if (o != Outcome::kCcAbort) break;
      ++out->aborted_attempts;
      out->retry_ns += NowNs() - a0;
      std::this_thread::yield();
    }
    const uint64_t t1 = NowNs();
    tracer.EndRequest();

    out->samples.push_back(Sample{t1, t1 - t0, type,
                                  o == Outcome::kCommitted ||
                                      o == Outcome::kRolledBack,
                                  traced});
  }
  out->cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  out->wall_ns = NowNs() - wall0;
  for (size_t k = 0; k < static_cast<size_t>(Op::kNumOps); ++k) {
    out->totals[k] = tracer.total(static_cast<Op>(k));
  }
  out->spans = tracer.spans();
  client.reset();
  ermia::ThreadRegistry::Deregister();
}

}  // namespace

PhaseResult RunPhase(ermia::Database* db, Workload* wl, uint64_t seed,
                     const PhaseOptions& opt) {
  PhaseResult res;
  res.workers.resize(opt.workers);
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(opt.workers);
  for (uint32_t w = 0; w < opt.workers; ++w) {
    threads.emplace_back(RunWorker, db, wl, seed, std::cref(opt), w, &ready,
                         &go, &res.workers[w]);
  }
  while (ready.load() < opt.workers) std::this_thread::yield();
  const uint64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  res.start_ns = NowNs();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  res.wall_ns = NowNs() - res.start_ns;
  res.process_cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  return res;
}

}  // namespace ebench
