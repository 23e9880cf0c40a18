// Range-query latency distribution under update churn (ablation, ours).
//
// The paper's evaluation reports throughput; the minimality property is,
// at heart, a per-query *work* bound, which shows up most clearly in
// latency tails: an EBR-RQ query re-scans announce arrays and limbo lists
// (the paper measures 300-600 extra nodes at high thread counts), an RLU
// query may wait on writer synchronization, while a bundled query does
// bounded work — entry walk + one bundle dereference per snapshot node.
// This bench pins one thread on range queries (recording per-op latency
// into the shared obs log₂ histogram — the same quantile machinery the
// server's stage metrics use) while the remaining threads run a
// 50%-update churn, and reports p50/p90/p99/max per implementation via
// the runtime registry.

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "api/set.h"
#include "harness.h"
#include "obs/metrics.h"

namespace {

using namespace bref;
using namespace bref::bench;

struct ProbeRun {
  obs::HistogramSnapshot lat;  // per-query ns latencies, probe thread only
  double elapsed_s = 0;
};

ProbeRun run_one(const std::string& impl, int churn_threads,
                 const Config& cfg) {
  Set ds = Set::create(impl);
  // Dense ids come from the per-OS-thread SessionPool cache (the
  // application id discipline) rather than hand-pinned slots.
  SessionPool pool(ds);
  {
    // Registry prefill (mirrors harness prefill, via the erased facade).
    std::atomic<KeyT> inserted{0};
    const KeyT target = cfg.key_range / 2;
    std::vector<std::thread> ts;
    for (int t = 0; t < 2; ++t) {
      ts.emplace_back([&, t] {
        ThreadSession s = pool.session();
        Xoshiro256 rng(99 + t);
        while (inserted.load(std::memory_order_relaxed) < target) {
          const KeyT k = 1 + static_cast<KeyT>(rng.next_range(cfg.key_range));
          if (s.insert(k, k))
            inserted.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : ts) th.join();
  }
  std::atomic<bool> stop{false};
  std::barrier start(churn_threads + 2);
  std::vector<std::thread> churn;
  for (int t = 0; t < churn_threads; ++t) {
    churn.emplace_back([&, t] {
      ThreadSession s = pool.session();
      Xoshiro256 rng(7 * t + 3);
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const KeyT k = 1 + static_cast<KeyT>(rng.next_range(cfg.key_range));
        if (rng.next_range(2) == 0)
          s.insert(k, k);
        else
          s.remove(k);
      }
    });
  }
  obs::HistogramSnapshot lat;
  std::thread prober([&] {
    ThreadSession s = pool.session();
    Xoshiro256 rng(1);
    RangeSnapshot out;
    out.buffer().reserve(cfg.rq_size + 16);
    start.arrive_and_wait();
    while (!stop.load(std::memory_order_relaxed)) {
      const KeyT lo = 1 + static_cast<KeyT>(rng.next_range(cfg.key_range));
      const auto t0 = now();
      s.range_query(lo, lo + cfg.rq_size - 1, out);
      lat.record(static_cast<uint64_t>(elapsed_s(t0) * 1e9));
    }
  });
  start.arrive_and_wait();
  const auto t0 = now();
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.duration_ms));
  stop.store(true, std::memory_order_relaxed);
  prober.join();
  const double elapsed = elapsed_s(t0);
  for (auto& t : churn) t.join();
  return {lat, elapsed};
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  Config cfg = config_from_args(args);
  if (!args.has("--duration")) cfg.duration_ms = 200;
  if (!args.has("--keyrange")) cfg.key_range = 20000;
  const int churn_threads =
      static_cast<int>(args.get_long("--churn-threads", 2));
  json_init(args, "rq_latency", cfg);
  print_header("range-query latency under churn", cfg);
  std::printf("# 1 probe thread, %d churn threads (50/50 insert-remove), "
              "rqsize=%d\n\n", churn_threads, cfg.rq_size);
  std::printf("%-24s %10s %10s %10s %10s %10s\n", "impl", "p50(us)",
              "p90(us)", "p99(us)", "max(us)", "queries");
  char mix_str[32];
  std::snprintf(mix_str, sizeof mix_str, "rq-probe+%dchurn", churn_threads);
  for (const auto& impl : ImplRegistry::instance().names()) {
    ProbeRun run = run_one(impl, churn_threads, cfg);
    std::printf("%-24s %10.1f %10.1f %10.1f %10.1f %10llu\n", impl.c_str(),
                run.lat.quantile(0.50) / 1000.0, run.lat.quantile(0.90) / 1000.0,
                run.lat.quantile(0.99) / 1000.0, run.lat.quantile(1.0) / 1000.0,
                static_cast<unsigned long long>(run.lat.count));
    Measured m;
    m.ops = run.lat.count;
    m.mops = run.elapsed_s > 0
                 ? static_cast<double>(m.ops) / run.elapsed_s / 1e6
                 : 0.0;
    m.set_latencies(run.lat);  // p50/p99/p999/max into the record
    JsonSink::instance().record(impl, mix_str, churn_threads + 1, m);
  }
  JsonSink::instance().flush();
  std::printf("\nshape-check: Bundle p99 should sit well below EBR-RQ(-LF), "
              "whose queries re-scan announce arrays and limbo lists. RLU "
              "reads are near-Unsafe *here* because RLU shifts its cost to "
              "writers (rlu_synchronize) — visible as update-throughput "
              "collapse in fig2/fig3, not in read latency. Unsafe is the "
              "floor.\n");
  return 0;
}
