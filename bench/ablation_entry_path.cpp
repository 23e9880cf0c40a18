// Ablation: the range-query entry-path optimization (DESIGN.md §4).
//
// Section 4 of the paper notes that minimality "would also hold for the
// traversal phase if we would have used bundles from the beginning of the
// list. However, ... for performance reasons we decide to avoid using
// bundles to reach the first node of the range"; Section 5 likewise keeps
// the skip list's index layers bundle-free and uses them only to route to
// the range. This bench quantifies both decisions by pitting the shipped
// range_query() (optimistic entry) against range_query_from_start() (all-
// bundle entry) on the same structures under a 50-0-50 workload.
//
// Expected shape: the optimistic entry wins by a factor that grows with key
// range (entry distance); the gap is larger for the skip list, whose index
// layers turn the entry walk into O(log n).

// A second axis ablates the *allocation* path of the entries themselves:
// the same mixed workload (update-heavy, MaintenanceService pruning so
// entries recycle) with the per-thread entry pools (core/entry_pool.h) on vs
// bypassed to plain new/delete. Expected shape: pooled wins by more as
// threads grow (the allocator serializes), and pooled allocs/op collapses
// toward zero once the pool is warm while malloc pays one heap round-trip
// per entry.
//
// A third axis runs the same pooled-vs-malloc comparison on the EBR-RQ
// competitor's *nodes* (its updates paid one `new Node` each at the seed;
// now they pool through the limbo -> EBR -> owner-inbox pipeline), keeping
// the headline comparison allocator-for-allocator fair.

#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <thread>

#include "api/registry.h"
#include "harness.h"
#include "shard/maintenance.h"

namespace {

using namespace bref;
using namespace bref::bench;

/// Like run_mixed_trial, but range queries go through the selected entry
/// path on the concrete bundled type.
template <typename DS>
double measure_entry_path(int threads, const Config& cfg, bool from_start) {
  double total = 0;
  for (int run = 0; run < cfg.runs; ++run) {
    auto ds = std::make_unique<DS>();
    prefill(*ds, cfg.key_range);
    std::vector<CachePadded<uint64_t>> op_counts(threads);
    std::atomic<bool> stop{false};
    std::barrier start_barrier(threads + 1);
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        // Session for the uniform surface; the from-start entry path is an
        // ablation-only hook, reached through the underlying structure.
        TypedSession<DS> s(*ds, t);
        Xoshiro256 rng(cfg.seed * 977 + t);
        std::vector<std::pair<KeyT, ValT>> rq_out;
        rq_out.reserve(cfg.rq_size + 16);
        uint64_t ops = 0;
        start_barrier.arrive_and_wait();
        while (!stop.load(std::memory_order_relaxed)) {
          const uint64_t dice = rng.next_range(100);
          const KeyT k = 1 + static_cast<KeyT>(rng.next_range(cfg.key_range));
          if (dice < static_cast<uint64_t>(cfg.u_pct)) {
            if (rng.next_range(2) == 0)
              s.insert(k, k);
            else
              s.remove(k);
          } else if (from_start) {
            s.set().range_query_from_start(s.tid(), k, k + cfg.rq_size - 1,
                                           rq_out);
          } else {
            s.set().range_query(s.tid(), k, k + cfg.rq_size - 1, rq_out);
          }
          ++ops;
        }
        *op_counts[t] = ops;
      });
    }
    start_barrier.arrive_and_wait();
    const auto t0 = now();
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg.duration_ms));
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : ts) th.join();
    uint64_t ops = 0;
    for (auto& c : op_counts) ops += *c;
    total += static_cast<double>(ops) / elapsed_s(t0) / 1e6;
  }
  return total / cfg.runs;
}

template <typename DS>
void run_family(const char* tag, const Config& base,
                const std::vector<long>& key_ranges) {
  std::printf("\n-- %s: optimistic entry vs all-bundle entry (50-0-50, "
              "Mops/s) --\n", tag);
  std::printf("%10s %8s %12s %12s %10s\n", "keyrange", "threads", "optimistic",
              "from-start", "speedup");
  for (long kr : key_ranges) {
    Config cfg = base;
    cfg.key_range = kr;
    cfg.u_pct = 50;
    cfg.c_pct = 0;
    cfg.rq_pct = 50;
    for (int threads : cfg.thread_counts) {
      const double opt = measure_entry_path<DS>(threads, cfg, false);
      const double fs = measure_entry_path<DS>(threads, cfg, true);
      std::printf("%10ld %8d %12.3f %12.3f %9.2fx\n", kr, threads, opt, fs,
                  fs > 0 ? opt / fs : 0.0);
    }
  }
}

/// One cell of the pooled-vs-malloc axis: mixed trial on a reclaiming
/// structure with maintenance pruning every 1 ms, entry pools forced
/// on/off. The service drives the structure through its registry adapter;
/// the timed trial calls the structure itself.
template <typename DS>
Measured measure_alloc_mode(int threads, const Config& cfg, bool pooled) {
  using Adapter = detail::AnySetAdapter<DS>;
  EntryPoolRegistry::instance().set_pooling_enabled(pooled);
  Measured m = measure_detailed(
      [&] { return std::make_unique<Adapter>(1, /*reclaim=*/true); }, threads,
      cfg, [](Adapter& set, int th, const Config& c) {
        MaintenanceService maint(
            set, {.interval = std::chrono::milliseconds(1), .adaptive = false});
        maint.start();
        Result r = run_mixed_trial(set.underlying(), th, c);
        maint.stop();
        return r;
      });
  EntryPoolRegistry::instance().set_pooling_enabled(true);
  return m;
}

template <typename DS>
void run_alloc_family(const char* tag, const char* impl, const Config& base) {
  Config cfg = base;
  cfg.u_pct = 90;
  cfg.c_pct = 0;
  cfg.rq_pct = 10;
  std::printf("\n-- %s: pooled vs malloc entry allocation (90-0-10, "
              "cleaner d=1ms) --\n", tag);
  std::printf("%8s %12s %12s %9s %16s %16s\n", "threads", "pooled", "malloc",
              "speedup", "pooled allocs/op", "malloc allocs/op");
  for (int threads : cfg.thread_counts) {
    const Measured pooled = measure_alloc_mode<DS>(threads, cfg, true);
    const Measured malloc_ = measure_alloc_mode<DS>(threads, cfg, false);
    JsonSink::instance().record(std::string(impl) + "-pooled", "90-0-10",
                                threads, pooled);
    JsonSink::instance().record(std::string(impl) + "-malloc", "90-0-10",
                                threads, malloc_);
    std::printf("%8d %12.3f %12.3f %8.2fx %16.6f %16.6f\n", threads,
                pooled.mops, malloc_.mops,
                malloc_.mops > 0 ? pooled.mops / malloc_.mops : 0.0,
                pooled.allocs_per_op, malloc_.allocs_per_op);
  }
}

/// One cell of the EBR-RQ node-allocation axis: same mixed trial, but the
/// competitor has no cleaner — its reclamation is the limbo prune cadence
/// plus EBR, which is exactly the path the node pools feed.
template <typename DS>
Measured measure_node_alloc_mode(int threads, const Config& cfg,
                                 bool pooled) {
  EntryPoolRegistry::instance().set_pooling_enabled(pooled);
  Measured m = measure_detailed([] { return std::make_unique<DS>(); },
                                threads, cfg);
  EntryPoolRegistry::instance().set_pooling_enabled(true);
  return m;
}

/// The competitor-side twin of run_alloc_family: EBR-RQ structures with
/// pooled nodes vs the seed's new/delete per update. Also reports the
/// limbo-scan overhead per query, which the --json record carries.
template <typename DS>
void run_ebrrq_alloc_family(const char* tag, const char* impl,
                            const Config& base) {
  Config cfg = base;
  cfg.u_pct = 90;
  cfg.c_pct = 0;
  cfg.rq_pct = 10;
  std::printf("\n-- %s: pooled vs malloc node allocation (90-0-10) --\n",
              tag);
  std::printf("%8s %12s %12s %9s %16s %16s %14s\n", "threads", "pooled",
              "malloc", "speedup", "pooled allocs/op", "malloc allocs/op",
              "limbo/query");
  for (int threads : cfg.thread_counts) {
    const Measured pooled = measure_node_alloc_mode<DS>(threads, cfg, true);
    const Measured malloc_ = measure_node_alloc_mode<DS>(threads, cfg, false);
    JsonSink::instance().record(std::string(impl) + "-pooled", "90-0-10",
                                threads, pooled);
    JsonSink::instance().record(std::string(impl) + "-malloc", "90-0-10",
                                threads, malloc_);
    const double queries =
        static_cast<double>(pooled.ops) * cfg.rq_pct / 100.0;
    std::printf("%8d %12.3f %12.3f %8.2fx %16.6f %16.6f %14.1f\n", threads,
                pooled.mops, malloc_.mops,
                malloc_.mops > 0 ? pooled.mops / malloc_.mops : 0.0,
                pooled.allocs_per_op, malloc_.allocs_per_op,
                queries > 0 ? pooled.limbo_checked / queries : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  Config base = config_from_args(args);
  if (!args.has("--duration")) base.duration_ms = 120;
  json_init(args, "ablation_entry_path", base);
  print_header("ablation: RQ entry path", base);
  std::vector<long> ranges{1000, 10000, 50000};
  if (args.has("--keyrange")) ranges = {base.key_range};
  run_family<BundledSkipList<KeyT, ValT>>("skip list", base, ranges);
  // The list's entry walk is O(n) either way; the ablation isolates the
  // bundle-dereference cost per hop rather than the hop count.
  run_family<BundledList<KeyT, ValT>>("lazy list", base,
                                      {500, 2000, 10000});
  std::printf("\nshape-check: the skip list gap should grow sharply with "
              "keyrange (the from-start path forfeits O(log n) index "
              "routing: expect 10-200x). For the list both paths walk the "
              "same O(n) hops from the head; only the per-hop bundle "
              "dereference differs, so expect a modest gap that can vanish "
              "in noise at small key ranges.\n");

  // ---- entry-allocation axis ----
  Config alloc_cfg = base;
  if (!args.has("--threads")) alloc_cfg.thread_counts = {1, 2, 4, 8};
  if (!args.has("--keyrange")) alloc_cfg.key_range = 10000;
  run_alloc_family<BundleSkipListSet>("skip list", "Bundle-skiplist",
                                      alloc_cfg);
  run_alloc_family<BundleListSet>("lazy list", "Bundle-list", alloc_cfg);
  std::printf("\nshape-check: pooled should win by more as threads grow, "
              "with pooled allocs/op near zero once warm and malloc "
              "allocs/op near the entries-per-update rate.\n");

  // ---- competitor node-allocation axis (EBR-RQ family) ----
  run_ebrrq_alloc_family<EbrRqListSet>("EBR-RQ lazy list", "EBR-RQ-list",
                                       alloc_cfg);
  run_ebrrq_alloc_family<EbrRqSkipListSet>("EBR-RQ skip list",
                                           "EBR-RQ-skiplist", alloc_cfg);
  std::printf("\nshape-check: same shape as the bundle axis — the EBR-RQ "
              "update path paid one node malloc per insert at the seed; "
              "pooled allocs/op should collapse toward zero once the limbo "
              "prune -> EBR -> owner-inbox pipeline is warm. limbo/query "
              "is the paper's limbo-scan overhead and should be unaffected "
              "by the allocation mode.\n");
  JsonSink::instance().flush();
  return 0;
}
