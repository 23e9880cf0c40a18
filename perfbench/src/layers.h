#pragma once
// Set-up (prefill + maintenance drain) and the per-layer readings the
// traced run takes around each phase. Everything here goes through public
// accessors; nothing inside src/ is instrumented for the benchmark.

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "api/ordered_set.h"
#include "api/registry.h"
#include "api/session.h"
#include "common.h"
#include "core/entry_pool.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "shard/maintenance.h"
#include "shard/sharded_set.h"

namespace perfbench {

using bref::AnyOrderedSet;
using bref::MaintenanceService;
using bref::ShardedSet;

/// Insert the prefill keys (value == key) in the seeded order, from one
/// thread.
inline void prefill(AnyOrderedSet& set, const std::vector<KeyT>& order) {
  bref::ThreadSession s(set);
  for (KeyT k : order) s.insert(k, k);
}

/// Wait until maintenance has caught up with the prefill: no limbo backlog
/// and every maintenance worker has finished two passes that reclaimed
/// nothing since the prefill ended (the first may have started before the
/// last insert). Returns the seconds waited, or -1 after 30 s.
inline double drain_maintenance(const AnyOrderedSet& set,
                                const MaintenanceService& m) {
  const uint64_t t0 = now_ns();
  std::vector<uint64_t> base(m.workers());
  for (size_t i = 0; i < m.workers(); ++i) base[i] = m.stats(i).idle_backoffs;
  for (;;) {
    bool idle = set.maintenance_backlog() == 0;
    for (size_t i = 0; idle && i < m.workers(); ++i)
      idle = m.stats(i).idle_backoffs >= base[i] + 2;
    const double waited = static_cast<double>(now_ns() - t0) * 1e-9;
    if (idle) return waited;
    if (waited > 30.0) return -1.0;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

/// Retired-but-unfreed EBR objects across the shards plus any limbo
/// backlog: the reclamation work queued behind maintenance. (For Bundle-*
/// maintenance_backlog() is always 0 — it counts only EBR-RQ limbo — so the
/// EBR count is what moves.)
inline uint64_t reclaim_backlog(ShardedSet& set) {
  using Adapter = bref::detail::AnySetAdapter<bref::BundleSkipListSet>;
  uint64_t n = set.maintenance_backlog();
  for (size_t i = 0; i < set.num_shards(); ++i)
    if (auto* a = dynamic_cast<Adapter*>(&set.shard(i))) {
      const bref::Ebr& e = a->underlying().ebr();
      n += e.retired() - e.freed();
    }
  return n;
}

inline bref::obs::Histogram& bundle_depth_hist() {
  return bref::obs::registry().histogram(
      "bref_bundle_chain_depth",
      "Entries walked per bundle dereference (sampled 1-in-64)");
}

/// Counters of every layer at one instant; two of them give a phase's
/// deltas.
struct LayerSnap {
  uint64_t wall_ns = 0;
  uint64_t proc_cpu_ns = 0;
  uint64_t gen_cpu_ns = 0;  // the load-driving threads
  bref::net::ServerStats server{};
  bref::obs::HistogramSnapshot stage[3];  // queue, execute, flush
  bref::ShardedSetStats shard{};
  bref::ShardMaintenanceStats maint{};
  bref::EntryPoolStats pool{};
  bref::obs::HistogramSnapshot depth;

  static LayerSnap take(const bref::net::Server* srv, const ShardedSet& set,
                        const MaintenanceService& m, uint64_t gen_cpu_ns) {
    LayerSnap s;
    s.wall_ns = now_ns();
    s.proc_cpu_ns = process_cpu_ns();
    s.gen_cpu_ns = gen_cpu_ns;
    if (srv != nullptr) {
      s.server = srv->stats();
      for (int i = 0; i < 3; ++i)
        s.stage[i] = bref::net::stage_hist(i).snapshot();
    }
    s.shard = set.stats();
    s.maint = m.total();
    s.pool = bref::EntryPoolRegistry::instance().totals();
    s.depth = bundle_depth_hist().snapshot();
    return s;
  }
};

/// The layer metrics shared by every workload (shard/, maintenance, core/)
/// over the interval [a, b]. `ops` and `updates` are the workload's
/// completed ops and update attempts in that interval.
inline void report_core_layers(Report& rep, const LayerSnap& a,
                               const LayerSnap& b, uint64_t ops,
                               uint64_t updates, uint64_t backlog_max,
                               double drain_s) {
  const double secs = static_cast<double>(b.wall_ns - a.wall_ns) * 1e-9;
  const uint64_t coord = b.shard.coordinated_rqs - a.shard.coordinated_rqs;
  const uint64_t chunked = b.server.chunked_rqs - a.server.chunked_rqs;
  const uint64_t pinned =
      b.shard.coordinated_shards_pinned - a.shard.coordinated_shards_pinned;
  rep.layer("shard.coordinated_rqs", static_cast<double>(coord), "count",
            "multi-shard snapshots, incl. chunked scans");
  rep.layer("shard.single_rqs",
            static_cast<double>(b.shard.single_shard_rqs -
                                a.shard.single_shard_rqs),
            "count");
  // Chunked scans take their pins through net/guard.h, which does not
  // count them, so the ratio is over ShardedSet's own coordinated RQs.
  rep.layer("shard.pins_per_coordinated_rq",
            ratio(static_cast<double>(pinned),
                  static_cast<double>(coord - std::min(coord, chunked))),
            "pins", "shards pinned per coordinated_collect");
  rep.layer("maint.passes_per_s",
            ratio(static_cast<double>(b.maint.passes - a.maint.passes), secs),
            "1/s");
  rep.layer("maint.pruned_per_update",
            ratio(static_cast<double>(b.maint.bundle_entries_pruned -
                                      a.maint.bundle_entries_pruned),
                  static_cast<double>(updates)),
            "ratio", count_note(updates, "updates"));
  rep.layer("maint.backlog_max", static_cast<double>(backlog_max), "count",
            "max sampled unfreed EBR objects + limbo");
  rep.layer("maint.drain_s", drain_s, "s", "last set-up");
  bref::EntryPoolStats pool = b.pool;
  pool -= a.pool;
  rep.layer("pool.miss_ratio",
            ratio(static_cast<double>(pool.misses),
                  static_cast<double>(pool.hits + pool.misses)),
            "ratio", count_note(pool.hits + pool.misses, "acquires"));
  rep.layer("pool.allocs_per_op",
            ratio(static_cast<double>(pool.allocs()), static_cast<double>(ops)),
            "ratio", count_note(ops, "ops"));
  bref::obs::HistogramSnapshot depth = b.depth;
  depth -= a.depth;
  rep.layer("bundle.depth_p99", depth.quantile(0.99), "entries",
            count_note(depth.count, "sampled derefs"));
}

}  // namespace perfbench
