// sharded_store: the shard layer end to end — a ShardedSet of four bundled
// skip lists serving a mixed workload from pooled sessions, with the
// per-shard MaintenanceService reclaiming in the background and a reporting
// thread taking coordinated cross-shard snapshots (one shared timestamp
// per snapshot, however many shards it spans).
//
//   build/examples/sharded_store [seconds]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "api/set.h"
#include "common/random.h"
#include "common/timing.h"
#include "shard/maintenance.h"

int main(int argc, char** argv) {
  using namespace bref;
  const double seconds = argc > 1 ? std::atof(argv[1]) : 1.0;
  constexpr KeyT kKeys = 100000;
  constexpr int kWriters = 4;

  // Four bundled shards partitioning [0, kKeys], every update stamped by
  // ONE shared clock; reclamation on so maintenance has real work.
  ShardOptions so;
  so.shards = 4;
  so.key_lo = 0;
  so.key_hi = kKeys;
  so.inner = SetOptions{.reclaim = true};
  Set store{std::make_unique<ShardedSet>("Bundle-skiplist", so)};
  auto& sharded = dynamic_cast<ShardedSet&>(store.impl());
  std::printf("store: %zu x Bundle-skiplist, coordinated=%s\n",
              sharded.num_shards(), sharded.coordinated() ? "yes" : "no");

  // One background worker per shard: bundle pruning + epoch pushes, with
  // adaptive back-off. Its ids are registry-tracked, so they never collide
  // with the pooled ids every other thread here uses.
  MaintenanceService maint(sharded);
  maint.start();

  // Partition-aware parallel preload: one loader per shard, each writing
  // its own shard's keys through that shard's SessionPool — direct shard
  // access is safe exactly when the loader respects the partition.
  {
    std::vector<std::thread> loaders;
    for (size_t i = 0; i < sharded.num_shards(); ++i) {
      loaders.emplace_back([&, i] {
        auto s = sharded.shard_pool(i).session();
        for (KeyT k = 1; k < kKeys; k += 2)
          if (sharded.shard_index(k) == i) s.insert(k, k);
      });
    }
    for (auto& l : loaders) l.join();
    std::printf("preloaded %zu keys (one loader per shard)\n",
                store.size_slow());
  }

  SessionPool pool(store);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(7 + t);
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto s = pool.session();
        const KeyT k = 1 + static_cast<KeyT>(rng.next_range(kKeys - 1));
        if (rng.next_range(2) == 0)
          s.insert(k, k);
        else
          s.remove(k);
        ++n;
      }
      writes.fetch_add(n, std::memory_order_relaxed);
    });
  }

  // Reporter: whole-keyspace snapshots. Each spans all four shards yet
  // linearizes at a single shared-clock instant — timestamp() proves it.
  std::thread reporter([&] {
    auto s = pool.session();
    RangeSnapshot snap;
    timestamp_t last_ts = 0;
    uint64_t snaps = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      s.range_query(0, kKeys, snap);
      if (!snap.has_timestamp() || snap.timestamp() < last_ts) {
        std::fprintf(stderr, "snapshot timestamps regressed!\n");
        std::abort();
      }
      last_ts = snap.timestamp();
      ++snaps;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::printf("reporter: %llu coordinated snapshots, last @ts=%llu "
                "(%zu keys live)\n",
                (unsigned long long)snaps, (unsigned long long)last_ts,
                snap.size());
  });

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(seconds * 1000)));
  stop = true;
  for (auto& w : writers) w.join();
  reporter.join();
  maint.stop();

  const ShardedSetStats rq = sharded.stats();
  std::printf("writers: %llu updates; RQ routing: %llu coordinated / %llu "
              "single-shard (one timestamp per coordinated query: %s)\n",
              (unsigned long long)writes.load(),
              (unsigned long long)rq.coordinated_rqs,
              (unsigned long long)rq.single_shard_rqs,
              rq.timestamps_acquired == rq.coordinated_rqs ? "yes" : "NO");
  for (size_t i = 0; i < maint.workers(); ++i) {
    const ShardMaintenanceStats ms = maint.stats(i);
    std::printf("  shard %zu maintenance: %llu passes, %llu entries "
                "pruned, %llu idle backoffs\n",
                i, (unsigned long long)ms.passes,
                (unsigned long long)ms.bundle_entries_pruned,
                (unsigned long long)ms.idle_backoffs);
  }
  return 0;
}
