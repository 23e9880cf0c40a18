// Memory-reclamation tests (Section 7 / supplementary B): bundle-entry
// recycling via background maintenance (MaintenanceService driving
// prune_bundles, the paper's cleaner), EBR-backed node reclamation, the
// paper's space-overhead claim (amortized two bundle entries per insert),
// and limbo-list bounding for the EBR-RQ baselines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "api/registry.h"
#include "shard/maintenance.h"
#include "test_util.h"

namespace bref {
namespace {

TEST(SpaceOverhead, InsertOnlyListHasTwoEntriesPerNode) {
  // Paper, Section 4 "Space overhead": n inserts (no removes) produce 2n
  // bundle entries (one in the new node, one in the predecessor), plus the
  // two sentinel-initialization entries.
  BundleListSet list;
  constexpr KeyT kN = 500;
  for (KeyT k = 1; k <= kN; ++k) list.insert(0, k, k);
  EXPECT_EQ(list.total_bundle_entries(), 2 * size_t(kN) + 2);
}

TEST(SpaceOverhead, CleanerWithActiveRqPreservesItsSnapshot) {
  // A pinned range query must keep the entries its snapshot needs alive;
  // entries older than its timestamp may go.
  BundleListSet list;
  for (KeyT k = 1; k <= 100; ++k) list.insert(0, k, k);
  // Start an RQ and freeze its announced timestamp by hand.
  auto ts = list.rq_tracker().begin(5, list.global_timestamp());
  // More updates after the snapshot.
  for (KeyT k = 101; k <= 200; ++k) list.insert(0, k, k);
  for (KeyT k = 1; k <= 50; ++k) list.remove(0, k);
  // Pruning with the RQ active may drop entries strictly older than each
  // bundle's covering entry for ts, but must keep every covering entry:
  // afterwards each live bundle still satisfies the announced snapshot.
  list.prune_bundles(0);
  (void)ts;
  const size_t with_rq = list.total_bundle_entries();
  // Once the RQ retires, its covering entries become prunable too.
  list.rq_tracker().end(5);
  size_t pruned = list.prune_bundles(0);
  EXPECT_GT(pruned, 0u) << "entries pinned by the RQ were not reclaimable "
                           "after it finished";
  EXPECT_LT(list.total_bundle_entries(), with_rq);
  std::vector<std::pair<KeyT, ValT>> out;
  EXPECT_EQ(list.range_query(0, 1, 200, out), 150u);
  EXPECT_TRUE(list.check_invariants());
}

TEST(Cleaner, ConcurrentCleanerNeverBreaksQueries) {
  detail::AnySetAdapter<BundleSkipListSet> set(1, /*reclaim=*/true);
  BundleSkipListSet& sl = set.underlying();
  // Most aggressive cadence (Table 1's d = 0): a pass per retire.
  MaintenanceService cleaner(
      set, {.interval = std::chrono::milliseconds(0), .backlog_wake = 1});
  cleaner.start();
  std::atomic<bool> stop{false};
  std::atomic<long> rq_failures{0};
  std::thread rq_thread([&] {
    std::vector<std::pair<KeyT, ValT>> out;
    Xoshiro256 rng(3);
    while (!stop.load(std::memory_order_acquire)) {
      KeyT lo = 1 + static_cast<KeyT>(rng.next_range(900));
      sl.range_query(3, lo, lo + 50, out);
      if (!testutil::sorted_in_range(out, lo, lo + 50)) rq_failures++;
    }
  });
  testutil::run_threads(2, [&](int tid) {
    Xoshiro256 rng(tid + 8);
    for (int i = 0; i < 8000; ++i) {
      KeyT k = 1 + static_cast<KeyT>(rng.next_range(1000));
      if (rng.next_range(2) == 0)
        sl.insert(tid, k, k);
      else
        sl.remove(tid, k);
    }
  });
  stop = true;
  rq_thread.join();
  cleaner.stop();
  EXPECT_EQ(rq_failures.load(), 0);
  EXPECT_TRUE(sl.check_invariants());
  // On a fast run the churn can finish before the cleaner's first pass
  // lands; the deterministic claim is that the stale entries are reclaimed
  // *somewhere* — by the cleaner while running, or by one quiescent pass now.
  const size_t direct = sl.prune_bundles(0);
  EXPECT_GT(cleaner.total().bundle_entries_pruned + direct, 0u);
}

TEST(Cleaner, CitrusBundlesPrunedUnderChurn) {
  detail::AnySetAdapter<BundleCitrusSet> set(1, /*reclaim=*/true);
  BundleCitrusSet& ct = set.underlying();
  for (KeyT k = 1; k <= 400; ++k) ct.insert(0, k * 7 % 401 + 1, k);
  {
    MaintenanceService cleaner(set, {.interval = std::chrono::milliseconds(1),
                                     .adaptive = false});
    cleaner.start();
    testutil::run_threads(2, [&](int tid) {
      Xoshiro256 rng(tid + 77);
      for (int i = 0; i < 4000; ++i) {
        KeyT k = 1 + static_cast<KeyT>(rng.next_range(400));
        if (rng.next_range(2) == 0)
          ct.insert(tid, k, k);
        else
          ct.remove(tid, k);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(ct.check_invariants());
  // Quiescent cleanup: one pass with no active queries leaves one entry
  // per live bundle.
  ct.prune_bundles(0);
  size_t live_bundles = 2 * (ct.size_slow() + 1);  // two per node + root
  EXPECT_EQ(ct.total_bundle_entries(), live_bundles);
}

TEST(Ebr, NodesActuallyFreedUnderReclaimingChurn) {
  BundledList<KeyT, ValT> list(1, /*reclaim=*/true);
  testutil::run_threads(2, [&](int tid) {
    for (int round = 0; round < 40; ++round) {
      for (KeyT k = 1; k <= 50; ++k) list.insert(tid, k * 2 + tid, k);
      for (KeyT k = 1; k <= 50; ++k) list.remove(tid, k * 2 + tid);
    }
  });
  EXPECT_GT(list.ebr().freed(), 0u);
  EXPECT_TRUE(list.check_invariants());
}

TEST(Ebr, LeakyModeParksRemovedNodesUntilDestruction) {
  // With reclaim=false (the paper's benchmark mode) removed nodes are
  // retired but never freed during the run.
  BundledList<KeyT, ValT> list(1, /*reclaim=*/false);
  for (KeyT k = 1; k <= 100; ++k) list.insert(0, k, k);
  for (KeyT k = 1; k <= 100; ++k) list.remove(0, k);
  EXPECT_EQ(list.ebr().retired(), 100u);
  EXPECT_EQ(list.ebr().freed(), 0u);
}

TEST(EbrRq, LimboListIsPrunedOnceQueriesFinish) {
  EbrRqListSet list;
  for (KeyT k = 1; k <= 400; ++k) list.insert(0, k, k);
  for (KeyT k = 1; k <= 400; ++k) list.remove(0, k);
  // Another burst triggers periodic pruning with no active queries.
  for (int round = 0; round < 4; ++round) {
    for (KeyT k = 1; k <= 200; ++k) list.insert(0, k, k);
    for (KeyT k = 1; k <= 200; ++k) list.remove(0, k);
  }
  EXPECT_LT(list.provider().limbo_size(), 400u)
      << "limbo list grew without bound";
}

TEST(EbrRq, QueriesScanLimboNodes) {
  EbrRqLfListSet list;
  for (KeyT k = 1; k <= 50; ++k) list.insert(0, k, k);
  for (KeyT k = 1; k <= 50; k += 2) list.remove(0, k);
  std::vector<std::pair<KeyT, ValT>> out;
  const uint64_t before = list.provider().limbo_nodes_checked();
  list.range_query(0, 1, 50, out);
  EXPECT_EQ(out.size(), 25u);
  EXPECT_GT(list.provider().limbo_nodes_checked(), before)
      << "range query did not consult the limbo lists";
}

TEST(RelaxedTimestamps, StillProduceSaneSnapshotsQuiescently) {
  // With T=8, updates advance the clock rarely; quiescent range queries
  // must still return exactly the current set (freshness is only relaxed
  // *during* concurrency).
  BundledSkipList<KeyT, ValT> sl(/*relax_threshold=*/8);
  for (KeyT k = 1; k <= 128; ++k) sl.insert(0, k, k);
  // Force the clock forward so the last inserts become observable even
  // under relaxation (the paper's T=inf variant reads the freshest entry
  // instead; see fig5 bench).
  sl.global_timestamp().advance();
  std::vector<std::pair<KeyT, ValT>> out;
  EXPECT_EQ(sl.range_query(0, 1, 128, out), 128u);
  EXPECT_TRUE(sl.check_invariants());
}

}  // namespace
}  // namespace bref
