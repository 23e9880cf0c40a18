// Unit tests for the bundling core: global timestamp (incl. relaxation),
// Bundle prepare/finalize/dereference/pruning, linearize_update, RqTracker,
// and the bundled structures' range-query entry policies.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>

#include "api/registry.h"
#include "core/bundle.h"
#include "core/global_timestamp.h"
#include "core/rq_tracker.h"
#include "core/sync_hooks.h"
#include "epoch/ebr.h"
#include "shard/maintenance.h"
#include "test_util.h"

namespace bref {
namespace {

struct FakeNode {
  int id;
};

// ---------- GlobalTimestamp ----------

TEST(GlobalTimestamp, StartsAtZeroAndAdvances) {
  GlobalTimestamp gts;
  EXPECT_EQ(gts.read(), 0u);
  EXPECT_EQ(gts.advance(), 1u);
  EXPECT_EQ(gts.advance(), 2u);
  EXPECT_EQ(gts.read(), 2u);
}

TEST(GlobalTimestamp, LinearizableModeAdvancesEveryUpdate) {
  GlobalTimestamp gts(1);
  EXPECT_EQ(gts.update_ts(0), 1u);
  EXPECT_EQ(gts.update_ts(3), 2u);
  EXPECT_EQ(gts.read(), 2u);
}

TEST(GlobalTimestamp, RelaxedModeAdvancesEveryTth) {
  GlobalTimestamp gts(/*T=*/5);
  int advances = 0;
  timestamp_t prev = gts.read();
  for (int i = 0; i < 25; ++i) {
    gts.update_ts(0);
    if (gts.read() != prev) {
      ++advances;
      prev = gts.read();
    }
  }
  EXPECT_EQ(advances, 5);  // 25 updates / T=5
}

TEST(GlobalTimestamp, RelaxedCountersArePerThread) {
  GlobalTimestamp gts(/*T=*/4);
  for (int i = 0; i < 3; ++i) gts.update_ts(0);
  EXPECT_EQ(gts.read(), 0u);
  for (int i = 0; i < 3; ++i) gts.update_ts(1);
  EXPECT_EQ(gts.read(), 0u);  // neither thread hit its threshold
  gts.update_ts(0);
  EXPECT_EQ(gts.read(), 1u);
}

TEST(GlobalTimestamp, InfiniteRelaxationNeverAdvances) {
  GlobalTimestamp gts(GlobalTimestamp::kRelaxInfinite);
  for (int i = 0; i < 100; ++i) gts.update_ts(0);
  EXPECT_EQ(gts.read(), 0u);
}

TEST(GlobalTimestamp, ConcurrentAdvanceIsAtomic) {
  GlobalTimestamp gts;
  constexpr int kThreads = 4, kIncs = 10000;
  testutil::run_threads(kThreads, [&](int) {
    for (int i = 0; i < kIncs; ++i) gts.advance();
  });
  EXPECT_EQ(gts.read(), uint64_t(kThreads) * kIncs);
}

// ---------- Bundle ----------

TEST(Bundle, InitAndNewest) {
  Bundle<FakeNode> b;
  FakeNode n{1};
  b.init(&n, 0);
  EXPECT_EQ(b.newest(), &n);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Bundle, DereferenceRespectsTimestamps) {
  Bundle<FakeNode> b;
  FakeNode n0{0}, n1{1}, n2{2};
  b.init(&n0, 0);
  auto* e1 = b.prepare(0, &n1);
  Bundle<FakeNode>::finalize(e1, 5);
  auto* e2 = b.prepare(0, &n2);
  Bundle<FakeNode>::finalize(e2, 9);

  EXPECT_EQ(b.dereference(0).ptr, &n0);
  EXPECT_EQ(b.dereference(4).ptr, &n0);
  EXPECT_EQ(b.dereference(5).ptr, &n1);  // inclusive boundary
  EXPECT_EQ(b.dereference(8).ptr, &n1);
  EXPECT_EQ(b.dereference(9).ptr, &n2);
  EXPECT_EQ(b.dereference(1000).ptr, &n2);
  EXPECT_TRUE(b.dereference(0).found);
}

TEST(Bundle, DereferenceNotFoundBeforeFirstEntry) {
  Bundle<FakeNode> b;
  FakeNode n{7};
  auto* e = b.prepare(0, &n);
  Bundle<FakeNode>::finalize(e, 3);
  auto d = b.dereference(2);
  EXPECT_FALSE(d.found);  // link did not exist at ts=2 -> RQ must restart
}

TEST(Bundle, EntriesSortedNewestFirst) {
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  for (timestamp_t t = 1; t <= 8; ++t)
    Bundle<FakeNode>::finalize(b.prepare(0, &n), t);
  auto entries = b.snapshot_entries();
  ASSERT_EQ(entries.size(), 9u);
  for (size_t i = 1; i < entries.size(); ++i)
    EXPECT_GT(entries[i - 1].first, entries[i].first);
}

TEST(Bundle, FinalizeClampsToKeepOrderUnderRelaxation) {
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  Bundle<FakeNode>::finalize(b.prepare(0, &n), 7);
  // A relaxed-mode thread with a stale clock tries to stamp 3 after 7.
  Bundle<FakeNode>::finalize(b.prepare(0, &n), 3);
  auto entries = b.snapshot_entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 7u);  // clamped up
  EXPECT_EQ(entries[1].first, 7u);
}

TEST(Bundle, DereferenceBlocksOnPendingHead) {
  Bundle<FakeNode> b;
  FakeNode n0{0}, n1{1};
  b.init(&n0, 0);
  auto* pending = b.prepare(0, &n1);
  std::atomic<bool> started{false}, done{false};
  FakeNode* seen = nullptr;
  std::thread reader([&] {
    started = true;
    seen = b.dereference(10).ptr;  // must wait for the pending entry
    done = true;
  });
  while (!started) cpu_relax();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());  // still blocked on PENDING
  Bundle<FakeNode>::finalize(pending, 4);
  reader.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(seen, &n1);
}

TEST(Bundle, PrepareBlocksBehindPendingHead) {
  Bundle<FakeNode> b;
  FakeNode n0{0}, n1{1}, n2{2};
  b.init(&n0, 0);
  auto* first = b.prepare(0, &n1);
  std::atomic<bool> done{false};
  std::thread competitor([&] {
    auto* e = b.prepare(1, &n2);  // must wait until `first` finalizes
    Bundle<FakeNode>::finalize(e, 9);
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  Bundle<FakeNode>::finalize(first, 4);
  competitor.join();
  auto entries = b.snapshot_entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 9u);
  EXPECT_EQ(entries[1].first, 4u);
}

TEST(Bundle, ReclaimOlderKeepsCoveringEntry) {
  Ebr ebr;
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  for (timestamp_t t = 1; t <= 10; ++t)
    Bundle<FakeNode>::finalize(b.prepare(0, &n), t);
  // Oldest active RQ is at ts=6: keep entries 7..10 plus the covering
  // entry 6; retire 0..5 (6 entries).
  ebr.pin(0);
  size_t reclaimed = b.reclaim_older(6, ebr, 0);
  ebr.unpin(0);
  EXPECT_EQ(reclaimed, 6u);
  auto entries = b.snapshot_entries();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries.back().first, 6u);
  // Dereference at the oldest snapshot still works.
  EXPECT_TRUE(b.dereference(6).found);
}

TEST(Bundle, ReclaimOlderNoopWhenNothingStale) {
  Ebr ebr;
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 5);
  ebr.pin(0);
  EXPECT_EQ(b.reclaim_older(3, ebr, 0), 0u);  // nothing satisfies ts=3
  EXPECT_EQ(b.reclaim_older(5, ebr, 0), 0u);  // covering entry only
  ebr.unpin(0);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Bundle, ReclaimSkipsPendingHead) {
  Ebr ebr;
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  Bundle<FakeNode>::finalize(b.prepare(0, &n), 2);
  auto* pending = b.prepare(0, &n);
  ebr.pin(0);
  EXPECT_EQ(b.reclaim_older(10, ebr, 0), 0u);
  ebr.unpin(0);
  Bundle<FakeNode>::finalize(pending, 3);
}

// ---------- linearize_update ----------

TEST(LinearizeUpdate, OrdersPrepareAdvanceLinearizeFinalize) {
  GlobalTimestamp gts;
  Bundle<FakeNode> b1, b2;
  FakeNode n1{1}, n2{2};
  b1.init(&n1, 0);
  b2.init(&n2, 0);
  bool linearized = false;
  timestamp_t ts = linearize_update<FakeNode>(
      gts, 0, {{&b1, &n2}, {&b2, &n1}}, [&] { linearized = true; });
  EXPECT_TRUE(linearized);
  EXPECT_EQ(ts, 1u);
  EXPECT_EQ(b1.newest(), &n2);
  EXPECT_EQ(b2.newest(), &n1);
  EXPECT_EQ(b1.snapshot_entries()[0].first, 1u);
  EXPECT_EQ(b2.snapshot_entries()[0].first, 1u);
}

TEST(LinearizeUpdate, HooksFire) {
  GlobalTimestamp gts;
  Bundle<FakeNode> b;
  FakeNode n{1};
  b.init(&n, 0);
  static std::atomic<int> fired;
  fired = 0;
  SyncHooks::after_prepare.store([] { fired.fetch_add(1); });
  SyncHooks::before_finalize.store([] { fired.fetch_add(10); });
  linearize_update<FakeNode>(gts, 0, {{&b, &n}}, [] {});
  SyncHooks::reset();
  EXPECT_EQ(fired.load(), 11);
}

// ---------- RqTracker ----------

TEST(RqTracker, BeginPublishesSnapshot) {
  GlobalTimestamp gts;
  RqTracker rq;
  gts.advance();
  gts.advance();
  EXPECT_EQ(rq.begin(0, gts), 2u);
  EXPECT_EQ(rq.active_count(), 1);
  rq.end(0);
  EXPECT_EQ(rq.active_count(), 0);
}

TEST(RqTracker, OldestActiveIsMinOfAnnouncedAndClock) {
  GlobalTimestamp gts;
  RqTracker rq;
  for (int i = 0; i < 7; ++i) gts.advance();
  EXPECT_EQ(rq.oldest_active(gts), 7u);  // no active RQ: current clock
  rq.begin(2, gts);                      // announces 7
  for (int i = 0; i < 5; ++i) gts.advance();
  EXPECT_EQ(rq.oldest_active(gts), 7u);  // pinned by the active RQ
  rq.end(2);
  EXPECT_EQ(rq.oldest_active(gts), 12u);
}

namespace rq_pending_test {
std::atomic<bool> entered{false};
std::atomic<bool> release{false};
}  // namespace rq_pending_test

TEST(RqTracker, OldestActiveWaitsOutPendingAnnounce) {
  GlobalTimestamp gts;
  RqTracker rq;
  for (int i = 0; i < 5; ++i) gts.advance();  // clock = 5
  rq_pending_test::entered = false;
  rq_pending_test::release = false;
  // Stall the query between reading the clock and publishing its value —
  // the exact window the PENDING protocol exists for.
  SyncHooks::rq_mid_announce.store(
      +[] {
        rq_pending_test::entered.store(true, std::memory_order_release);
        while (!rq_pending_test::release.load(std::memory_order_acquire))
          cpu_relax();
      },
      std::memory_order_relaxed);
  std::thread query([&] { EXPECT_EQ(rq.begin(1, gts), 5u); });
  // Wait until the query is parked inside the window (PENDING posted, clock
  // read). Waiting only for PENDING would race the reset below: a query
  // that had not loaded the hook yet would skip the stall.
  while (!rq_pending_test::entered.load(std::memory_order_acquire))
    cpu_relax();
  SyncHooks::reset();  // only the already-in-flight announce should stall
  for (int i = 0; i < 5; ++i) gts.advance();  // clock = 10
  std::atomic<timestamp_t> observed{RqTracker::kNone};
  std::thread scanner([&] {
    observed.store(rq.oldest_active(gts), std::memory_order_release);
  });
  // The scanner must be stuck waiting out the PENDING slot. (Timing-based,
  // but one-sided: a slow scanner can only make this check vacuous, never
  // fail it.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(observed.load(), RqTracker::kNone);
  rq_pending_test::release = true;
  scanner.join();
  query.join();
  // Without the pending wait the scanner would have returned clock=10 and
  // let the cleaner invalidate the query's snapshot at 5.
  EXPECT_EQ(observed.load(), 5u);
  rq.end(1);  // query stays active until the scan is checked
}

// ---------- background bundle pruning (on a real structure) ----------

TEST(BundlePruning, PrunesQuiescentListToMinimalEntries) {
  // maintain() prunes only instances that reclaim.
  detail::AnySetAdapter<BundleListSet> set(1, /*reclaim=*/true);
  BundleListSet& list = set.underlying();
  for (KeyT k = 1; k <= 50; ++k) list.insert(0, k, k);
  for (KeyT k = 1; k <= 50; k += 2) list.remove(0, k);
  const size_t before = list.total_bundle_entries();
  {
    MaintenanceService maint(set, {.interval = std::chrono::milliseconds(1),
                                   .adaptive = false});
    maint.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    maint.stop();
    EXPECT_GT(maint.total().passes, 0u);
    EXPECT_GT(maint.total().bundle_entries_pruned, 0u);
  }
  const size_t after = list.total_bundle_entries();
  EXPECT_LT(after, before);
  // Quiescent cleanup leaves exactly one entry per live bundle
  // (head sentinel + 25 live nodes + tail).
  EXPECT_EQ(after, list.size_slow() + 2);
  EXPECT_TRUE(list.check_invariants());
}

// ---------- range-query entry-path ablation ----------
// range_query_from_start() (all-bundle traversal from the head sentinel)
// must produce the same snapshots as the shipped optimistic-entry path;
// only the cost differs (bench/ablation_entry_path).

template <typename DS>
void expect_entry_paths_agree_quiescent() {
  DS ds;
  Xoshiro256 rng(11);
  for (int i = 0; i < 400; ++i) {
    KeyT k = 1 + static_cast<KeyT>(rng.next_range(1000));
    if (rng.next_range(3) == 0)
      ds.remove(0, k);
    else
      ds.insert(0, k, k * 7);
  }
  std::vector<std::pair<KeyT, ValT>> a, b;
  for (int i = 0; i < 50; ++i) {
    KeyT lo = 1 + static_cast<KeyT>(rng.next_range(1000));
    KeyT hi = lo + static_cast<KeyT>(rng.next_range(200));
    ds.range_query(0, lo, hi, a);
    ds.range_query_from_start(0, lo, hi, b);
    EXPECT_EQ(a, b) << "range [" << lo << "," << hi << "]";
  }
}

TEST(EntryPathAblation, ListPathsReturnIdenticalSnapshots) {
  expect_entry_paths_agree_quiescent<BundleListSet>();
}

TEST(EntryPathAblation, SkipListPathsReturnIdenticalSnapshots) {
  expect_entry_paths_agree_quiescent<BundleSkipListSet>();
}

template <typename DS>
void expect_from_start_consistent_under_churn() {
  DS ds;
  constexpr KeyT kSpace = 1000;
  for (KeyT k = 1; k <= kSpace; k += 2) ds.insert(0, k, k);
  std::atomic<bool> stop{false};
  std::atomic<long> failures{0};
  std::thread rq_thread([&] {
    std::vector<std::pair<KeyT, ValT>> out;
    Xoshiro256 rng(5);
    while (!stop.load(std::memory_order_acquire)) {
      KeyT lo = 1 + static_cast<KeyT>(rng.next_range(kSpace - 60));
      ds.range_query_from_start(2, lo, lo + 60, out);
      if (!testutil::sorted_in_range(out, lo, lo + 60)) failures.fetch_add(1);
    }
  });
  testutil::run_threads(2, [&](int tid) {
    Xoshiro256 rng(tid * 7 + 3);
    for (int i = 0; i < 4000; ++i) {
      KeyT k = 1 + static_cast<KeyT>(rng.next_range(kSpace));
      if (rng.next_range(2) == 0)
        ds.insert(tid, k, k);
      else
        ds.remove(tid, k);
    }
  });
  stop = true;
  rq_thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(ds.check_invariants());
}

TEST(EntryPathAblation, ListFromStartConsistentUnderChurn) {
  expect_from_start_consistent_under_churn<BundleListSet>();
}

TEST(EntryPathAblation, SkipListFromStartConsistentUnderChurn) {
  expect_from_start_consistent_under_churn<BundleSkipListSet>();
}

// ---------- range-query entry policies ----------
// Every bundled range query seeks optimistically to the node before the
// range, then walks bundles at its snapshot timestamp. When that node is
// newer than the snapshot, range_query restarts at a newer timestamp, while
// range_query_at, whose timestamp is fixed, re-enters through the head
// sentinel. Both fallbacks fire only when an update lands between the clock
// read and the seek, so these tests force one.

namespace rq_entry_test {
template <typename DS>
DS* target = nullptr;

// One-shot rq_mid_announce hook: insert 15 right after the query has read
// the clock, so the seek for lo = 16 lands on a node newer than its ts.
template <typename DS>
void insert_15_once() {
  SyncHooks::rq_mid_announce.store(nullptr, std::memory_order_relaxed);
  target<DS>->insert(0, 15, 15);
}
}  // namespace rq_entry_test

using Items = std::vector<std::pair<KeyT, ValT>>;

template <typename DS>
void expect_range_query_at_entries() {
  DS ds;
  for (KeyT k : {10, 20, 30}) ds.insert(0, k, k);
  const timestamp_t ts = ds.rq_tracker().begin(1, ds.global_timestamp());
  ds.insert(0, 15, 15);
  ds.remove(0, 20);
  Items out;
  // The seek lands on 15, inserted after ts: head re-entry.
  EXPECT_EQ(ds.range_query_at(1, ts, 16, 30, out), 2u);
  EXPECT_EQ(out, (Items{{20, 20}, {30, 30}}));
  out.clear();
  // The seek lands on 10, live at ts: entry at the seek.
  EXPECT_EQ(ds.range_query_at(1, ts, 11, 30, out), 2u);
  EXPECT_EQ(out, (Items{{20, 20}, {30, 30}}));
  ds.rq_tracker().end(1);
}

TEST(RqEntryPolicy, ListRangeQueryAtFallsBackToHead) {
  expect_range_query_at_entries<BundleListSet>();
}

TEST(RqEntryPolicy, SkipListRangeQueryAtFallsBackToHead) {
  expect_range_query_at_entries<BundleSkipListSet>();
}

template <typename DS>
void expect_range_query_restarts() {
  DS ds;
  for (KeyT k : {10, 20, 30}) ds.insert(0, k, k);
  rq_entry_test::target<DS> = &ds;
  const timestamp_t before = ds.global_timestamp().read();
  SyncHooks::rq_mid_announce.store(&rq_entry_test::insert_15_once<DS>,
                                   std::memory_order_relaxed);
  Items out;
  ds.range_query(1, 16, 30, out);
  SyncHooks::reset();
  EXPECT_EQ(out, (Items{{20, 20}, {30, 30}}));
  // The first attempt ran at `before`; only a restart reads a newer clock.
  EXPECT_GT(ds.last_rq_timestamp(1), before);
  EXPECT_TRUE(ds.contains(0, 15));
}

TEST(RqEntryPolicy, ListRangeQueryRestartsWhenSeekPostdatesSnapshot) {
  expect_range_query_restarts<BundleListSet>();
}

TEST(RqEntryPolicy, SkipListRangeQueryRestartsWhenSeekPostdatesSnapshot) {
  expect_range_query_restarts<BundleSkipListSet>();
}

// A range starting at the smallest key must not return the head sentinel,
// which carries that key, from any entry point.
template <typename DS>
void expect_min_key_range_skips_head_sentinel() {
  DS ds;
  for (KeyT k : {10, 20, 30}) ds.insert(0, k, k);
  constexpr KeyT kMin = std::numeric_limits<KeyT>::min();
  const Items all{{10, 10}, {20, 20}, {30, 30}};
  Items out;
  ds.range_query(1, kMin, 30, out);
  EXPECT_EQ(out, all);
  ds.range_query_from_start(1, kMin, 30, out);
  EXPECT_EQ(out, all);
  out.clear();
  const timestamp_t ts = ds.rq_tracker().begin(1, ds.global_timestamp());
  ds.range_query_at(1, ts, kMin, 30, out);
  ds.rq_tracker().end(1);
  EXPECT_EQ(out, all);
}

TEST(RqEntryPolicy, ListMinKeyRangeSkipsHeadSentinel) {
  expect_min_key_range_skips_head_sentinel<BundleListSet>();
}

TEST(RqEntryPolicy, SkipListMinKeyRangeSkipsHeadSentinel) {
  expect_min_key_range_skips_head_sentinel<BundleSkipListSet>();
}

TEST(RqEntryPolicy, CitrusRangeQueryAtReadsPastSnapshotSorted) {
  BundleCitrusSet tree;
  for (KeyT k : {50, 20, 80, 10, 30, 60, 90}) tree.insert(0, k, k);
  const timestamp_t ts = tree.rq_tracker().begin(1, tree.global_timestamp());
  tree.insert(0, 25, 25);
  tree.insert(0, 55, 55);
  tree.remove(0, 20);
  tree.remove(0, 50);  // two children: a copy of 55 replaces it
  tree.remove(0, 90);
  // range_query_at appends: the prefix stays, only the suffix is sorted.
  Items out{{1000, 0}};
  EXPECT_EQ(tree.range_query_at(1, ts, 15, 85, out), 5u);
  EXPECT_EQ(out, (Items{{1000, 0}, {20, 20}, {30, 30}, {50, 50}, {60, 60},
                        {80, 80}}));
  tree.rq_tracker().end(1);
  EXPECT_TRUE(tree.check_invariants());
}

}  // namespace
}  // namespace bref
