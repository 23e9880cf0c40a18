// The EBR-RQ family after its modernization pass: snapshot timestamps
// returned by range_query and surfaced as RangeSnapshot::timestamp(), the
// report/limbo lifecycle fixes (rq_end drains reports under the lock that
// gates pushes; flush_limbo rescues nodes stranded below the prune
// cadence), and the pooled allocation-free node path (EntryPool-backed
// nodes with EBR-integrated recycling, mirroring the bundle entries of
// tests/test_entry_pool.cpp).
//
// Runs in the regular, ASan (free-node poisoning: a recycled node still
// reachable by a pinned reader faults loudly) and TSan (the new
// report-lock/limbo-lock protocols) CI jobs.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/entry_pool.h"
#include "test_util.h"
#include "validation/wing_gong.h"

namespace bref {
namespace {

// list + skiplist in both coordination modes — the four configurations the
// @ts audits must cover per the modernization issue (citrus rides through
// the same provider and is exercised by the family-wide suites).
using EbrRqFamily = ::testing::Types<EbrRqListSet, EbrRqSkipListSet,
                                     EbrRqLfListSet, EbrRqLfSkipListSet>;

template <typename DS>
class EbrRqTs : public ::testing::Test {
 protected:
  DS ds;
};

TYPED_TEST_SUITE(EbrRqTs, EbrRqFamily);

// ---------------------------------------------------------------------------
// Snapshot timestamps.
// ---------------------------------------------------------------------------

TYPED_TEST(EbrRqTs, SnapshotTimestampSurfacesAndIsStrictlyMonotone) {
  TypedSession<TypeParam> s(this->ds, 0);
  for (KeyT k = 1; k <= 20; ++k) s.insert(k, k);
  RangeSnapshot a, b;
  s.range_query(1, 20, a);
  ASSERT_TRUE(a.has_timestamp());
  EXPECT_EQ(a.size(), 20u);
  // Every rq_begin fetch-adds the counter, so stamps are unique and
  // strictly increasing — per thread and globally.
  s.range_query(1, 20, b);
  ASSERT_TRUE(b.has_timestamp());
  EXPECT_GT(b.timestamp(), a.timestamp());
  // Trivially-empty queries still stamp a meaningful "now".
  RangeSnapshot c;
  s.range_query(10, 5, c);
  ASSERT_TRUE(c.has_timestamp());
  EXPECT_GE(c.timestamp(), b.timestamp());
}

TYPED_TEST(EbrRqTs, TimestampsStayMonotoneUnderConcurrentUpdates) {
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    TypedSession<TypeParam> s(this->ds, 1);
    Xoshiro256 rng(5);
    while (!stop.load(std::memory_order_acquire)) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(300));
      if (rng.next_range(2) == 0)
        s.insert(k, k);
      else
        s.remove(k);
    }
  });
  TypedSession<TypeParam> s(this->ds, 0);
  RangeSnapshot snap;
  timestamp_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    s.range_query(1, 300, snap);
    ASSERT_TRUE(snap.has_timestamp());
    ASSERT_GT(snap.timestamp(), prev) << "snapshot time ran backwards";
    prev = snap.timestamp();
  }
  stop = true;
  churn.join();
}

// Prefix closure (the linearizability workhorse of test_linearizability,
// here so the ASan job covers it for the family too): when each updater
// inserts its stripe in a known order, any linearizable snapshot must
// contain a per-stripe prefix — a hole proves the query mixed two points
// in time. The snapshot's @ts must also track the insert count: with u
// inserts completed before rq_begin, the stamp can never precede them.
TYPED_TEST(EbrRqTs, InsertOnlySnapshotsArePrefixClosedWithSaneStamps) {
  constexpr int kUpd = 2;
  constexpr KeyT kPerThread = 500;
  std::atomic<bool> done{false};
  std::atomic<long> violations{0};
  std::thread rq_thread([&] {
    TypedSession<TypeParam> s(this->ds, kUpd);
    RangeSnapshot out;
    while (!done.load(std::memory_order_acquire)) {
      s.range_query(1, kUpd * kPerThread + 1, out);
      std::vector<std::vector<KeyT>> seen(kUpd);
      for (const auto& [k, v] : out)
        seen[(k - 1) % kUpd].push_back((k - 1) / kUpd);
      for (int t = 0; t < kUpd; ++t)
        for (size_t i = 0; i < seen[t].size(); ++i)
          if (seen[t][i] != static_cast<KeyT>(i)) violations.fetch_add(1);
      if (!out.has_timestamp()) violations.fetch_add(1);
    }
  });
  testutil::run_sessions<TypeParam>(this->ds, kUpd, [&](auto& s) {
    for (KeyT i = 0; i < kPerThread; ++i)
      ASSERT_TRUE(s.insert(1 + s.tid() + i * kUpd, i));
  });
  done = true;
  rq_thread.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(this->ds.size_slow(), size_t{kUpd} * kPerThread);
}

// The @ts Wing&Gong audit: short recorded bursts whose range queries carry
// the snapshot timestamp; the checker must find a witness linearization in
// which stamped queries take effect in @ts order (and the stamps must not
// contradict real time). This is the first time the timestamp-based audits
// run against a non-Bundle technique.
TYPED_TEST(EbrRqTs, RecordedBurstsPassTimestampedWingGongAudit) {
  for (int burst = 0; burst < 12; ++burst) {
    validation::History pre;
    for (auto& [k, v] : this->ds.to_vector()) {
      validation::Op op;
      op.kind = validation::OpKind::kInsert;
      op.key = k;
      op.val = v;
      op.result = true;
      op.invoke_ns = 2 * pre.size();
      op.response_ns = 2 * pre.size() + 1;
      pre.push_back(op);
    }
    std::vector<validation::ThreadLog> logs;
    for (int t = 0; t < 3; ++t) logs.emplace_back(t);
    testutil::run_threads(3, [&](int t) {
      validation::RecordedSession<TypeParam> s(this->ds, logs[t], t);
      Xoshiro256 rng(burst * 23 + t + 1);
      RangeSnapshot out;
      for (int i = 0; i < 4; ++i) {
        const KeyT k = 1 + static_cast<KeyT>(rng.next_range(3));
        switch (rng.next_range(4)) {
          case 0:
            s.insert(k, burst * 10 + i);
            break;
          case 1:
            s.remove(k);
            break;
          case 2:
            s.contains(k);
            break;
          default:
            s.range_query(1, 3, out);
            break;
        }
      }
    });
    validation::History h = validation::merge(logs);
    h.insert(h.end(), pre.begin(), pre.end());
    auto verdict = validation::check_linearizable_with_ts(h);
    ASSERT_TRUE(verdict.linearizable)
        << "burst " << burst << ": " << verdict.message;
  }
}

// ---------------------------------------------------------------------------
// Report lifecycle (satellite bugfix #1): a report may sit in a slot only
// while its query is live. Quiescently, every slot must be empty — before
// the fix, an insert racing a query's completion could park a dangling
// NodeT* until that tid's next rq_begin, which may never come.
// ---------------------------------------------------------------------------

TEST(EbrRqReports, NoReportOutlivesItsQuery) {
  EbrRqLfListSet ds;  // reports exist only in lock-free mode
  for (KeyT k = 2; k <= 400; k += 2) ds.insert(0, k, k);
  std::atomic<bool> stop{false};
  std::thread rq_thread([&] {
    TypedSession<EbrRqLfListSet> s(ds, 2);
    RangeSnapshot out;
    Xoshiro256 rng(3);
    while (!stop.load(std::memory_order_acquire)) {
      const KeyT lo = 1 + static_cast<KeyT>(rng.next_range(350));
      s.range_query(lo, lo + 50, out);
    }
  });
  testutil::run_threads(2, [&](int tid) {
    TypedSession<EbrRqLfListSet> s(ds, tid);
    Xoshiro256 rng(17 + tid);
    for (int i = 0; i < 8000; ++i) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(400));
      if (rng.next_range(2) == 0)
        s.insert(k, k);
      else
        s.remove(k);
    }
  });
  stop = true;
  rq_thread.join();
  EXPECT_EQ(ds.provider().pending_reports(), 0u)
      << "a report survived its query's rq_end";
}

// ---------------------------------------------------------------------------
// Limbo drain (satellite bugfix #3): nodes stranded below the kPruneEvery
// cadence are rescued by flush_limbo and flow through EBR back to their
// owners' pools. Under ASan the pooled-free poisoning turns any
// recycled-too-early access into an immediate fault.
// ---------------------------------------------------------------------------

TEST(EbrRqLimbo, FlushDrainsNodesStrandedBelowThePruneCadence) {
  EbrRqListSet ds;
  constexpr KeyT kN = 60;  // < kPruneEvery: cadence pruning never fires
  for (KeyT k = 1; k <= kN; ++k) ASSERT_TRUE(ds.insert(0, k, k));
  for (KeyT k = 1; k <= kN; ++k) ASSERT_TRUE(ds.remove(0, k));
  EXPECT_EQ(ds.provider().limbo_size(), size_t{kN})
      << "expected every removed node stranded in limbo";
  // No active queries: everything is reclaimable, and the flush may be
  // driven by any thread (here a different one than the remover).
  EXPECT_EQ(ds.flush_limbo(1), size_t{kN});
  EXPECT_EQ(ds.provider().limbo_size(), 0u);
  // Two quiesces ripen the retire bags; the nodes recycle (pool) or free
  // (malloc bypass) — either way they leave EBR custody.
  const uint64_t freed_before = ds.ebr().freed();
  ds.ebr().quiesce(1);
  ds.ebr().quiesce(1);
  EXPECT_GE(ds.ebr().freed(), freed_before + kN);
  EXPECT_TRUE(ds.check_invariants());
  EXPECT_EQ(ds.size_slow(), 0u);
}

TEST(EbrRqLimbo, FlushKeepsNodesAnActiveQueryMayStillNeed) {
  EbrRqListSet ds;
  for (KeyT k = 1; k <= 40; ++k) ASSERT_TRUE(ds.insert(0, k, k));
  // Freeze a query's announced timestamp by hand (white-box: begin without
  // end), then remove — the victims' dtimes exceed the frozen snapshot, so
  // a flush must not retire them.
  ds.provider().rq_begin(2, 1, 40);
  for (KeyT k = 1; k <= 40; ++k) ASSERT_TRUE(ds.remove(0, k));
  EXPECT_EQ(ds.flush_limbo(1), 0u);
  EXPECT_EQ(ds.provider().limbo_size(), 40u);
  ds.provider().rq_end(2);
  EXPECT_EQ(ds.flush_limbo(1), 40u);
  EXPECT_EQ(ds.provider().limbo_size(), 0u);
}

// ---------------------------------------------------------------------------
// Pooled nodes: the acceptance regression, mirroring
// EntryPool.SteadyStateUpdatePathHasZeroPoolMisses for bundles. Once warm,
// a churning EBR-RQ structure whose pruned limbo nodes recycle through EBR
// performs zero pool misses — the update path stops touching the
// allocator. Single-threaded with an explicit flush/quiesce cadence so the
// recycle pipeline (limbo -> EBR bag -> owner inbox) drains
// deterministically (see the bundle test's comment for why).
// ---------------------------------------------------------------------------

TEST(EbrRqPool, SteadyStateUpdatePathHasZeroPoolMisses) {
  using DS = EbrRqListSet;
  auto& pool = EntryPool<DS::Node>::instance();
  pool.set_pooling_enabled(true);
  DS ds;
  Xoshiro256 rng(41);
  auto round = [&] {
    for (int i = 0; i < 200; ++i) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(256));
      if (rng.next_range(2) == 0)
        ds.insert(0, k, k);
      else
        ds.remove(0, k);
    }
    ds.flush_limbo(0);
    // Nothing is pinned between operations, so each quiesce advances the
    // epoch; two rounds ripen and drain every bag back to the pool inbox.
    ds.ebr().quiesce(0);
  };
  for (int r = 0; r < 30; ++r) round();  // warm-up: size the pool
  const EntryPoolStats warm = pool.stats();
  ASSERT_GT(warm.hits + warm.misses, 0u);
  for (int r = 0; r < 60; ++r) round();  // steady state
  EntryPoolStats steady = pool.stats();
  steady -= warm;
  EXPECT_EQ(steady.misses, 0u)
      << "steady-state EBR-RQ updates hit the allocator " << steady.misses
      << " times (hits=" << steady.hits << ")";
  EXPECT_GT(steady.hits, 0u);
  EXPECT_GT(steady.recycled, 0u) << "no node was ever recycled";
  EXPECT_TRUE(ds.check_invariants());
}

TEST(EbrRqPool, MallocBypassTagsNodesAndRoundTrips) {
  using DS = EbrRqSkipListSet;
  auto& pool = EntryPool<DS::Node>::instance();
  // Mixed-origin structures tear down cleanly: nodes born under bypass
  // carry kPoolMalloced and route back to delete, pooled ones to their
  // slot — the toggle can never mismatch an acquire with a release.
  pool.set_pooling_enabled(false);
  {
    DS ds;
    for (KeyT k = 1; k <= 32; ++k) ds.insert(0, k, k);
    pool.set_pooling_enabled(true);
    for (KeyT k = 33; k <= 64; ++k) ds.insert(0, k, k);
    for (KeyT k = 1; k <= 64; k += 2) ds.remove(0, k);
    ds.flush_limbo(0);
    ds.ebr().quiesce(0);
    ds.ebr().quiesce(0);
    EXPECT_TRUE(ds.check_invariants());
    EXPECT_EQ(ds.size_slow(), 32u);
  }
  pool.set_pooling_enabled(true);
}

// ---------------------------------------------------------------------------
// Concurrent smoke over the whole new machinery: churn + queries + an
// external flusher thread driving flush_limbo from outside the update
// path. TSan exercises the report-lock re-check and the intrusive limbo
// relinking; ASan the pool poisoning under the highest recycle pressure.
// ---------------------------------------------------------------------------

TYPED_TEST(EbrRqTs, ChurnQueriesAndExternalFlushStayConsistent) {
  constexpr KeyT kSpace = 500;
  for (KeyT k = 1; k <= kSpace; k += 2) this->ds.insert(0, k, k);
  std::atomic<bool> stop{false};
  std::atomic<long> failures{0};
  std::thread rq_thread([&] {
    TypedSession<TypeParam> s(this->ds, 2);
    RangeSnapshot out;
    Xoshiro256 rng(23);
    while (!stop.load(std::memory_order_acquire)) {
      const KeyT lo = 1 + static_cast<KeyT>(rng.next_range(kSpace - 50));
      s.range_query(lo, lo + 50, out);
      if (!testutil::sorted_in_range(out, lo, lo + 50)) failures.fetch_add(1);
    }
  });
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      this->ds.flush_limbo(3);
      this->ds.ebr().quiesce(3);
    }
  });
  testutil::run_threads(2, [&](int tid) {
    TypedSession<TypeParam> s(this->ds, tid);
    Xoshiro256 rng(tid + 41);
    for (int i = 0; i < 6000; ++i) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(kSpace));
      if (rng.next_range(2) == 0)
        s.insert(k, k);
      else
        s.remove(k);
    }
  });
  stop = true;
  rq_thread.join();
  flusher.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(this->ds.check_invariants());
  // Quiescent: one flush drains whatever the last cadence window left.
  this->ds.flush_limbo(0);
  EXPECT_EQ(this->ds.provider().limbo_size(), 0u);
}

// ---------------------------------------------------------------------------
// Registry surface: all six EBR-RQ entries advertise rq_timestamp, and the
// facade delivers stamped snapshots through the application-facing
// SessionPool path.
// ---------------------------------------------------------------------------

TEST(EbrRqCapabilities, AllSixRegistryEntriesReportRqTimestamp) {
  int seen = 0;
  for (const auto& d : ImplRegistry::instance().descriptors()) {
    if (d.technique != "EBR-RQ" && d.technique != "EBR-RQ-LF") continue;
    ++seen;
    EXPECT_TRUE(d.caps.rq_timestamp) << d.name;
    Set s = Set::create(d.name);
    auto sess = s.session(0);
    for (KeyT k = 1; k <= 8; ++k) sess.insert(k, k);
    RangeSnapshot snap = sess.range_query(1, 8);
    EXPECT_TRUE(snap.has_timestamp()) << d.name;
    EXPECT_EQ(snap.size(), 8u);
  }
  EXPECT_EQ(seen, 6);
}

TEST(EbrRqCapabilities, PooledSessionsSeeStampedSnapshots) {
  Set s = Set::create("EBR-RQ-skiplist");
  {
    auto sess = s.session(0);
    for (KeyT k = 1; k <= 100; ++k) sess.insert(k, k);
  }
  std::atomic<long> missing_ts{0};
  testutil::run_pooled(s.impl(), 4, [&](ThreadSession& sess) {
    RangeSnapshot out;
    for (int i = 0; i < 50; ++i) {
      sess.range_query(1, 100, out);
      if (!out.has_timestamp() || out.size() != 100) missing_ts.fetch_add(1);
    }
  });
  EXPECT_EQ(missing_ts.load(), 0);
}

}  // namespace
}  // namespace bref
