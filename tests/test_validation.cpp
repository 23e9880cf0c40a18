// Unit tests for the history-validation module: the sequential SetModel,
// the Wing-Gong exhaustive checker, and the per-key decomposition. Crafted
// histories with known verdicts, then randomized recorded runs against the
// real structures (both as a sanity check of the recorder and as an
// end-to-end linearizability audit).

#include <gtest/gtest.h>

#include <thread>

#include "test_util.h"
#include "validation/history.h"
#include "validation/model.h"
#include "validation/wing_gong.h"

namespace bref::validation {
namespace {

// Builders for hand-crafted ops. Windows are expressed as small integers;
// op A precedes op B in real time iff A.response < B.invoke.
Op ins(KeyT k, ValT v, bool res, uint64_t inv, uint64_t rsp, int tid = 0) {
  Op o;
  o.kind = OpKind::kInsert;
  o.tid = tid;
  o.key = k;
  o.val = v;
  o.result = res;
  o.invoke_ns = inv;
  o.response_ns = rsp;
  return o;
}
Op rem(KeyT k, bool res, uint64_t inv, uint64_t rsp, int tid = 0) {
  Op o;
  o.kind = OpKind::kRemove;
  o.tid = tid;
  o.key = k;
  o.result = res;
  o.invoke_ns = inv;
  o.response_ns = rsp;
  return o;
}
Op ctn(KeyT k, bool res, uint64_t inv, uint64_t rsp, int tid = 0, ValT v = 0) {
  Op o;
  o.kind = OpKind::kContains;
  o.tid = tid;
  o.key = k;
  o.val = v;
  o.result = res;
  o.invoke_ns = inv;
  o.response_ns = rsp;
  return o;
}
Op rq(KeyT lo, KeyT hi, std::vector<std::pair<KeyT, ValT>> res, uint64_t inv,
      uint64_t rsp, int tid = 0) {
  Op o;
  o.kind = OpKind::kRangeQuery;
  o.tid = tid;
  o.key = lo;
  o.hi = hi;
  o.rq_result = std::move(res);
  o.invoke_ns = inv;
  o.response_ns = rsp;
  return o;
}

// ---------- SetModel ----------

TEST(SetModel, InsertRemoveContainsSemantics) {
  SetModel m;
  EXPECT_TRUE(m.step(ins(5, 50, true, 0, 1)));
  EXPECT_FALSE(m.step(ins(5, 51, true, 0, 1)));   // duplicate insert=true
  EXPECT_TRUE(m.step(ins(5, 51, false, 0, 1)));   // duplicate insert=false
  EXPECT_TRUE(m.step(ctn(5, true, 0, 1, 0, 50)));   // value must match
  EXPECT_FALSE(m.step(ctn(5, true, 0, 1, 0, 51)));  // stale value rejected
  EXPECT_FALSE(m.step(ctn(5, false, 0, 1)));      // present: false illegal
  EXPECT_TRUE(m.step(rem(5, true, 0, 1)));
  EXPECT_FALSE(m.step(rem(5, true, 0, 1)));       // already gone
  EXPECT_TRUE(m.step(rem(5, false, 0, 1)));
  EXPECT_TRUE(m.step(ctn(5, false, 0, 1)));
}

TEST(SetModel, RangeQuerySemantics) {
  SetModel m;
  ASSERT_TRUE(m.step(ins(1, 10, true, 0, 1)));
  ASSERT_TRUE(m.step(ins(3, 30, true, 0, 1)));
  ASSERT_TRUE(m.step(ins(9, 90, true, 0, 1)));
  EXPECT_TRUE(m.step(rq(1, 5, {{1, 10}, {3, 30}}, 0, 1)));
  EXPECT_FALSE(m.step(rq(1, 5, {{1, 10}}, 0, 1)));           // missing 3
  EXPECT_FALSE(m.step(rq(1, 5, {{1, 10}, {3, 31}}, 0, 1)));  // wrong value
  EXPECT_FALSE(m.step(rq(1, 9, {{1, 10}, {3, 30}}, 0, 1)));  // missing 9
  EXPECT_TRUE(m.step(rq(4, 8, {}, 0, 1)));                   // empty window
  EXPECT_FALSE(m.step(rq(4, 8, {{9, 90}}, 0, 1)));           // out of range
}

TEST(SetModel, UndoRestoresExactState) {
  SetModel m;
  ASSERT_TRUE(m.step(ins(7, 70, true, 0, 1)));
  const uint64_t fp = m.fingerprint();
  Op overwrite = rem(7, true, 0, 1);
  SetModel::Undo u = m.prepare_undo(overwrite);
  ASSERT_TRUE(m.step(overwrite));
  EXPECT_NE(m.fingerprint(), fp);
  m.apply_undo(u);
  EXPECT_EQ(m.fingerprint(), fp);
  EXPECT_EQ(m.state().at(7), 70);
}

// ---------- Wing-Gong checker: known verdicts ----------

TEST(WingGong, SequentialHistoryIsLinearizable) {
  History h{ins(1, 1, true, 0, 1), ctn(1, true, 2, 3, 0, 1),
            rem(1, true, 4, 5), ctn(1, false, 6, 7)};
  auto r = check_linearizable(h);
  EXPECT_TRUE(r) << r.message;
  ASSERT_EQ(r.witness.size(), 4u);
}

TEST(WingGong, ReadMustNotPrecedeItsWrite) {
  // contains(1)=true completes strictly before insert(1) begins: no order
  // can satisfy both real time and semantics.
  History h{ctn(1, true, 0, 1, 0, 1), ins(1, 1, true, 2, 3)};
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, ConcurrentReadMayLinearizeEitherSide) {
  // contains(1) overlaps insert(1): both results are legal.
  EXPECT_TRUE(check_linearizable({ctn(1, true, 0, 10, 1, 7),
                                  ins(1, 7, true, 5, 6)}));
  EXPECT_TRUE(check_linearizable({ctn(1, false, 0, 10, 1), //
                                  ins(1, 7, true, 5, 6)}));
}

TEST(WingGong, NewOldInversionIsCaught) {
  // Classic non-linearizable pattern: a later (real-time) read observes an
  // older state than an earlier read. r1 sees the insert, then r2 (strictly
  // after r1) misses it.
  History h{ins(1, 1, true, 0, 20),        // overlaps both reads
            ctn(1, true, 2, 3, 1, 1),      // r1: sees it
            ctn(1, false, 5, 6, 2)};       // r2: after r1, misses it
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, DoubleSuccessfulInsertIsCaught) {
  History h{ins(4, 1, true, 0, 5, 1), ins(4, 2, true, 0, 5, 2)};
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, RangeQueryAtomicityViolationIsCaught) {
  // Two inserts overlap two range queries; each query observes exactly one
  // of the inserts. Every per-key projection is individually explainable
  // (each insert is concurrent with both reads of its key), but no single
  // linearization point can explain both snapshots: whichever insert
  // linearizes first is missed by the query that saw only the other.
  History h{ins(1, 1, true, 0, 10), ins(3, 3, true, 0, 10),
            rq(0, 5, {{1, 1}}, 2, 3, 1),     // sees 1 but not 3
            rq(0, 5, {{3, 3}}, 2, 3, 2)};    // sees 3 but not 1
  EXPECT_FALSE(check_linearizable(h));
  // The per-key decomposition alone cannot reject this (documented
  // limitation: RQs break key independence).
  EXPECT_TRUE(check_per_key(h));
}

TEST(WingGong, RangeQueryTornSnapshotAcrossConcurrentUpdates) {
  // insert(2) strictly precedes insert(4); an RQ that reports 4 but not 2
  // cannot be linearized anywhere.
  History h{ins(2, 2, true, 0, 1), ins(4, 4, true, 2, 3),
            rq(0, 9, {{4, 4}}, 4, 5)};
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, WitnessReplaysLegally) {
  History h{ins(2, 2, true, 0, 10, 1), ctn(2, true, 3, 4, 2, 2),
            rem(2, true, 11, 12, 1), rq(0, 9, {}, 13, 14, 2)};
  auto r = check_linearizable(h);
  ASSERT_TRUE(r) << r.message;
  SetModel m;
  for (int idx : r.witness) ASSERT_TRUE(m.step(h[static_cast<size_t>(idx)]));
}

TEST(WingGong, LongSequentialHistoriesUseWidthBoundedSearch) {
  // 300 interleaved ops across 3 lanes — far beyond the 64-op mask search;
  // the per-thread-prefix representation handles it.
  History h;
  SetModel truth;
  uint64_t t = 0;
  Xoshiro256 rng(12);
  for (int i = 0; i < 300; ++i) {
    const int tid = i % 3;
    const KeyT k = static_cast<KeyT>(rng.next_range(6));
    const bool present = truth.state().count(k) != 0;
    Op o = rng.next_range(2) == 0 ? ins(k, 0, !present, t, t + 1, tid)
                                  : rem(k, present, t, t + 1, tid);
    ASSERT_TRUE(truth.step(o));
    h.push_back(o);
    t += 2;
  }
  auto r = check_linearizable(h);
  EXPECT_TRUE(r) << r.message;
  ASSERT_EQ(r.witness.size(), h.size());
}

TEST(WingGong, LongHistoryViolationStillCaught) {
  // A sequential 100-op prefix, then a read that contradicts the state.
  History h;
  uint64_t t = 0;
  for (int i = 0; i < 100; ++i) {
    h.push_back(ins(i, i, true, t, t + 1, i % 3));
    t += 2;
  }
  h.push_back(ctn(50, false, t, t + 1, 0));  // key 50 was inserted: illegal
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, OverlappingSameTidOpsFallBackToMaskSearch) {
  // Two same-tid ops with overlapping windows break the per-thread
  // sequencing invariant; the general search still decides small cases.
  History h{ins(1, 1, true, 0, 10, 0), ctn(1, true, 5, 6, 0, 1)};
  EXPECT_TRUE(check_linearizable(h));
  History big(65, ctn(1, false, 0, 10, 0));  // overlapping *and* oversized
  EXPECT_FALSE(check_linearizable(big));
}

// ---------- per-key projections ----------

TEST(PerKey, ProjectsRangeQueryReturnsAndAbsences) {
  History h{ins(1, 1, true, 0, 1), ins(5, 5, true, 0, 1), rem(5, true, 2, 3),
            rq(0, 9, {{1, 1}}, 4, 5)};
  auto proj = per_key_projections(h);
  ASSERT_EQ(proj.size(), 2u);
  // Key 1: insert + projected contains(true).
  EXPECT_EQ(proj[1].size(), 2u);
  // Key 5: insert + remove + projected contains(false) from the RQ.
  EXPECT_EQ(proj[5].size(), 3u);
  EXPECT_TRUE(check_per_key(h));
}

TEST(PerKey, CatchesMissedUpdateViaAbsenceProjection) {
  // insert(5) completed before the RQ started, but the RQ omits key 5.
  History h{ins(5, 5, true, 0, 1), rq(0, 9, {}, 2, 3)};
  EXPECT_FALSE(check_per_key(h));
  EXPECT_FALSE(check_linearizable(h));
}

TEST(PerKey, LongPointHistoryChecksQuickly) {
  // 300 ops on 10 keys: far beyond the exhaustive checker, fine per key.
  History h;
  uint64_t t = 0;
  SetModel truth;
  Xoshiro256 rng(99);
  for (int i = 0; i < 300; ++i) {
    KeyT k = static_cast<KeyT>(rng.next_range(10));
    bool present = truth.state().count(k) != 0;
    Op o;
    switch (rng.next_range(3)) {
      case 0:
        o = ins(k, k * 10, !present, t, t + 1);
        break;
      case 1:
        o = rem(k, present, t, t + 1);
        break;
      default:
        o = ctn(k, present, t, t + 1, 0, present ? k * 10 : 0);
        break;
    }
    ASSERT_TRUE(truth.step(o));
    h.push_back(o);
    t += 2;
  }
  EXPECT_TRUE(check_per_key(h));
}

// ---------- end-to-end recorded audits over the real structures ----------

template <typename DS>
class RecordedAudit : public ::testing::Test {
 protected:
  DS ds;
};

TYPED_TEST_SUITE(RecordedAudit, bref::testutil::LinearizableSetTypes);

TYPED_TEST(RecordedAudit, ConcurrentBurstsAreLinearizable) {
  // Many short bursts: 3 threads x 4 ops over 3 hot keys, each burst
  // checked exhaustively. Narrow key range maximizes contention. The set
  // carries state across bursts; each burst's history is seeded with the
  // pre-burst contents as completed inserts that precede everything.
  constexpr int kBursts = 60;
  constexpr int kThreads = 3;
  for (int burst = 0; burst < kBursts; ++burst) {
    History pre;
    for (auto& [k, v] : this->ds.to_vector())
      pre.push_back(ins(k, v, true, 0, 1));
    std::vector<ThreadLog> logs;
    for (int t = 0; t < kThreads; ++t) logs.emplace_back(t);
    bref::testutil::run_threads(kThreads, [&](int t) {
      Xoshiro256 rng(burst * 31 + t);
      RecordedSession<TypeParam> rec(this->ds, logs[t], t);
      RangeSnapshot out;
      for (int i = 0; i < 4; ++i) {
        KeyT k = 1 + static_cast<KeyT>(rng.next_range(3));
        switch (rng.next_range(4)) {
          case 0:
            rec.insert(k, k + 100 * burst);
            break;
          case 1:
            rec.remove(k);
            break;
          case 2:
            rec.contains(k);
            break;
          default:
            rec.range_query(1, 3, out);
            break;
        }
      }
    });
    History h = merge(logs);
    // Seed ops get windows strictly before every recorded op, so every
    // linearization replays them first.
    uint64_t min_invoke = ~0ull;
    for (const auto& op : h) min_invoke = std::min(min_invoke, op.invoke_ns);
    for (size_t i = 0; i < pre.size(); ++i) {
      pre[i].invoke_ns = 2 * i;
      pre[i].response_ns = 2 * i + 1;
      ASSERT_LT(pre[i].response_ns, min_invoke);
    }
    h.insert(h.end(), pre.begin(), pre.end());
    auto r = check_linearizable(h);
    EXPECT_TRUE(r.linearizable) << "burst " << burst << ": " << r.message;
    if (!r.linearizable) break;
  }
}

}  // namespace
}  // namespace bref::validation
