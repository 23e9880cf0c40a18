// Value-parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P)
// over the implementation registry, driven through the bref::Set facade:
//
//   * AllImplsProperty  - every implementation x the core set properties
//                         (model equivalence, RQ slicing, idempotence).
//   * LinRqProperty     - linearizable implementations x concurrent
//                         happens-before visibility properties.
//   * RelaxationSweep   - relaxation-capable implementations x relax
//                         threshold T: point ops stay linearizable
//                         (per-key audit) and quiescent range queries stay
//                         exact for every T — only concurrent RQ freshness
//                         is traded away (Fig. 5).
//   * ReclaimSweep      - reclamation-capable implementations x
//                         reclamation on/off.
//
// The two option sweeps enumerate the ImplRegistry filtered by the
// capability under test instead of naming implementations, so a new
// technique with the capability (LFCA was the first) is swept with no test
// edits.
//
// These complement the typed suites (compile-time enumeration) with
// combinatorial run-time sweeps the typed machinery cannot express.
// Worker threads hold ThreadSessions pinned to their dense ids.

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "api/any_set.h"
#include "api/set.h"
#include "common/random.h"
#include "test_util.h"
#include "validation/history.h"
#include "validation/wing_gong.h"

namespace bref {
namespace {

// ---------------------------------------------------------------------------
// AllImplsProperty: name-parameterized over every implementation.
// ---------------------------------------------------------------------------

class AllImplsProperty : public ::testing::TestWithParam<std::string> {
 protected:
  Set ds = Set::create(GetParam());
  ThreadSession s = ds.session(0);
};

TEST_P(AllImplsProperty, MatchesModelThroughRandomOps) {
  std::map<KeyT, ValT> model;
  Xoshiro256 rng(31);
  for (int i = 0; i < 2000; ++i) {
    const KeyT k = 1 + static_cast<KeyT>(rng.next_range(150));
    const ValT v = static_cast<ValT>(rng.next_u64() % 1000);
    switch (rng.next_range(3)) {
      case 0:
        EXPECT_EQ(s.insert(k, v), model.emplace(k, v).second);
        break;
      case 1:
        EXPECT_EQ(s.remove(k), model.erase(k) > 0);
        break;
      default: {
        ValT got = 0;
        const auto it = model.find(k);
        EXPECT_EQ(s.contains(k, &got), it != model.end());
        if (it != model.end()) {
          EXPECT_EQ(got, it->second);
        }
        break;
      }
    }
  }
  EXPECT_TRUE(testutil::matches_model(ds, model));
  EXPECT_TRUE(ds.check_invariants());
}

TEST_P(AllImplsProperty, QuiescentRangeQueryIsExactModelSlice) {
  std::map<KeyT, ValT> model;
  Xoshiro256 rng(37);
  for (int i = 0; i < 600; ++i) {
    const KeyT k = 1 + static_cast<KeyT>(rng.next_range(400));
    if (rng.next_range(4) == 0) {
      s.remove(k);
      model.erase(k);
    } else {
      if (s.insert(k, k * 3)) model.emplace(k, k * 3);
    }
  }
  RangeSnapshot out;
  for (int i = 0; i < 40; ++i) {
    const KeyT lo = 1 + static_cast<KeyT>(rng.next_range(400));
    const KeyT hi = lo + static_cast<KeyT>(rng.next_range(120));
    s.range_query(lo, hi, out);
    std::vector<std::pair<KeyT, ValT>> expect;
    for (auto it = model.lower_bound(lo);
         it != model.end() && it->first <= hi; ++it)
      expect.emplace_back(it->first, it->second);
    EXPECT_EQ(out, expect) << "[" << lo << "," << hi << "] on " << GetParam();
  }
}

TEST_P(AllImplsProperty, EmptyAndSingletonRangeEdgeCases) {
  RangeSnapshot out;
  out.buffer().assign({{1, 1}});            // stale garbage
  EXPECT_EQ(s.range_query(10, 20, out), 0u);  // empty structure
  EXPECT_TRUE(out.empty());                   // out must be cleared
  EXPECT_EQ(s.range_query(20, 10, out), 0u);  // inverted bounds
  ASSERT_TRUE(s.insert(15, 150));
  EXPECT_EQ(s.range_query(15, 15, out), 1u);  // singleton inclusive
  EXPECT_EQ(out.front(), (std::pair<KeyT, ValT>{15, 150}));
  EXPECT_EQ(s.range_query(16, 20, out), 0u);  // just above
  EXPECT_EQ(s.range_query(10, 14, out), 0u);  // just below
}

TEST_P(AllImplsProperty, InsertRemoveIdempotenceAtBoundaries) {
  EXPECT_FALSE(s.remove(7));  // remove from empty
  EXPECT_TRUE(s.insert(7, 70));
  EXPECT_FALSE(s.insert(7, 71));  // duplicate keeps original value
  EXPECT_EQ(s.get(7), std::optional<ValT>(70));
  EXPECT_TRUE(s.remove(7));
  EXPECT_FALSE(s.remove(7));
  EXPECT_FALSE(s.contains(7));
  EXPECT_EQ(ds.size_slow(), 0u);
}

TEST_P(AllImplsProperty, RegistryMetadataConsistent) {
  EXPECT_EQ(ds.name(), GetParam());
  ImplDescriptor desc;
  ASSERT_TRUE(ImplRegistry::instance().find(GetParam(), &desc));
  EXPECT_EQ(ds.capabilities().linearizable_rq, desc.caps.linearizable_rq);
  EXPECT_EQ(ds.capabilities().linearizable_rq,
            GetParam().rfind("Unsafe-", 0) != 0);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllImplsProperty, ::testing::ValuesIn(any_set_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string n = info.param;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

// ---------------------------------------------------------------------------
// LinRqProperty: concurrent visibility for linearizable implementations.
// ---------------------------------------------------------------------------

class LinRqProperty : public ::testing::TestWithParam<std::string> {
 protected:
  Set ds = Set::create(GetParam());
};

TEST_P(LinRqProperty, CompletedUpdateVisibleToLaterRangeQuery) {
  // Herlihy-Wing real-time order: an update that returned before the RQ
  // started must be in (or out of) the snapshot accordingly. One writer
  // alternates insert/remove of a sentinel key and immediately range-
  // queries; interfering churn runs on *other* keys.
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};
  std::thread churn([&] {
    ThreadSession cs = ds.session(1);
    Xoshiro256 rng(3);
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const KeyT k = 100 + static_cast<KeyT>(rng.next_range(200));
      if ((i++ & 1) != 0)
        cs.insert(k, k);
      else
        cs.remove(k);
    }
  });
  ThreadSession s = ds.session(0);
  RangeSnapshot out;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(s.insert(50, i));
    s.range_query(40, 60, out);
    bool seen = false;
    for (const auto& [k, v] : out) seen |= (k == 50);
    if (!seen) violations.fetch_add(1);
    ASSERT_TRUE(s.remove(50));
    s.range_query(40, 60, out);
    for (const auto& [k, v] : out)
      if (k == 50) violations.fetch_add(1);
  }
  stop = true;
  churn.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST_P(LinRqProperty, ConcurrentBurstsPassWingGongAudit) {
  // Short recorded bursts over 3 hot keys, audited exhaustively. This is
  // the registry-driven twin of the typed RecordedAudit suite.
  for (int burst = 0; burst < 15; ++burst) {
    validation::History pre;
    for (auto& [k, v] : ds.to_vector()) {
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
      ThreadSession s = ds.session(t);
      Xoshiro256 rng(burst * 17 + t + 1);
      RangeSnapshot out;
      for (int i = 0; i < 4; ++i) {
        const KeyT k = 1 + static_cast<KeyT>(rng.next_range(3));
        const uint64_t t0 = validation::now_ns();
        switch (rng.next_range(4)) {
          case 0: {
            const bool r = s.insert(k, burst * 10 + i);
            logs[t].record_point(validation::OpKind::kInsert, k,
                                 burst * 10 + i, r, t0,
                                 validation::now_ns());
            break;
          }
          case 1: {
            const bool r = s.remove(k);
            logs[t].record_point(validation::OpKind::kRemove, k, 0, r, t0,
                                 validation::now_ns());
            break;
          }
          case 2: {
            ValT v = 0;
            const bool r = s.contains(k, &v);
            logs[t].record_point(validation::OpKind::kContains, k, r ? v : 0,
                                 r, t0, validation::now_ns());
            break;
          }
          default: {
            s.range_query(1, 3, out);
            // Snapshot form: keeps the rq_ts stamp in the audited Op.
            logs[t].record_rq(out, t0, validation::now_ns());
            break;
          }
        }
      }
    });
    validation::History h = validation::merge(logs);
    h.insert(h.end(), pre.begin(), pre.end());
    // @ts-aware form: where the implementation reports snapshot timestamps
    // (Bundle and the EBR-RQ family), the witness must also order range
    // queries by their stamps; elsewhere it degrades to the plain check.
    auto verdict = validation::check_linearizable_with_ts(h);
    ASSERT_TRUE(verdict.linearizable)
        << GetParam() << " burst " << burst << ": " << verdict.message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, LinRqProperty,
    ::testing::ValuesIn(any_set_linearizable_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string n = info.param;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

// ---------------------------------------------------------------------------
// RelaxationSweep: relaxation-capable implementations x threshold T (the
// Fig. 5 knob), enumerated from the registry.
// ---------------------------------------------------------------------------

struct RelaxParam {
  std::string impl;
  uint64_t relax_t;
};

std::vector<RelaxParam> relaxation_sweep_params() {
  std::vector<RelaxParam> out;
  for (const auto& d : ImplRegistry::instance().descriptors())
    if (d.caps.relaxation)
      for (uint64_t t : {1, 2, 5, 50}) out.push_back({d.name, t});
  return out;
}

class RelaxationSweep : public ::testing::TestWithParam<RelaxParam> {
 protected:
  Set ds = Set::create(GetParam().impl,
                       SetOptions{.relax_threshold = GetParam().relax_t});
};

TEST_P(RelaxationSweep, QuiescentRangeQueriesStayExact) {
  // Relaxation postpones globalTs advances; once updates are quiescent the
  // newest entry of every bundle satisfies any snapshot, so range queries
  // must still be exact — for every T including "never advance"-like ones.
  std::map<KeyT, ValT> model;
  ThreadSession s = ds.session(0);
  Xoshiro256 rng(GetParam().relax_t * 7 + 1);
  for (int i = 0; i < 800; ++i) {
    const KeyT k = 1 + static_cast<KeyT>(rng.next_range(300));
    if (rng.next_range(3) == 0) {
      s.remove(k);
      model.erase(k);
    } else if (s.insert(k, k + 5)) {
      model.emplace(k, k + 5);
    }
  }
  RangeSnapshot out;
  s.range_query(1, 300, out);
  std::vector<std::pair<KeyT, ValT>> expect(model.begin(), model.end());
  EXPECT_EQ(out, expect);
  EXPECT_TRUE(ds.check_invariants());
}

TEST_P(RelaxationSweep, PointOpsRemainLinearizableUnderRelaxation) {
  // Fig. 5 trades only RQ freshness; insert/remove/contains never consult
  // timestamps, so their histories must stay linearizable for any T.
  // Audited per key (point ops on distinct keys commute).
  std::vector<validation::ThreadLog> logs;
  for (int t = 0; t < 3; ++t) logs.emplace_back(t);
  testutil::run_threads(3, [&](int t) {
    ThreadSession s = ds.session(t);
    Xoshiro256 rng(GetParam().relax_t * 13 + t);
    for (int i = 0; i < 400; ++i) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(8));
      const uint64_t t0 = validation::now_ns();
      switch (rng.next_range(3)) {
        case 0: {
          const bool r = s.insert(k, t * 1000 + i);
          logs[t].record_point(validation::OpKind::kInsert, k, t * 1000 + i,
                               r, t0, validation::now_ns());
          break;
        }
        case 1: {
          const bool r = s.remove(k);
          logs[t].record_point(validation::OpKind::kRemove, k, 0, r, t0,
                               validation::now_ns());
          break;
        }
        default: {
          // Presence-only read: record without the value so per-key
          // auditing doesn't need to thread written values through.
          const bool r = s.contains(k, nullptr);
          logs[t].record_point(validation::OpKind::kContains, k, 0, r, t0,
                               validation::now_ns());
          break;
        }
      }
    }
  });
  validation::History h = validation::merge(logs);
  // Strip values from the audit (concurrent inserts of the same key with
  // different values make value-tracking ambiguous for presence checks).
  for (auto& op : h) op.val = 0;
  auto verdict = validation::check_per_key(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.message;
}

INSTANTIATE_TEST_SUITE_P(
    RegistryTimesT, RelaxationSweep,
    ::testing::ValuesIn(relaxation_sweep_params()),
    [](const ::testing::TestParamInfo<RelaxParam>& info) {
      std::string n = info.param.impl;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n + "_T" + std::to_string(info.param.relax_t);
    });

// ---------------------------------------------------------------------------
// ReclaimSweep: reclamation-capable implementations x reclamation on/off
// (the Table 1 knob), enumerated from the registry. The assertions check
// snapshot consistency, so the filter also requires linearizable_rq — the
// Unsafe baselines can reclaim but exist to violate exactly this.
// ---------------------------------------------------------------------------

struct ReclaimParam {
  std::string impl;
  bool reclaim;
};

std::vector<ReclaimParam> reclaim_sweep_params() {
  std::vector<ReclaimParam> out;
  for (const auto& d : ImplRegistry::instance().descriptors())
    if (d.caps.reclamation && d.caps.linearizable_rq)
      for (bool r : {false, true}) out.push_back({d.name, r});
  return out;
}

class ReclaimSweep : public ::testing::TestWithParam<ReclaimParam> {
 protected:
  Set ds = Set::create(GetParam().impl,
                       SetOptions{.reclaim = GetParam().reclaim});
};

TEST_P(ReclaimSweep, ChurnWithRangeQueriesKeepsSnapshotsConsistent) {
  constexpr KeyT kSpace = 500;
  {
    ThreadSession s = ds.session(0);
    for (KeyT k = 1; k <= kSpace; k += 2) s.insert(k, k);
  }
  std::atomic<bool> stop{false};
  std::atomic<long> failures{0};
  std::thread rq_thread([&] {
    ThreadSession s = ds.session(3);
    RangeSnapshot out;
    Xoshiro256 rng(23);
    while (!stop.load(std::memory_order_acquire)) {
      const KeyT lo = 1 + static_cast<KeyT>(rng.next_range(kSpace - 50));
      s.range_query(lo, lo + 50, out);
      if (!testutil::sorted_in_range(out, lo, lo + 50)) failures.fetch_add(1);
    }
  });
  testutil::run_threads(2, [&](int tid) {
    ThreadSession s = ds.session(tid);
    Xoshiro256 rng(tid + 41);
    for (int i = 0; i < 3000; ++i) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(kSpace));
      if (rng.next_range(2) == 0)
        s.insert(k, k);
      else
        s.remove(k);
    }
  });
  stop = true;
  rq_thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(ds.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    RegistryTimesReclaim, ReclaimSweep,
    ::testing::ValuesIn(reclaim_sweep_params()),
    [](const ::testing::TestParamInfo<ReclaimParam>& info) {
      std::string n = info.param.impl;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n + (info.param.reclaim ? "_reclaim" : "_leaky");
    });

// ---------------------------------------------------------------------------
// Minimality (the paper's core claim #2): a bundled range query returns
// exactly its snapshot's nodes inside the range — never a second version
// of a key, never a node outside [lo, hi] — whatever the concurrent
// updates. The churn touches only even keys, so every odd key is in every
// snapshot and must come back exactly once, in key order.
// ---------------------------------------------------------------------------

template <typename DS>
void expect_rq_minimality_under_churn() {
  DS ds;
  constexpr KeyT kSpace = 2000;
  for (KeyT k = 1; k <= kSpace; k += 2) ds.insert(0, k, k);
  std::atomic<bool> stop{false};
  std::atomic<long> violations{0};
  std::atomic<uint64_t> rqs_done{0};
  std::thread rq_thread([&] {
    std::vector<std::pair<KeyT, ValT>> out;
    Xoshiro256 rng(77);
    while (!stop.load(std::memory_order_acquire)) {
      const KeyT lo = 1 + static_cast<KeyT>(rng.next_range(kSpace - 200));
      const KeyT hi = lo + 200;
      ds.range_query(3, lo, hi, out);
      KeyT prev = lo - 1;
      KeyT odd = lo | 1;  // the next odd key the result must hold
      bool ok = true;
      for (const auto& [k, v] : out) {
        if (k <= prev || k > hi || v != k) ok = false;
        if (k % 2 != 0) {
          if (k != odd) ok = false;
          odd = k + 2;
        }
        prev = k;
      }
      if (!ok || odd <= hi) violations.fetch_add(1);
      rqs_done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  testutil::run_threads(2, [&](int tid) {
    Xoshiro256 rng(tid + 61);
    for (int i = 0; i < 6000; ++i) {
      const KeyT k = 2 * (1 + static_cast<KeyT>(rng.next_range(kSpace / 2)));
      if (rng.next_range(2) == 0)
        ds.insert(tid, k, k);
      else
        ds.remove(tid, k);
    }
  });
  stop = true;
  rq_thread.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(rqs_done.load(), 0u);
}

TEST(RqMinimality, ListVisitsExactlyTheSnapshotInRange) {
  expect_rq_minimality_under_churn<BundleListSet>();
}

TEST(RqMinimality, SkipListVisitsExactlyTheSnapshotInRange) {
  expect_rq_minimality_under_churn<BundleSkipListSet>();
}

// ---------------------------------------------------------------------------
// Snapshot timestamps under concurrency: monotone per querying thread and
// consistent with the structure's global clock.
// ---------------------------------------------------------------------------

TEST(SnapshotTimestamp, MonotoneUnderConcurrentUpdates) {
  Set ds = Set::create("Bundle-skiplist");
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    ThreadSession s = ds.session(1);
    Xoshiro256 rng(9);
    while (!stop.load(std::memory_order_acquire)) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(500));
      if (rng.next_range(2) == 0)
        s.insert(k, k);
      else
        s.remove(k);
    }
  });
  ThreadSession s = ds.session(0);
  RangeSnapshot snap;
  timestamp_t prev = 0;
  for (int i = 0; i < 2000; ++i) {
    s.range_query(1, 500, snap);
    ASSERT_TRUE(snap.has_timestamp());
    ASSERT_GE(snap.timestamp(), prev) << "snapshot time ran backwards";
    prev = snap.timestamp();
  }
  stop = true;
  churn.join();
}

}  // namespace
}  // namespace bref
