// Sequential set semantics, identical across every implementation
// (typed suite over all 17 technique x structure combinations), plus a
// randomized model check against std::map. Exercises the session API:
// every operation goes through a TypedSession instead of raw tids, and
// range queries return RangeSnapshots.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "test_util.h"

namespace bref {
namespace {

template <typename DS>
class SetSemantics : public ::testing::Test {
 protected:
  DS ds;
  TypedSession<DS> s{ds, 0};
  RangeSnapshot out;
};

TYPED_TEST_SUITE(SetSemantics, testutil::AllSetTypes);

TYPED_TEST(SetSemantics, EmptyInitially) {
  EXPECT_EQ(this->ds.size_slow(), 0u);
  EXPECT_FALSE(this->s.contains(42));
  EXPECT_EQ(this->s.range_query(0, 1000, this->out), 0u);
}

TYPED_TEST(SetSemantics, InsertThenContains) {
  EXPECT_TRUE(this->s.insert(5, 50));
  EXPECT_TRUE(this->s.contains(5));
  EXPECT_FALSE(this->s.contains(4));
  EXPECT_FALSE(this->s.contains(6));
}

TYPED_TEST(SetSemantics, DuplicateInsertFails) {
  EXPECT_TRUE(this->s.insert(5, 50));
  EXPECT_FALSE(this->s.insert(5, 51));
  ValT v = 0;
  EXPECT_TRUE(this->s.contains(5, &v));
  EXPECT_EQ(v, 50);  // original value retained
}

TYPED_TEST(SetSemantics, RemovePresent) {
  this->s.insert(5, 50);
  EXPECT_TRUE(this->s.remove(5));
  EXPECT_FALSE(this->s.contains(5));
  EXPECT_EQ(this->ds.size_slow(), 0u);
}

TYPED_TEST(SetSemantics, RemoveAbsentFails) {
  EXPECT_FALSE(this->s.remove(5));
  this->s.insert(5, 50);
  EXPECT_FALSE(this->s.remove(6));
  EXPECT_TRUE(this->s.contains(5));
}

TYPED_TEST(SetSemantics, ReinsertAfterRemove) {
  EXPECT_TRUE(this->s.insert(5, 50));
  EXPECT_TRUE(this->s.remove(5));
  EXPECT_TRUE(this->s.insert(5, 51));
  EXPECT_EQ(this->s.get(5), std::optional<ValT>(51));
}

TYPED_TEST(SetSemantics, ValueOutParameter) {
  this->s.insert(7, 700);
  ValT v = 0;
  EXPECT_TRUE(this->s.contains(7, &v));
  EXPECT_EQ(v, 700);
  v = 0;
  EXPECT_FALSE(this->s.contains(8, &v));
  EXPECT_EQ(v, 0);  // untouched on miss
  EXPECT_EQ(this->s.get(8), std::nullopt);
}

TYPED_TEST(SetSemantics, RangeQueryInclusiveBounds) {
  for (KeyT k : {10, 20, 30, 40, 50}) this->s.insert(k, k * 10);
  EXPECT_EQ(this->s.range_query(20, 40, this->out), 3u);
  EXPECT_TRUE(testutil::sorted_in_range(this->out, 20, 40));
  EXPECT_EQ(this->out.lo(), 20);
  EXPECT_EQ(this->out.hi(), 40);
  EXPECT_EQ(this->out.front().first, 20);
  EXPECT_EQ(this->out.back().first, 40);
  EXPECT_EQ(this->out[1], (std::pair<KeyT, ValT>{30, 300}));
}

TYPED_TEST(SetSemantics, RangeQuerySingleKey) {
  for (KeyT k : {10, 20, 30}) this->s.insert(k, k);
  EXPECT_EQ(this->s.range_query(20, 20, this->out), 1u);
  EXPECT_EQ(this->out[0].first, 20);
  EXPECT_EQ(this->s.range_query(15, 15, this->out), 0u);
}

TYPED_TEST(SetSemantics, RangeQueryEmptyWindow) {
  this->s.insert(10, 1);
  this->s.insert(100, 2);
  EXPECT_EQ(this->s.range_query(11, 99, this->out), 0u);
}

TYPED_TEST(SetSemantics, RangeQueryInvertedBoundsIsEmpty) {
  this->s.insert(10, 1);
  EXPECT_EQ(this->s.range_query(50, 40, this->out), 0u);
}

TYPED_TEST(SetSemantics, RangeQueryFullSpan) {
  for (KeyT k = 1; k <= 64; ++k) this->s.insert(k, k);
  EXPECT_EQ(this->s.range_query(1, 64, this->out), 64u);
  EXPECT_TRUE(testutil::sorted_in_range(this->out, 1, 64));
}

TYPED_TEST(SetSemantics, RangeQueryAfterRemovals) {
  for (KeyT k = 1; k <= 20; ++k) this->s.insert(k, k);
  for (KeyT k = 2; k <= 20; k += 2) this->s.remove(k);
  EXPECT_EQ(this->s.range_query(1, 20, this->out), 10u);
  for (const auto& [k, v] : this->out) EXPECT_EQ(k % 2, 1);
}

TYPED_TEST(SetSemantics, SnapshotTimestampMatchesCapability) {
  // Techniques that fix a snapshot timestamp (Bundle, the EBR-RQ family)
  // stamp the logical time their snapshot fixed; everything else reports
  // no timestamp. The flag is part of the registry's derived capabilities,
  // so the two must agree.
  for (KeyT k : {10, 20, 30}) this->s.insert(k, k);
  this->s.range_query(1, 100, this->out);
  EXPECT_EQ(this->out.has_timestamp(), caps_of<TypeParam>().rq_timestamp);
  if (this->out.has_timestamp()) {
    if constexpr (detail::accepts_relaxation_v<TypeParam>) {
      // Bundle's clock advances per update: three updates under T=1
      // advanced it to >= 3 before the snapshot was taken.
      EXPECT_GE(this->out.timestamp(), 3u);
    } else {
      // The EBR-RQ counter advances per *query* (updates only read it), so
      // the first query fixes the initial stamp; require a live one.
      EXPECT_GT(this->out.timestamp(), 0u);
    }
    // A second query must never run the snapshot clock backwards.
    const timestamp_t first = this->out.timestamp();
    this->s.range_query(1, 100, this->out);
    ASSERT_TRUE(this->out.has_timestamp());
    EXPECT_GE(this->out.timestamp(), first);
  }
  // An inverted-bounds query is trivially empty and linearizes anywhere:
  // a stamping technique stamps "now", never below the query before it.
  const timestamp_t prev = this->out.timestamp();
  EXPECT_EQ(this->s.range_query(50, 40, this->out), 0u);
  EXPECT_EQ(this->out.has_timestamp(), caps_of<TypeParam>().rq_timestamp);
  if (this->out.has_timestamp()) {
    EXPECT_GE(this->out.timestamp(), prev);
  }
}

TYPED_TEST(SetSemantics, ToVectorSortedAndComplete) {
  // Insert in scrambled order.
  for (KeyT k : {33, 11, 77, 55, 22, 99, 44, 88, 66}) this->s.insert(k, k);
  auto v = this->ds.to_vector();
  ASSERT_EQ(v.size(), 9u);
  for (size_t i = 1; i < v.size(); ++i)
    EXPECT_LT(v[i - 1].first, v[i].first);
}

TYPED_TEST(SetSemantics, InvariantsHoldThroughMixedOps) {
  Xoshiro256 rng(2026);
  for (int i = 0; i < 500; ++i) {
    KeyT k = static_cast<KeyT>(rng.next_range(64)) + 1;
    if (rng.next_range(2) == 0)
      this->s.insert(k, k);
    else
      this->s.remove(k);
    if (i % 100 == 0) {
      EXPECT_TRUE(this->ds.check_invariants());
    }
  }
  EXPECT_TRUE(this->ds.check_invariants());
}

TYPED_TEST(SetSemantics, RandomOpsMatchStdMap) {
  std::map<KeyT, ValT> model;
  Xoshiro256 rng(7);
  for (int i = 0; i < 3000; ++i) {
    KeyT k = static_cast<KeyT>(rng.next_range(200)) + 1;
    switch (rng.next_range(4)) {
      case 0:
      case 1: {
        bool a = this->s.insert(k, k * 7);
        bool b = model.emplace(k, k * 7).second;
        ASSERT_EQ(a, b) << "insert(" << k << ") diverged at op " << i;
        break;
      }
      case 2: {
        bool a = this->s.remove(k);
        bool b = model.erase(k) > 0;
        ASSERT_EQ(a, b) << "remove(" << k << ") diverged at op " << i;
        break;
      }
      case 3: {
        bool a = this->s.contains(k);
        bool b = model.count(k) > 0;
        ASSERT_EQ(a, b) << "contains(" << k << ") diverged at op " << i;
        break;
      }
    }
  }
  EXPECT_TRUE(testutil::matches_model(this->ds, model));
}

TYPED_TEST(SetSemantics, RandomRangeQueriesMatchStdMap) {
  std::map<KeyT, ValT> model;
  Xoshiro256 rng(13);
  for (KeyT k = 1; k <= 300; ++k) {
    if (rng.next_range(2) == 0) {
      this->s.insert(k, k);
      model.emplace(k, k);
    }
  }
  for (int i = 0; i < 200; ++i) {
    KeyT lo = static_cast<KeyT>(rng.next_range(300)) + 1;
    KeyT hi = lo + static_cast<KeyT>(rng.next_range(60));
    this->s.range_query(lo, hi, this->out);
    std::vector<std::pair<KeyT, ValT>> expect;
    for (auto it = model.lower_bound(lo);
         it != model.end() && it->first <= hi; ++it)
      expect.emplace_back(it->first, it->second);
    ASSERT_EQ(this->out, expect) << "rq [" << lo << "," << hi << "]";
  }
}

TYPED_TEST(SetSemantics, LargeSequentialFill) {
  for (KeyT k = 1; k <= 2000; ++k) ASSERT_TRUE(this->s.insert(k, k));
  EXPECT_EQ(this->ds.size_slow(), 2000u);
  EXPECT_TRUE(this->ds.check_invariants());
  for (KeyT k = 1; k <= 2000; ++k) ASSERT_TRUE(this->s.remove(k));
  EXPECT_EQ(this->ds.size_slow(), 0u);
}

TYPED_TEST(SetSemantics, DescendingFillExercisesTreeShape) {
  for (KeyT k = 500; k >= 1; --k) ASSERT_TRUE(this->s.insert(k, k));
  EXPECT_EQ(this->ds.size_slow(), 500u);
  EXPECT_TRUE(this->ds.check_invariants());
  EXPECT_EQ(this->s.range_query(100, 199, this->out), 100u);
}

}  // namespace
}  // namespace bref
