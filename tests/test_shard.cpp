// ShardedSet + MaintenanceService tests (src/shard/).
//
// Pins down the shard layer's contracts:
//   * range partitioning is total over KeyT (clamping), routing keeps every
//     key in its shard, and quiescent results match a reference model;
//   * a coordinated cross-shard range query over bundled shards acquires
//     exactly ONE shared timestamp and returns a single-instant snapshot —
//     audited under 8-thread churn with the timestamp-aware Wing–Gong
//     checker (coordinated queries must linearize in @ts order);
//   * non-coordinated inner families degrade gracefully to a per-shard
//     merge that advertises (and stamps) nothing it cannot honor;
//   * the registry carries the Sharded-Bundle-* configurations with derived
//     capabilities, so they ride every capability-driven sweep;
//   * the MaintenanceService drives per-shard bundle pruning and the
//     EBR-RQ limbo drain without caller cooperation (the ROADMAP's
//     "nothing calls flush_limbo unprompted" item), survives start/stop
//     cycles under load, and backs off when idle;
//   * the bundled skip list's right-sized towers are never read past their
//     top under churn, both range-query paths and pruning (faults under
//     ASan otherwise);
//   * routed updates recycle their bundle entries and skip-list nodes to
//     the calling thread's pool slot, whichever shard a key routes to.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/set.h"
#include "core/entry_pool.h"
#include "ds/bundled/bundled_skiplist.h"
#include "shard/maintenance.h"
#include "test_util.h"
#include "validation/history.h"
#include "validation/wing_gong.h"

namespace bref {
namespace {

ShardOptions small_range(size_t shards, KeyT lo, KeyT hi,
                         SetOptions inner = {}) {
  ShardOptions so;
  so.shards = shards;
  so.key_lo = lo;
  so.key_hi = hi;
  so.inner = inner;
  return so;
}

// ---------------------------------------------------------------------------
// Partitioning and routing.
// ---------------------------------------------------------------------------

TEST(ShardPartition, RoutingIsTotalAndOrderPreserving) {
  ShardedSet s("Bundle-list", small_range(4, 0, 100));
  // Uniform split of [0, 100] into 4: width 25.
  EXPECT_EQ(s.num_shards(), 4u);
  EXPECT_EQ(s.shard_index(0), 0u);
  EXPECT_EQ(s.shard_index(24), 0u);
  EXPECT_EQ(s.shard_index(25), 1u);
  EXPECT_EQ(s.shard_index(74), 2u);
  EXPECT_EQ(s.shard_index(75), 3u);
  EXPECT_EQ(s.shard_index(100), 3u);
  // Total over KeyT: out-of-range keys clamp to the edge shards.
  EXPECT_EQ(s.shard_index(-5000), 0u);
  EXPECT_EQ(s.shard_index(5000), 3u);
  // Order-preserving: shard index is monotone in the key.
  size_t prev = 0;
  for (KeyT k = -10; k <= 110; ++k) {
    const size_t idx = s.shard_index(k);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(ShardPartition, FullDomainDefaultSplitsAroundZero) {
  // The registry-created configuration partitions all of KeyT; keys near
  // zero land in a middle shard and the extremes clamp to the edges.
  Set s = Set::create("Sharded-Bundle-skiplist");
  auto& sharded = dynamic_cast<ShardedSet&>(s.impl());
  EXPECT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(sharded.shard_index(std::numeric_limits<KeyT>::min() + 1), 0u);
  EXPECT_EQ(sharded.shard_index(std::numeric_limits<KeyT>::max() - 1), 3u);
  EXPECT_EQ(sharded.shard_index(0), 2u);
}

TEST(ShardPartition, OpsMatchModelAndKeysStayInTheirShards) {
  ShardedSet s("Bundle-skiplist", small_range(4, 0, 400));
  std::map<KeyT, ValT> model;
  Xoshiro256 rng(71);
  ThreadSession sess(s, 0);
  for (int i = 0; i < 2000; ++i) {
    const KeyT k = 1 + static_cast<KeyT>(rng.next_range(399));
    switch (rng.next_range(3)) {
      case 0:
        EXPECT_EQ(sess.remove(k), model.erase(k) > 0);
        break;
      case 1: {
        const bool ok = sess.insert(k, k * 7);
        EXPECT_EQ(ok, model.emplace(k, k * 7).second);
        break;
      }
      default: {
        ValT v = 0;
        const auto it = model.find(k);
        EXPECT_EQ(sess.contains(k, &v), it != model.end());
        if (it != model.end()) EXPECT_EQ(v, it->second);
        break;
      }
    }
  }
  EXPECT_TRUE(testutil::matches_model(s, model));
  EXPECT_TRUE(s.check_invariants());  // includes partition discipline
  EXPECT_EQ(s.size_slow(), model.size());
  // Every shard holds only its own range (spot-check via shard()).
  for (size_t i = 0; i < s.num_shards(); ++i)
    for (const auto& [k, v] : s.shard(i).to_vector())
      EXPECT_EQ(s.shard_index(k), i);
}

TEST(ShardPartition, PerShardPoolsSupportPartitionAwareBulkLoad) {
  // One loader thread per shard, each driving its own shard directly
  // through that shard's SessionPool with only the keys it owns — the
  // bulk-load pattern; the routing invariant must hold afterwards.
  ShardedSet s("Bundle-list", small_range(4, 0, 400));
  testutil::run_threads(4, [&](int i) {
    ThreadSession sess = s.shard_pool(static_cast<size_t>(i)).session();
    for (KeyT k = 1; k <= 400; ++k)
      if (s.shard_index(k) == static_cast<size_t>(i)) sess.insert(k, k);
  });
  EXPECT_EQ(s.size_slow(), 400u);
  EXPECT_TRUE(s.check_invariants());
  ThreadSession q(s, 0);
  RangeSnapshot snap;
  EXPECT_EQ(q.range_query(1, 400, snap), 400u);
  EXPECT_TRUE(snap.has_timestamp());
}

// ---------------------------------------------------------------------------
// Registry surface.
// ---------------------------------------------------------------------------

TEST(ShardRegistry, ShardedBundleConfigurationsAreRegisteredWithDerivedCaps) {
  for (const char* structure : {"list", "skiplist", "citrus"}) {
    const std::string name = std::string("Sharded-Bundle-") + structure;
    SCOPED_TRACE(name);
    ImplDescriptor d;
    ASSERT_TRUE(ImplRegistry::instance().find(name, &d));
    EXPECT_FALSE(d.builtin);  // extension, not one of the paper's 18
    EXPECT_TRUE(d.caps.coordinated_rq);
    EXPECT_TRUE(d.caps.linearizable_rq);
    EXPECT_TRUE(d.caps.rq_timestamp);
    EXPECT_TRUE(d.caps.relaxation);   // forwarded to every shard
    EXPECT_TRUE(d.caps.reclamation);  // forwarded to every shard
    Set s = Set::create(name);
    EXPECT_EQ(s.name(), name);
    EXPECT_STREQ(s.technique(), "Sharded");
    EXPECT_EQ(std::string("Bundle-") + structure, s.structure());
    // The descriptor's compile-time caps (builtin_shards.h sharded_caps)
    // and the instance's runtime derivation (ShardedSet::capabilities)
    // are two implementations of one rule; pin them together so neither
    // can drift when a capability field or the coordination gate changes.
    const Capabilities inst = s.capabilities();
    EXPECT_EQ(inst.linearizable_rq, d.caps.linearizable_rq);
    EXPECT_EQ(inst.relaxation, d.caps.relaxation);
    EXPECT_EQ(inst.reclamation, d.caps.reclamation);
    EXPECT_EQ(inst.rq_timestamp, d.caps.rq_timestamp);
    EXPECT_EQ(inst.coordinated_rq, d.caps.coordinated_rq);
    auto sess = s.session(0);
    EXPECT_TRUE(sess.insert(5, 50));
    EXPECT_EQ(sess.range_query(0, 10).size(), 1u);
  }
  // Knob forwarding goes down the validated registry path per shard.
  Set relaxed =
      Set::create("Sharded-Bundle-list", SetOptions{.relax_threshold = 5});
  EXPECT_TRUE(relaxed.capabilities().relaxation);
}

// ---------------------------------------------------------------------------
// Coordinated cross-shard range queries.
// ---------------------------------------------------------------------------

TEST(CoordinatedRq, CrossShardQueryAcquiresExactlyOneTimestamp) {
  ShardedSet s("Bundle-list", small_range(4, 0, 100));
  ASSERT_TRUE(s.coordinated());
  ThreadSession sess(s, 0);
  for (KeyT k = 1; k <= 99; ++k) sess.insert(k, k);
  RangeSnapshot snap;
  constexpr int kQueries = 25;
  for (int i = 0; i < kQueries; ++i) {
    // Spans all four shards -> the coordinated path.
    ASSERT_EQ(sess.range_query(1, 99, snap), 99u);
    ASSERT_TRUE(snap.has_timestamp());
    // 99 inserts advanced the shared clock to 99; read-only queries must
    // observe exactly that instant, never a per-shard composite.
    EXPECT_EQ(snap.timestamp(), 99u);
  }
  const ShardedSetStats st = s.stats();
  EXPECT_EQ(st.coordinated_rqs, static_cast<uint64_t>(kQueries));
  // THE acceptance property: one clock acquisition per coordinated query,
  // not one per overlapping shard.
  EXPECT_EQ(st.timestamps_acquired, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(st.fallback_rqs, 0u);
  // Full-span queries pin (and announce in) every shard exactly once.
  EXPECT_EQ(st.coordinated_shards_pinned, static_cast<uint64_t>(4 * kQueries));
}

TEST(CoordinatedRq, PinElisionPaysCoordinationOnlyForOverlappingShards) {
  // ISSUE 9 pin-elision: shards provably missing the query range pay no
  // announce store and no epoch pin. [0,100] over 4 shards -> width 25.
  ShardedSet s("Bundle-list", small_range(4, 0, 100));
  ThreadSession sess(s, 0);
  for (KeyT k = 1; k <= 99; ++k) sess.insert(k, k);
  RangeSnapshot snap;
  // Straddles exactly the shard 1 / shard 2 boundary: 2 of 4 shards.
  EXPECT_EQ(sess.range_query(30, 60, snap), 31u);
  ShardedSetStats st = s.stats();
  EXPECT_EQ(st.coordinated_rqs, 1u);
  EXPECT_EQ(st.coordinated_shards_pinned, 2u)
      << "shards outside [lo,hi] must not be pinned or announced in";
  // Three shards: [30, 80] covers indices 1..3.
  EXPECT_EQ(sess.range_query(30, 80, snap), 51u);
  st = s.stats();
  EXPECT_EQ(st.coordinated_rqs, 2u);
  EXPECT_EQ(st.coordinated_shards_pinned, 5u);
}

TEST(CoordinatedRq, SingleShardFastPathDelegatesWholeQuery) {
  ShardedSet s("Bundle-skiplist", small_range(4, 0, 100));
  ThreadSession sess(s, 0);
  for (KeyT k = 1; k <= 99; ++k) sess.insert(k, k);
  RangeSnapshot snap;
  EXPECT_EQ(sess.range_query(1, 20, snap), 20u);  // inside shard 0
  EXPECT_TRUE(snap.has_timestamp());              // shared-clock stamp
  const ShardedSetStats st = s.stats();
  EXPECT_EQ(st.single_shard_rqs, 1u);
  EXPECT_EQ(st.coordinated_rqs, 0u);
  // The ISSUE 9 zero-coordination assertion: a single-shard-resident RQ
  // devolves to exactly the unsharded fast path — no shared-clock
  // acquisition, no cross-shard announce, no extra epoch pins.
  EXPECT_EQ(st.timestamps_acquired, 0u);
  EXPECT_EQ(st.coordinated_shards_pinned, 0u);
}

TEST(CoordinatedRq, TimestampsOrderSnapshotsAgainstUpdatesAcrossShards) {
  Set s = Set::create("Sharded-Bundle-citrus");
  auto sess = s.session(0);
  RangeSnapshot a, b;
  sess.insert(-1000, 1);  // distinct shards under the full-domain split
  sess.insert(1000, 2);
  sess.range_query(-5000, 5000, a);
  sess.insert(2000, 3);  // advances the one shared clock
  sess.range_query(-5000, 5000, b);
  ASSERT_TRUE(a.has_timestamp());
  ASSERT_TRUE(b.has_timestamp());
  EXPECT_LT(a.timestamp(), b.timestamp());
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
}

// The acceptance audit: a coordinated cross-shard range query over 4
// bundled shards, its RangeSnapshot::timestamp()-stamped histories checked
// with the timestamp-aware Wing–Gong search under 8-thread churn.
TEST(CoordinatedRq, ChurnHistoriesPassTimestampedWingGongAudit) {
  constexpr int kThreads = 8;
  ShardedSet ds("Bundle-list", small_range(4, 0, 8));
  ASSERT_TRUE(ds.coordinated());
  for (int burst = 0; burst < 12; ++burst) {
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
    for (int t = 0; t < kThreads; ++t) logs.emplace_back(t);
    testutil::run_threads(kThreads, [&](int t) {
      ThreadSession s(ds, t);
      Xoshiro256 rng(burst * 131 + t + 1);
      RangeSnapshot out;
      for (int i = 0; i < 3; ++i) {
        // Keys 1..7 spread over all four shards (width 2).
        const KeyT k = 1 + static_cast<KeyT>(rng.next_range(7));
        const uint64_t t0 = validation::now_ns();
        switch (rng.next_range(4)) {
          case 0: {
            const bool r = s.insert(k, burst * 100 + t * 10 + i);
            logs[t].record_point(validation::OpKind::kInsert, k,
                                 burst * 100 + t * 10 + i, r, t0,
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
            // Spans every shard -> coordinated single-timestamp snapshot.
            s.range_query(1, 8, out);
            logs[t].record_rq(out, t0, validation::now_ns());
            break;
          }
        }
      }
    });
    validation::History h = validation::merge(logs);
    h.insert(h.end(), pre.begin(), pre.end());
    // The stamped queries must linearize in @ts order on top of plain
    // linearizability — one shared clock makes the stamps comparable.
    auto verdict = validation::check_linearizable_with_ts(h);
    ASSERT_TRUE(verdict.linearizable)
        << "burst " << burst << ": " << verdict.message;
  }
  // The audit must actually have exercised the coordinated path.
  EXPECT_GT(ds.stats().coordinated_rqs, 0u);
  EXPECT_EQ(ds.stats().fallback_rqs, 0u);
  EXPECT_EQ(ds.stats().timestamps_acquired, ds.stats().coordinated_rqs);
}

// The ISSUE 9 audit variant: 8-thread churn whose range queries mix all
// three routing classes — single-shard (zero-coordination fast path),
// partial-span (batched announce over a pin-elided subset), and full-span.
// Every stamped snapshot, regardless of how many shards coordinated, must
// linearize in @ts order on the one shared clock.
TEST(CoordinatedRq, MixedSpanChurnAuditExercisesBatchedAnnounceAndElision) {
  constexpr int kThreads = 8;
  ShardedSet ds("Bundle-list", small_range(4, 0, 8));
  ASSERT_TRUE(ds.coordinated());
  for (int burst = 0; burst < 10; ++burst) {
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
    for (int t = 0; t < kThreads; ++t) logs.emplace_back(t);
    testutil::run_threads(kThreads, [&](int t) {
      ThreadSession s(ds, t);
      Xoshiro256 rng(burst * 977 + t + 1);
      RangeSnapshot out;
      for (int i = 0; i < 3; ++i) {
        const KeyT k = 1 + static_cast<KeyT>(rng.next_range(7));
        const uint64_t t0 = validation::now_ns();
        switch (rng.next_range(5)) {
          case 0: {
            const bool r = s.insert(k, burst * 100 + t * 10 + i);
            logs[t].record_point(validation::OpKind::kInsert, k,
                                 burst * 100 + t * 10 + i, r, t0,
                                 validation::now_ns());
            break;
          }
          case 1: {
            const bool r = s.remove(k);
            logs[t].record_point(validation::OpKind::kRemove, k, 0, r, t0,
                                 validation::now_ns());
            break;
          }
          case 2:  // keys 0-1 live in shard 0 -> single-shard fast path
            s.range_query(0, 1, out);
            logs[t].record_rq(out, t0, validation::now_ns());
            break;
          case 3:  // keys 2-5 span shards 1-2 -> elided batched announce
            s.range_query(2, 5, out);
            logs[t].record_rq(out, t0, validation::now_ns());
            break;
          default:  // full span -> all four shards coordinate
            s.range_query(1, 8, out);
            logs[t].record_rq(out, t0, validation::now_ns());
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
  const ShardedSetStats st = ds.stats();
  EXPECT_GT(st.single_shard_rqs, 0u);
  EXPECT_GT(st.coordinated_rqs, 0u);
  EXPECT_EQ(st.fallback_rqs, 0u);
  EXPECT_EQ(st.timestamps_acquired, st.coordinated_rqs);
  // Elision engaged: strictly fewer pins than coordinated_rqs * nshards
  // (the 2-shard spans), never fewer than 2 per coordinated query.
  EXPECT_LT(st.coordinated_shards_pinned, 4 * st.coordinated_rqs);
  EXPECT_GE(st.coordinated_shards_pinned, 2 * st.coordinated_rqs);
}

// ---------------------------------------------------------------------------
// Snapshot: the protocol's one implementation, collected whole or sliced.
// ---------------------------------------------------------------------------

using Items = std::vector<std::pair<KeyT, ValT>>;

/// [lo, hi] from one fresh Snapshot, collected in slices of `max_keys`
/// keys of key space (0 = one call); `calls` counts the collect() calls.
Items collect_sliced(ShardedSet& s, int tid, KeyT lo, KeyT hi,
                     size_t max_keys, size_t* calls = nullptr) {
  ShardedSet::Snapshot snap(s, tid, lo, hi);
  Items out;
  size_t n = 1;
  while (!snap.collect(max_keys, out)) ++n;
  if (calls != nullptr) *calls = n;
  return out;
}

TEST(Snapshot, SlicedCollectionEqualsOneCallQuiescent) {
  ShardedSet s("Bundle-skiplist", small_range(4, 0, 400));
  ASSERT_TRUE(s.coordinated());
  ThreadSession sess(s, 0);
  for (KeyT k = 1; k < 400; k += 3) sess.insert(k, k * 10);
  const std::pair<KeyT, KeyT> spans[] = {
      {0, 400}, {0, 399}, {30, 60}, {99, 101}, {5, 5}, {-50, 1000}};
  for (const auto& [lo, hi] : spans) {
    const Items whole = collect_sliced(s, 1, lo, hi, 0);
    Items rq;
    s.range_query(1, lo, hi, rq);
    EXPECT_EQ(whole, rq) << "[" << lo << ", " << hi << "]";
    for (size_t keys : {1, 7, 4096})
      EXPECT_EQ(collect_sliced(s, 1, lo, hi, keys), whole)
          << "[" << lo << ", " << hi << "] in slices of " << keys;
  }
  // Slices are keys of key space, not keys returned: ceil(400 / 7).
  size_t calls = 0;
  collect_sliced(s, 1, 0, 399, 7, &calls);
  EXPECT_EQ(calls, 58u);
  collect_sliced(s, 1, 0, 399, 100, &calls);
  EXPECT_EQ(calls, 4u);
}

TEST(Snapshot, SlicedCollectionUnderChurnKeepsEveryStableKey) {
  // Odd keys are prefilled and never updated; two updaters churn the even
  // keys and maintenance prunes behind them. However the walk is sliced,
  // and whatever runs between slices, every result is ascending, inside
  // its bounds, and holds every odd key with its value.
  ShardedSet s("Bundle-skiplist",
               small_range(4, 0, 400, SetOptions{.reclaim = true}));
  {
    ThreadSession sess(s, 0);
    for (KeyT k = 1; k < 400; k += 2) sess.insert(k, k);
  }
  MaintenanceService svc(
      s, {.interval = std::chrono::milliseconds(0), .backlog_wake = 1});
  svc.start();
  std::atomic<bool> stop{false};
  std::vector<std::thread> updaters;
  for (int t = 0; t < 2; ++t) {
    updaters.emplace_back([&, t] {
      Xoshiro256 rng(91 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const KeyT k = 2 * static_cast<KeyT>(rng.next_range(200));
        if (rng.next_range(2) == 0)
          s.insert(t, k, k);
        else
          s.remove(t, k);
      }
    });
  }
  Xoshiro256 rng(7);
  for (int round = 0; round < 200; ++round) {
    const KeyT lo = static_cast<KeyT>(rng.next_range(300));
    const KeyT hi = lo + static_cast<KeyT>(rng.next_range(100));
    for (size_t keys : {1, 7, 4096}) {
      ShardedSet::Snapshot snap(s, 2, lo, hi);
      Items out;
      while (!snap.collect(keys, out)) std::this_thread::yield();
      ASSERT_TRUE(testutil::sorted_in_range(out, lo, hi));
      std::set<KeyT> seen;
      for (const auto& [k, v] : out) {
        EXPECT_EQ(v, k);
        seen.insert(k);
      }
      for (KeyT k = lo | 1; k <= hi; k += 2)
        ASSERT_TRUE(seen.count(k)) << "odd key " << k << " missing from ["
                                   << lo << ", " << hi << "] in slices of "
                                   << keys;
    }
  }
  stop = true;
  for (auto& t : updaters) t.join();
  svc.stop();
  EXPECT_TRUE(s.check_invariants());
}

TEST(Snapshot, SlicedSnapshotsCountOneClockReadAndNoPins) {
  ShardedSet s("Bundle-list", small_range(4, 0, 100));
  ThreadSession sess(s, 0);
  for (KeyT k = 1; k <= 99; ++k) sess.insert(k, k);
  EXPECT_EQ(collect_sliced(s, 1, 0, 100, 16).size(), 99u);
  ShardedSetStats st = s.stats();
  EXPECT_EQ(st.coordinated_rqs, 1u);
  EXPECT_EQ(st.timestamps_acquired, 1u);
  EXPECT_EQ(st.coordinated_shards_pinned, 0u);
  // An inline cross-shard query still adds its overlap: [30, 60] pins 2.
  RangeSnapshot snap;
  EXPECT_EQ(sess.range_query(30, 60, snap), 31u);
  st = s.stats();
  EXPECT_EQ(st.coordinated_rqs, 2u);
  EXPECT_EQ(st.timestamps_acquired, 2u);
  EXPECT_EQ(st.coordinated_shards_pinned, 2u);
}

TEST(Snapshot, ReleasesShardsAsTheWalkPassesAndTheRestWhenDropped) {
  // [0, 100] over 4 shards: width 25, so [30, 90] overlaps shards 1..3.
  ShardedSet s("Bundle-skiplist", small_range(4, 0, 100));
  auto announced = [&](size_t i) {
    return s.shard(i).rq_tracker_hook()->active_count();
  };
  Items out;
  {
    ShardedSet::Snapshot snap(s, 1, 30, 90);
    EXPECT_EQ(announced(0), 0);
    EXPECT_EQ(announced(1), 1);
    EXPECT_EQ(announced(2), 1);
    EXPECT_EQ(announced(3), 1);
    EXPECT_FALSE(snap.collect(25, out));  // [30, 54]: walks past shard 1
    EXPECT_EQ(announced(1), 0);
    EXPECT_EQ(announced(2), 1);
    EXPECT_EQ(announced(3), 1);
  }  // abandoned mid-walk
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(announced(i), 0) << "shard " << i;
}

// ---------------------------------------------------------------------------
// Fallback (non-coordinated inner families).
// ---------------------------------------------------------------------------

TEST(FallbackRq, NonCoordinatedFamilyMergesPerShardWithoutClaims) {
  // EBR-RQ reports timestamps but owns no shareable clock, so a sharded
  // set over it cannot coordinate: multi-shard queries merge per shard and
  // every cross-shard atomicity claim is dropped from the capabilities.
  ShardedSet s("EBR-RQ-list", small_range(4, 0, 100));
  EXPECT_FALSE(s.coordinated());
  const Capabilities caps = s.capabilities();
  EXPECT_FALSE(caps.coordinated_rq);
  EXPECT_FALSE(caps.linearizable_rq);
  EXPECT_FALSE(caps.rq_timestamp);
  ThreadSession sess(s, 0);
  for (KeyT k = 1; k <= 99; ++k) sess.insert(k, k * 2);
  RangeSnapshot snap;
  // Quiescent content is still exact, merged in key order.
  EXPECT_EQ(sess.range_query(1, 99, snap), 99u);
  EXPECT_FALSE(snap.has_timestamp());
  for (size_t i = 1; i < snap.size(); ++i)
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  // Single-shard delegation strips the inner stamp: per-shard clocks are
  // not comparable, so honoring rq_timestamp=false beats leaking one.
  EXPECT_EQ(sess.range_query(1, 20, snap), 20u);
  EXPECT_FALSE(snap.has_timestamp());
  const ShardedSetStats st = s.stats();
  EXPECT_EQ(st.fallback_rqs, 1u);
  EXPECT_EQ(st.single_shard_rqs, 1u);
  EXPECT_EQ(st.timestamps_acquired, 0u);
}

TEST(FallbackRq, OneShardAnswersExactlyAsItsInnerSet) {
  // One shard never merges, so nothing needs stripping: the set claims
  // and stamps what its inner set does (the server's unsharded path).
  ShardedSet s("EBR-RQ-list", small_range(1, 0, 100));
  EXPECT_FALSE(s.coordinated());
  const Capabilities caps = s.capabilities();
  const Capabilities inner = s.shard(0).capabilities();
  EXPECT_EQ(caps.linearizable_rq, inner.linearizable_rq);
  EXPECT_EQ(caps.rq_timestamp, inner.rq_timestamp);
  EXPECT_TRUE(caps.rq_timestamp);
  ThreadSession sess(s, 0);
  for (KeyT k = 1; k <= 99; ++k) sess.insert(k, k * 2);
  RangeSnapshot mine, theirs;
  EXPECT_EQ(sess.range_query(1, 99, mine), 99u);
  EXPECT_TRUE(mine.has_timestamp());
  // The empty interval too: whatever the inner set stamps, so does this.
  s.range_query(0, 50, 10, mine);
  s.shard(0).range_query(0, 50, 10, theirs);
  EXPECT_EQ(mine.items(), theirs.items());
  EXPECT_EQ(mine.timestamp(), theirs.timestamp());
  const ShardedSetStats st = s.stats();
  EXPECT_EQ(st.fallback_rqs, 0u);
  EXPECT_EQ(st.single_shard_rqs, 2u);
}

// ---------------------------------------------------------------------------
// MaintenanceService.
// ---------------------------------------------------------------------------

TEST(Maintenance, PerShardWorkersPruneBundlesUnderChurn) {
  ShardedSet s("Bundle-list",
               small_range(4, 0, 400, SetOptions{.reclaim = true}));
  MaintenanceService svc(s, MaintenanceOptions{
                                .interval = std::chrono::milliseconds(1)});
  EXPECT_EQ(svc.workers(), 4u);  // one per shard
  EXPECT_FALSE(svc.running());
  svc.start();
  EXPECT_TRUE(svc.running());
  // Churn on pinned ids 0..3 (the workers occupy dedicated top slots).
  testutil::run_threads(4, [&](int tid) {
    ThreadSession sess(s, tid);
    Xoshiro256 rng(17 + tid);
    RangeSnapshot out;
    for (int i = 0; i < 4000; ++i) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(399));
      if (rng.next_range(4) == 0)
        sess.range_query(k, k + 30, out);
      else if (rng.next_range(2) == 0)
        sess.insert(k, k);
      else
        sess.remove(k);
    }
  });
  // Give the service one more cadence to reconcile the tail, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  svc.stop();
  EXPECT_FALSE(svc.running());
  uint64_t total_pruned = 0;
  for (size_t i = 0; i < svc.workers(); ++i) {
    const ShardMaintenanceStats st = svc.stats(i);
    EXPECT_GT(st.passes, 0u) << "worker " << i << " never ran";
    total_pruned += st.bundle_entries_pruned;
  }
  EXPECT_GT(total_pruned, 0u) << "churn must leave prunable bundle entries";
  EXPECT_TRUE(s.check_invariants());
  // Restartable: a second cycle under load works.
  svc.start();
  testutil::run_threads(2, [&](int tid) {
    ThreadSession sess(s, tid);
    for (KeyT k = 1; k <= 200; ++k) {
      sess.insert(k, k);
      sess.remove(k);
    }
  });
  svc.stop();
  EXPECT_GT(svc.total().passes, 4u);
}

TEST(Maintenance, LimboStaysBoundedWithoutCallerCooperation) {
  // The ROADMAP item this service exists for: EBR-RQ strands up to
  // kPruneEvery-1 limbo nodes per quiet thread forever unless someone
  // calls flush_limbo — and before this service, nothing did unprompted.
  ShardedSet s("EBR-RQ-list", small_range(4, 0, 400));
  MaintenanceService svc(s, MaintenanceOptions{
                                .interval = std::chrono::milliseconds(1)});
  svc.start();
  testutil::run_threads(4, [&](int tid) {
    ThreadSession sess(s, tid);
    Xoshiro256 rng(41 + tid);
    for (int i = 0; i < 3000; ++i) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(399));
      if (rng.next_range(2) == 0)
        sess.insert(k, k);
      else
        sess.remove(k);  // removed nodes park in the provider's limbo
    }
  });
  // Workers are quiescent and never flushed; the service alone must drain
  // the stranded tails. Poll with a generous deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (s.maintenance_backlog() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  svc.stop();
  EXPECT_EQ(s.maintenance_backlog(), 0u)
      << "stranded limbo must be drained without caller flushes";
  EXPECT_GT(svc.total().limbo_flushed, 0u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(Maintenance, RegistryTidsComposeWithPooledSessions) {
  // Application deployment shape: workload threads AND maintenance workers
  // all draw ids from the global registry (no pinned ids anywhere) — the
  // workers' tracked top-of-range ids can never collide with pooled ones.
  Set s = Set::create("Sharded-Bundle-skiplist", SetOptions{.reclaim = true});
  auto& sharded = dynamic_cast<ShardedSet&>(s.impl());
  MaintenanceService svc(
      sharded, MaintenanceOptions{.interval = std::chrono::milliseconds(1)});
  svc.start();
  testutil::run_pooled(s.impl(), 4, [&](ThreadSession& sess) {
    Xoshiro256 rng(7 + sess.tid());
    for (int i = 0; i < 1500; ++i) {
      const KeyT k = static_cast<KeyT>(rng.next_range(1000)) - 500;
      if (rng.next_range(2) == 0)
        sess.insert(k, k);
      else
        sess.remove(k);
    }
  });
  // The churn can outrun the first 1ms cadence; let the service take at
  // least one pass before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  svc.stop();
  EXPECT_GT(svc.total().passes, 0u);
  EXPECT_TRUE(s.check_invariants());
}

TEST(Maintenance, AdaptiveRateBacksOffWhenIdle) {
  ShardedSet s("Bundle-list",
               small_range(2, 0, 100, SetOptions{.reclaim = true}));
  MaintenanceService svc(
      s, MaintenanceOptions{.interval = std::chrono::milliseconds(1),
                            .max_interval = std::chrono::milliseconds(8),
                            .adaptive = true});
  svc.start();
  // Nothing to do: passes must back off rather than spin at base rate.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  svc.stop();
  EXPECT_GT(svc.total().idle_backoffs, 0u);
}

TEST(Maintenance, BacklogWakeBoundsLimboHardWithoutPolling) {
  // ISSUE 9 hard-bound regression: interval polling disabled (interval 0),
  // backlog-driven wakeups only. The EBR-RQ park path signals the service
  // at backlog_wake items, so total limbo must stay near the threshold —
  // far below the ~kPruneEvery-per-(thread, shard) saw-tooth the inline
  // cadence alone would allow (2 threads x 4 shards x 127 > 1000).
  constexpr size_t kWake = 16;
  constexpr size_t kHardBound = 256;  // threshold + generous scheduler slack
  ShardedSet s("EBR-RQ-list", small_range(4, 0, 400));
  MaintenanceService svc(
      s, MaintenanceOptions{.interval = std::chrono::milliseconds(0),
                            .backlog_wake = kWake});
  svc.start();
  std::atomic<size_t> max_backlog{0};
  testutil::run_threads(2, [&](int tid) {
    ThreadSession sess(s, tid);
    Xoshiro256 rng(59 + tid);
    for (int i = 0; i < 8000; ++i) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(399));
      if (rng.next_range(2) == 0)
        sess.insert(k, k);
      else
        sess.remove(k);  // parks in limbo -> bumps the signal
      if (i % 8 == 0) {
        const size_t b = s.maintenance_backlog();
        size_t prev = max_backlog.load(std::memory_order_relaxed);
        while (b > prev && !max_backlog.compare_exchange_weak(
                               prev, b, std::memory_order_relaxed)) {
        }
      }
      // On an oversubscribed runner, give the worker a chance to take the
      // CPU once signalled; real deployments have a core for it.
      if (i % 16 == 0) std::this_thread::yield();
    }
  });
  // The sub-threshold tail needs no wakeup; anything at/over the
  // threshold must drain without a flush from us.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (s.maintenance_backlog() > kWake + 64 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.stop();
  EXPECT_LE(max_backlog.load(), kHardBound)
      << "limbo outran the backlog signal";
  EXPECT_LE(s.maintenance_backlog(), kWake + 64);
  const ShardMaintenanceStats t = svc.total();
  EXPECT_GT(t.passes, 0u);
  EXPECT_GT(t.backlog_wakeups, 0u);
  EXPECT_EQ(t.timer_wakeups, 0u) << "interval 0 must never tick a timer";
  EXPECT_TRUE(s.check_invariants());
}

TEST(Maintenance, IntervalZeroIdleServiceTakesZeroPasses) {
  // The satellite-1 regression: interval == 0 used to skip the wait and
  // hot-loop maintain(); it now means "block until signalled", so an idle
  // service takes zero passes and zero wakeups of either kind.
  ShardedSet s("Bundle-list",
               small_range(2, 0, 100, SetOptions{.reclaim = true}));
  MaintenanceService svc(
      s, MaintenanceOptions{.interval = std::chrono::milliseconds(0),
                            .backlog_wake = 8});
  svc.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  svc.stop();
  const ShardMaintenanceStats t = svc.total();
  EXPECT_EQ(t.passes, 0u) << "idle interval-0 worker must not spin";
  EXPECT_EQ(t.backlog_wakeups, 0u);
  EXPECT_EQ(t.timer_wakeups, 0u);
}

TEST(Maintenance, TypeErasedMaintainHookSumsShardDuties) {
  // ShardedSet::maintain forwards to every shard; for an EBR-RQ family it
  // drains limbo, reported per duty in MaintenanceWork.
  ShardedSet s("EBR-RQ-skiplist", small_range(4, 0, 200));
  ThreadSession sess(s, 0);
  for (KeyT k = 1; k <= 199; ++k) sess.insert(k, k);
  for (KeyT k = 1; k <= 199; ++k) sess.remove(k);
  ASSERT_GT(s.maintenance_backlog(), 0u);
  const MaintenanceWork w = s.maintain(0);
  EXPECT_GT(w.limbo_flushed, 0u);
  EXPECT_EQ(s.maintenance_backlog(), 0u);
  EXPECT_TRUE(w.epochs_quiesced);
}

// ---------------------------------------------------------------------------
// Bundled skip-list towers (right-sized, DESIGN.md §11).
// ---------------------------------------------------------------------------

// A data-layer hop reads key, val and the bundle head from the node's first
// cache line; a field added to the header must not push next(0) off it.
static_assert(sizeof(BundledSkipList<int64_t, int64_t>::Node) == 32,
              "skip-list node header must stay 32 bytes");

// Every node carries exactly top_level + 1 links, so a link read past a
// node's own tower lands in the poisoned redzone the node pool puts after
// every block under ASan (core/entry_pool.h). Tall towers (2^16 prefilled
// keys), updates, both range-query entry paths and the maintenance prune
// walk all run at once; odd keys are never updated, so every snapshot must
// hold each odd key of its range.
TEST(SkipListTowers, ChurnAndBothRangePathsStayInsideEachTower) {
  constexpr KeyT kKeys = KeyT{1} << 17;
  constexpr KeyT kBoundary = kKeys / 2;  // first key of shard 1
  ShardedSet s("Bundle-skiplist",
               small_range(2, 0, kKeys, SetOptions{.reclaim = true}));
  ASSERT_EQ(s.shard_index(kBoundary - 1), 0u);
  ASSERT_EQ(s.shard_index(kBoundary), 1u);
  {
    ThreadSession sess(s, 0);
    for (KeyT k = 1; k < kKeys; k += 2) sess.insert(k, k);
    for (KeyT k = 2; k < kKeys; k += 4) sess.insert(k, k);
  }
  MaintenanceService svc(s, MaintenanceOptions{
                                .interval = std::chrono::milliseconds(1)});
  svc.start();
  std::atomic<uint64_t> bad{0};
  testutil::run_threads(4, [&](int tid) {
    ThreadSession sess(s, tid);
    Xoshiro256 rng(907 + tid);
    RangeSnapshot snap;
    for (int i = 0; i < 3000; ++i) {
      const KeyT even =
          2 * (1 + static_cast<KeyT>(rng.next_range(kKeys / 2 - 1)));
      switch (rng.next_range(4)) {
        case 0:
          sess.insert(even, even);
          break;
        case 1:
          sess.remove(even);
          break;
        default: {
          // Alternate a query inside one shard (range_query) with one
          // across the boundary (the coordinated range_query_at).
          const KeyT width = 1 + static_cast<KeyT>(rng.next_range(128));
          const KeyT span = kBoundary - width - 1;
          const KeyT lo =
              i % 2 == 0
                  ? (rng.next_range(2) == 0 ? 1 : kBoundary) +
                        static_cast<KeyT>(rng.next_range(span))
                  : kBoundary - 1 - static_cast<KeyT>(rng.next_range(width));
          const KeyT hi = lo + width;
          sess.range_query(lo, hi, snap);
          KeyT expect_odd = lo % 2 == 0 ? lo + 1 : lo;
          KeyT prev = lo - 1;
          for (const auto& [k, v] : snap) {
            if (k <= prev || k > hi || v != k) ++bad;
            if (k % 2 != 0) {
              if (k != expect_odd) ++bad;
              expect_odd = k + 2;
            }
            prev = k;
          }
          if (expect_odd <= hi) ++bad;  // an odd key at the end went missing
          break;
        }
      }
    }
  });
  svc.stop();
  EXPECT_EQ(bad.load(), 0u) << "a range result was unordered, out of "
                               "bounds, or lost a never-updated odd key";
  const ShardedSetStats st = s.stats();
  EXPECT_GT(st.single_shard_rqs, 0u);
  EXPECT_GT(st.coordinated_rqs, 0u);
  EXPECT_GT(svc.total().passes, 0u);
  EXPECT_TRUE(s.check_invariants());
}

// ---------------------------------------------------------------------------
// Entry and node pools behind the routed update path.
// ---------------------------------------------------------------------------

// EntryPool.SteadyStateUpdatePathHasZeroPoolMisses, through ShardedSet's
// routed insert and remove: one thread's updates land in all four shards,
// every shard retires through its own EBR, and each pruned entry and
// removed node must come back to that thread's slot, or the steady state
// keeps taking slabs. Single-threaded with an explicit prune-and-quiesce
// cadence so the recycle pipeline drains deterministically each round.
TEST(ShardPools, RoutedUpdatesRecycleWithZeroSteadyStateMisses) {
  using SkipList = BundledSkipList<KeyT, ValT>;
  auto& entries = EntryPool<BundleEntry<SkipList::Node>>::instance();
  auto& nodes = EntryPool<SkipList::Node>::instance();
  EntryPoolRegistry::instance().set_pooling_enabled(true);
  constexpr KeyT kKeys = 512;
  ShardedSet s("Bundle-skiplist",
               small_range(4, 0, kKeys, SetOptions{.reclaim = true}));
  // Ids no other test in this suite uses, so both slots start empty.
  constexpr int kTid = 100, kCleanerTid = 101;
  ThreadSession sess(s, kTid);
  Xoshiro256 rng(43);
  std::set<size_t> shards_hit;
  auto round = [&] {
    for (int i = 0; i < 200; ++i) {
      const KeyT k = 1 + static_cast<KeyT>(rng.next_range(kKeys - 1));
      shards_hit.insert(s.shard_index(k));
      if (rng.next_range(2) == 0)
        sess.insert(k, k);
      else
        sess.remove(k);
    }
    // Every shard prunes its bundles, then each id quiesces every shard's
    // EBR: nothing is pinned between operations, so two quiesces ripen
    // and drain every bag (pruned entries and removed nodes reach the
    // updater's inboxes).
    s.maintain(kCleanerTid);
    s.maintain(kTid);
  };
  for (int r = 0; r < 30; ++r) round();  // warm-up: size the pools
  ASSERT_EQ(shards_hit.size(), 4u);
  const EntryPoolStats warm = entries.stats();
  const EntryPoolStats warm_nodes = nodes.stats();
  for (int r = 0; r < 60; ++r) round();  // steady state
  EntryPoolStats steady = entries.stats();
  steady -= warm;
  EXPECT_EQ(steady.misses, 0u)
      << "steady-state routed updates took " << steady.misses
      << " entry slabs (hits=" << steady.hits << ")";
  EXPECT_GT(steady.hits, 0u);
  EXPECT_GT(steady.recycled, 0u) << "no entry was ever recycled";
  EntryPoolStats grown = nodes.stats();
  grown -= warm_nodes;
  EXPECT_EQ(grown.misses, 0u)
      << "steady-state routed inserts took " << grown.misses << " node slabs";
  EXPECT_GT(grown.hits, 0u);
  EXPECT_GT(grown.recycled, 0u) << "no node was ever recycled";
  EXPECT_TRUE(s.check_invariants());
}

}  // namespace
}  // namespace bref
