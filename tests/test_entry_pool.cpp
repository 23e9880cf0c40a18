// The bundle-entry and skip-list node pool (core/entry_pool.h) and the
// slab source behind it (core/slab_source.h): allocation-freedom of the
// steady-state update hot path, recycle routing (EBR drain -> owner
// inbox), exact-size node blocks per tower height, the malloc-bypass
// ablation mode, and — under ASan, where pooled free entries are poisoned —
// that recycled entries are never handed out while a reader could still
// reach them.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "api/registry.h"
#include "core/bundle.h"
#include "core/entry_pool.h"
#include "core/slab_source.h"
#include "ds/bundled/bundled_skiplist.h"
#include "shard/maintenance.h"
#include "test_util.h"

namespace bref {
namespace {

struct FakeNode {
  int id;
};
using FakeEntry = BundleEntry<FakeNode>;

using SkipList = BundledSkipList<KeyT, ValT>;
using SkipNode = SkipList::Node;
using NodePool = EntryPool<SkipNode>;
using SkipEntryPool = EntryPool<BundleEntry<SkipNode>>;

TEST(EntryLayout, TsAndNextShareOneCacheLine) {
  // The tentpole's layout claim: 32-byte entries tile cache lines exactly,
  // so the two fields a dereference touches per hop never straddle.
  EXPECT_EQ(sizeof(FakeEntry), 32u);
  EXPECT_EQ(alignof(FakeEntry), 32u);
  EXPECT_EQ(offsetof(FakeEntry, ts) / kCacheLine,
            offsetof(FakeEntry, next) / kCacheLine);
}

TEST(EntryPool, RemoteFreeRoutesToOwnerInbox) {
  auto& pool = EntryPool<FakeEntry>::instance();
  pool.set_pooling_enabled(true);
  FakeEntry* e = pool.acquire(7);
  ASSERT_EQ(e->pool_tid, 7);
  // Release from a different thread: the entry must come back to slot 7's
  // inbox, not to the releasing thread's slot.
  std::thread([e] { EntryPool<FakeEntry>::release(e); }).join();
  EntryPoolStats s = pool.stats();
  EXPECT_GE(s.recycled, 1u);
  // Slot 7 serves its local slab remainder first, then drains the inbox;
  // `e` must resurface from slot 7 within one slab's worth of pops (and
  // from no other slot, since releases route by the entry's own tag).
  bool resurfaced = false;
  std::vector<FakeEntry*> held;
  for (size_t i = 0; i < EntryPool<FakeEntry>::slab_blocks() + 2; ++i) {
    FakeEntry* got = pool.acquire(7);
    EXPECT_EQ(got->pool_tid, 7);
    held.push_back(got);
    if (got == e) {
      resurfaced = true;
      break;
    }
  }
  EXPECT_TRUE(resurfaced);
  for (FakeEntry* h : held) EntryPool<FakeEntry>::release(h);
}

TEST(EntryPool, MallocBypassTagsAndRoundTrips) {
  auto& pool = EntryPool<FakeEntry>::instance();
  pool.set_pooling_enabled(false);
  FakeEntry* e = pool.acquire(0);
  EXPECT_EQ(e->pool_tid, kPoolMalloced);
  EntryPool<FakeEntry>::release(e);  // must route to delete, not an inbox
  pool.set_pooling_enabled(true);
  // Mixed-origin chains: a bundle built under bypass then grown pooled
  // tears down cleanly (each entry remembers its origin).
  pool.set_pooling_enabled(false);
  {
    Bundle<FakeNode> b;
    FakeNode n{0};
    b.init(&n, 0);
    Bundle<FakeNode>::finalize(b.prepare(0, &n), 1);
    pool.set_pooling_enabled(true);
    Bundle<FakeNode>::finalize(b.prepare(0, &n), 2);
    EXPECT_EQ(b.size(), 3u);
  }
  pool.set_pooling_enabled(true);
}

// The acceptance regression: once warm, a churning structure whose pruned
// entries recycle through EBR performs *zero* pool misses — the bundle hot
// path stops touching the allocator entirely. Run single-threaded with an
// explicit prune/quiesce cadence so the recycle pipeline (chain -> EBR bag
// -> owner inbox) drains deterministically each round: with concurrent
// threads on an oversubscribed machine, epoch advance — and therefore the
// pool capacity needed to ride out the recycle latency — is at the mercy
// of the OS scheduler, which is exactly what a regression test must not
// depend on. (The concurrent path is exercised by the churn test below
// and measured by bench/ablation_entry_path.)
TEST(EntryPool, SteadyStateUpdatePathHasZeroPoolMisses) {
  EntryPoolRegistry::instance().set_pooling_enabled(true);
  SkipList sl(1, /*reclaim=*/true);
  constexpr int kCleanerTid = 1;  // the test's own second id
  Xoshiro256 rng(41);
  auto round = [&] {
    for (int i = 0; i < 200; ++i) {
      KeyT k = 1 + static_cast<KeyT>(rng.next_range(512));
      if (rng.next_range(2) == 0)
        sl.insert(0, k, k);
      else
        sl.remove(0, k);
    }
    sl.prune_bundles(kCleanerTid);
    // Nothing is pinned between operations, so each quiesce() advances the
    // epoch; two rounds ripen and drain every bag (pruned entries reach
    // the owner's inbox, removed nodes recycle their chains on delete).
    sl.ebr().quiesce(kCleanerTid);
    sl.ebr().quiesce(0);
  };
  for (int r = 0; r < 30; ++r) round();  // warm-up: size the pools
  const EntryPoolStats warm = SkipEntryPool::instance().stats();
  const EntryPoolStats warm_nodes = NodePool::instance().stats();
  ASSERT_GT(warm.hits + warm.misses, 0u);
  for (int r = 0; r < 60; ++r) round();  // steady state
  EntryPoolStats steady = SkipEntryPool::instance().stats();
  steady -= warm;
  EXPECT_EQ(steady.misses, 0u)
      << "steady-state updates hit the allocator " << steady.misses
      << " times (hits=" << steady.hits << ")";
  EXPECT_GT(steady.hits, 0u);
  EXPECT_GT(steady.recycled, 0u) << "no entry was ever recycled";
  // Removed nodes come back through the same pipeline (EBR drain -> owner
  // inbox), so inserts stop touching the allocator too.
  EntryPoolStats nodes = NodePool::instance().stats();
  nodes -= warm_nodes;
  EXPECT_EQ(nodes.misses, 0u)
      << "steady-state inserts took " << nodes.misses << " node slabs";
  EXPECT_GT(nodes.hits, 0u);
  EXPECT_GT(nodes.recycled, 0u) << "no node was ever recycled";
  EXPECT_TRUE(sl.check_invariants());
}

// Churn + aggressive maintenance + concurrent range queries. Entries
// recycle at the highest rate the cleaner can drive while readers walk the
// very chains being pruned; EBR's grace period is the only thing making
// that safe. Under ASan the pool poisons a free entry's (ptr, ts) words, so an
// entry recycled while still reachable faults immediately instead of
// feeding a reader a stale-but-plausible timestamp; in all builds the
// snapshot validation catches corruption after the fact.
TEST(EntryPool, RecycledEntriesNeverReachableByActiveReaders) {
  EntryPoolRegistry::instance().set_pooling_enabled(true);
  detail::AnySetAdapter<BundleSkipListSet> set(1, /*reclaim=*/true);
  SkipList& sl = set.underlying();
  for (KeyT k = 1; k <= 400; ++k) sl.insert(0, k * 2, k);
  // Table 1's d = 0: a maintenance pass per retire.
  MaintenanceService cleaner(
      set, {.interval = std::chrono::milliseconds(0), .backlog_wake = 1});
  cleaner.start();
  std::atomic<bool> stop{false};
  std::atomic<long> rq_failures{0};
  constexpr int kUpdaters = 2;
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const int tid = kUpdaters + r;
      std::vector<std::pair<KeyT, ValT>> out;
      Xoshiro256 rng(100 + r);
      while (!stop.load(std::memory_order_acquire)) {
        KeyT lo = 1 + static_cast<KeyT>(rng.next_range(700));
        sl.range_query(tid, lo, lo + 60, out);
        if (!testutil::sorted_in_range(out, lo, lo + 60)) rq_failures++;
      }
    });
  }
  testutil::run_threads(kUpdaters, [&](int tid) {
    Xoshiro256 rng(7 + tid);
    for (int i = 0; i < 12000; ++i) {
      KeyT k = 1 + static_cast<KeyT>(rng.next_range(800));
      if (rng.next_range(2) == 0)
        sl.insert(tid, k, k);
      else
        sl.remove(tid, k);
    }
  });
  stop = true;
  for (auto& t : readers) t.join();
  cleaner.stop();
  EXPECT_EQ(rq_failures.load(), 0);
  EXPECT_GT(SkipEntryPool::instance().stats().recycled, 0u);
  EXPECT_TRUE(sl.check_invariants());
}

// ---------------------------------------------------------------------------
// Skip-list nodes: exact-size blocks, one size class per tower height.
// ---------------------------------------------------------------------------

TEST(NodePool, EveryHeightRoundTripsAtExactSize) {
  EntryPoolRegistry::instance().set_pooling_enabled(true);
  // A tid no other test in this suite uses: its slot starts with empty
  // free lists, so every create below carves, back to back, from one slab.
  constexpr int kTid = 8;
  char* expect = nullptr;
  for (int h = 0; h < SkipList::kMaxHeight; ++h) {
    const size_t bytes = 32 + 8 * static_cast<size_t>(h + 1);
    EXPECT_EQ(NodePool::block_bytes(h), bytes);
    // Packed: no allocator header, no padding; only ASan's redzone.
    EXPECT_EQ(NodePool::stride(h), bytes + NodePool::kRedzoneBytes);
    SkipNode* n = SkipNode::create(kTid, h, -h, h);
    if (expect != nullptr) {
      EXPECT_EQ(reinterpret_cast<char*>(n), expect);
    }
    expect = reinterpret_cast<char*>(n) + NodePool::stride(h);
    EXPECT_EQ(n->top_level, h);
    EXPECT_EQ(n->pool_tid, kTid);
    EXPECT_EQ(n->key, h);
    EXPECT_EQ(n->val, -h);
    for (int l = 0; l <= h; ++l) n->next(l).store(n);  // whole tower is ours
    SkipNode::destroy(n);
    // Same height, same slot: the freed block comes straight back.
    SkipNode* again = SkipNode::create(kTid, h + 1, 0, h);
    EXPECT_EQ(again, n);
    EXPECT_EQ(again->key, h + 1);
    SkipNode::destroy(again);
  }
}

TEST(NodePool, FreedBlockIsNeverReusedByAnotherHeight) {
  EntryPoolRegistry::instance().set_pooling_enabled(true);
  constexpr int kTid = 9;  // like kTid above: a slot no other test touches
  for (int h = 0; h < SkipList::kMaxHeight; ++h) {
    SkipNode* freed = SkipNode::create(kTid, 1, 1, h);
    SkipNode::destroy(freed);
    std::vector<SkipNode*> others;
    for (int o = 0; o < SkipList::kMaxHeight; ++o) {
      if (o == h) continue;
      SkipNode* n = SkipNode::create(kTid, 2, 2, o);
      EXPECT_NE(n, freed) << "height " << o << " reused a height-" << h
                          << " block";
      EXPECT_EQ(n->top_level, o);
      others.push_back(n);
    }
    SkipNode* same = SkipNode::create(kTid, 3, 3, h);
    EXPECT_EQ(same, freed);
    SkipNode::destroy(same);
    for (SkipNode* n : others) SkipNode::destroy(n);
  }
}

// One thread only inserts and another only removes the same keys; every
// removed node must travel back to the inserter's slot (remover's EBR
// drain -> the inserter's inbox), or the inserter carves fresh memory each
// round and the pool grows without bound. Each round builds a fresh list,
// whose per-thread level generators restart from the same seed, so every
// round draws the same tower heights: after the first round each size
// class already holds exactly the blocks the next round needs, and any
// slab taken later is a free that did not come home.
TEST(NodePool, RemoteRemovesRecycleToTheInsertersSlot) {
  EntryPoolRegistry::instance().set_pooling_enabled(true);
  constexpr int kInserter = 3, kRemover = 4, kKeys = 2000, kRounds = 50;
  auto& pool = NodePool::instance();
  auto round = [&] {
    SkipList sl(1, /*reclaim=*/true);
    std::thread([&] {
      for (KeyT k = 1; k <= kKeys; ++k) ASSERT_TRUE(sl.insert(kInserter, k, k));
    }).join();
    std::thread([&] {
      for (KeyT k = 1; k <= kKeys; ++k) ASSERT_TRUE(sl.remove(kRemover, k));
      sl.ebr().quiesce(kRemover);  // ripen and drain the remover's bag
    }).join();
    EXPECT_EQ(sl.size_slow(), 0u);
  };
  round();  // warm-up: carve one round's worth of every size class
  const EntryPoolStats warm = pool.stats();
  ASSERT_GT(warm.slabs, 0u);
  for (int r = 0; r < kRounds; ++r) round();
  EntryPoolStats grown = pool.stats();
  grown -= warm;
  EXPECT_EQ(grown.slabs, 0u) << "the inserter's slot kept taking slabs";
  EXPECT_EQ(grown.misses, 0u);
  EXPECT_EQ(grown.hits, uint64_t{kKeys} * kRounds);
  EXPECT_EQ(grown.recycled, uint64_t{kKeys} * kRounds)
      << "a removed node did not return to an inbox";
}

TEST(SlabSource, ChunksAreHugePageAlignedAndAdvised) {
  auto& src = SlabSource::instance();
  // A whole-chunk request cannot share the current chunk's remainder, so
  // it starts a chunk of its own; so does the next request after it.
  void* whole = src.allocate(SlabSource::kChunkBytes);
  void* next = src.allocate(4096);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(whole) % SlabSource::kChunkBytes, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(next) % SlabSource::kChunkBytes, 0u);
  // Slabs after that are carved back to back from the same chunk.
  void* after = src.allocate(100);
  EXPECT_EQ(static_cast<char*>(after), static_cast<char*>(next) + 4096);
  std::memset(whole, 0xab, SlabSource::kChunkBytes);  // all of it is ours
  const SlabSource::Stats st = src.stats();
  EXPECT_GE(st.chunks, 2u);
  // MADV_HUGEPAGE succeeds, or fails only because the kernel has no THP.
  EXPECT_TRUE(st.madvise_errno == 0 || st.madvise_errno == EINVAL)
      << std::strerror(st.madvise_errno);
}

// LeakSanitizer scans globals, stacks and the heap, not anonymous mappings.
// A list kept alive until exit through a global reaches its head sentinel's
// `Bundle::init` entry (heap) only through pooled entries, so under ASan
// this test leaves a leak report at exit unless the slab source registers
// its chunks as root regions.
TEST(SlabSource, StructureAliveAtExitLeavesNoLeakReport) {
  static SkipList* kept = new SkipList(1, /*reclaim=*/false);
  for (KeyT k = 1; k <= 100; ++k) kept->insert(6, k, k);
  EXPECT_EQ(kept->size_slow(), 100u);
}

}  // namespace
}  // namespace bref
