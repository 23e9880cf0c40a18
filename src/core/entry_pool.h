#pragma once
// Per-thread pooled allocation for bundle entries and skip-list nodes (the
// update hot path).
//
// Every update in every bundled structure creates one BundleEntry per
// changed bundle (Algorithm 2 line 2), and the background cleaner retires
// each pruned entry through EBR. With plain new/delete the allocator — not
// the algorithm — bounds update throughput in update-heavy mixes (the TR
// follow-up, arXiv:2201.00874, singles out entry overheads as the cost to
// beat). This pool makes the steady-state entry path allocation-free:
//
//   * acquire(tid) pops from the calling thread's cache-padded free list;
//     an empty list first drains the thread's inbox of recycled entries,
//     then constructs a fresh entry at the thread's slab cursor, and only
//     when that slab is spent touches the allocator (one 16 KiB slab
//     from the SlabSource, core/slab_source.h: huge-page chunks, never
//     unmapped).
//   * Entries are stamped at construction with the pool slot that
//     allocated them (pool_tid). release() routes an entry back to its
//     *owner's* inbox no matter which thread frees it — the cleaner thread
//     drains EBR bags, so recycled entries flow cleaner -> updater without
//     any thread ever pushing to a list another thread pops from
//     (single-producer free list + MPSC inbox; the inbox push is a CAS
//     prepend, which is ABA-safe because nothing ever pops a single node).
//   * Entry objects are constructed once and never destructed; "free"
//     entries are live objects whose `next` atomic doubles as the
//     free-list link. No placement-new churn, no aliasing tricks, and the
//     atomics stay valid objects for stale readers racing a recycle (which
//     EBR's grace period is what makes safe in the first place).
//   * Size classes: a type whose blocks vary in size (the bundled skip
//     list's node, whose tower is part of the block) gets one free list
//     and one inbox per class in every slot, and every class of a slot
//     carves from the same slab, so a rare class reserves nothing.
//
// The malloc bypass (set_pooling_enabled(false), or per-pool) keeps the
// old new/delete behaviour so benches can ablate pooled vs malloc with the
// same binary; entries remember their origin (pool_tid == kPoolMalloced),
// so the toggle may only be flipped while no operations are in flight.
//
// Under AddressSanitizer the payload words of a pooled-free entry (ptr and
// ts — everything except the link and the owner tag) are poisoned while
// the entry sits in a free list, so a reader that reaches a recycled entry
// *before* its EBR grace period has elapsed faults loudly instead of
// reading a stale-but-plausible timestamp (exercised by
// tests/test_entry_pool.cpp's churn test). Slab memory not yet carved is
// poisoned too, and every block is followed by a redzone that stays
// poisoned, so a read past a block faults instead of landing in its
// neighbour.
//
// Duck-typing requirements on T:
//   * constructor T(int32_t owner_tid), or T(int32_t owner_tid, int cls)
//     for size-classed types;
//   * a free-list link: either a member `std::atomic<T*> next` (the
//     BundleEntry pattern — the chain link doubles as the pool link), or,
//     for types whose `next` is an array or must stay live while pooled
//     (the EBR-RQ nodes), a member function `std::atomic<T*>& pool_link()`
//     returning the atomic to thread the free list / inbox through;
//   * member `const int32_t pool_tid`;
//   * `static constexpr size_t kPoolPoisonBytes` — leading bytes safe to
//     poison while pooled (must not cover the link or `pool_tid`);
//   * optional `static constexpr size_t kPoolSlabEntries` — slab size in
//     blocks instead of the default 16 KiB;
//   * optional size classes: `static constexpr int kPoolClasses`,
//     `static constexpr size_t pool_block_bytes(int cls)` and a member
//     `int pool_class() const`; such types are constructed with their
//     class and must be at most default-new aligned.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "common/cacheline.h"
#include "common/spinlock.h"
#include "common/thread_registry.h"
#include "core/slab_source.h"
#include "obs/metrics.h"

#if defined(__SANITIZE_ADDRESS__)
#define BREF_ENTRY_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BREF_ENTRY_POOL_ASAN 1
#endif
#endif
#ifdef BREF_ENTRY_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace bref {

/// Owner tag for entries handed out by the malloc bypass.
inline constexpr int32_t kPoolMalloced = -1;

/// Arena slots per pool, including arena 0 (the default). 64 named arenas
/// is comfortably past any shard count this repo sweeps; exhaustion
/// degrades to the default arena, never fails.
inline constexpr int kMaxArenas = 64;

/// Owner tag encoding: an entry allocated by thread `tid` under arena `a`
/// is stamped `a * kMaxThreads + tid`, so release() can route it home to
/// the exact (arena, thread) free list that owns its slab no matter which
/// thread or arena context frees it. Arena 0 keeps the historical tag ==
/// tid.
inline constexpr int32_t pool_owner_tag(int arena, int tid) noexcept {
  return static_cast<int32_t>(arena) * kMaxThreads + tid;
}

/// Aggregated counters for one pool (or, via EntryPoolRegistry::totals(),
/// every pool in the process). `hits` are acquires served without touching
/// the allocator (free list, inbox, or the current slab); `misses` are
/// acquires that allocated (a slab, or a bypass malloc); `recycled` counts
/// entries returned to an inbox.
struct EntryPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t recycled = 0;
  uint64_t slabs = 0;     // slabs taken from the SlabSource
  uint64_t malloced = 0;  // bypass allocations (one malloc each)

  /// Allocator touches attributable to the pooled paths.
  uint64_t allocs() const { return slabs + malloced; }

  EntryPoolStats& operator-=(const EntryPoolStats& o) {
    hits -= o.hits;
    misses -= o.misses;
    recycled -= o.recycled;
    slabs -= o.slabs;
    malloced -= o.malloced;
    return *this;
  }
  EntryPoolStats& operator+=(const EntryPoolStats& o) {
    hits += o.hits;
    misses += o.misses;
    recycled += o.recycled;
    slabs += o.slabs;
    malloced += o.malloced;
    return *this;
  }
};

/// Process-wide directory of every instantiated EntryPool<T>. The bench
/// harness reads aggregate allocation counters here without naming entry
/// types, and the pooled-vs-malloc ablation flips every pool at once.
class EntryPoolRegistry {
 public:
  using StatsFn = EntryPoolStats (*)();
  using ArenaStatsFn = EntryPoolStats (*)(int);
  using EnableFn = void (*)(bool);

  static EntryPoolRegistry& instance() {
    static EntryPoolRegistry reg;
    return reg;
  }

  void register_pool(StatsFn stats, ArenaStatsFn arena_stats, EnableFn enable) {
    std::lock_guard<Spinlock> g(lock_);
    pools_.push_back({stats, arena_stats, enable});
  }

  /// Sum of every pool's counters (pools are never unregistered).
  EntryPoolStats totals() const {
    std::lock_guard<Spinlock> g(lock_);
    EntryPoolStats s;
    for (const auto& p : pools_) s += p.stats();
    return s;
  }

  /// Sum of every pool's counters for one arena (the per-arena obs gauges
  /// in ArenaRegistry read this).
  EntryPoolStats arena_totals(int arena) const {
    std::lock_guard<Spinlock> g(lock_);
    EntryPoolStats s;
    for (const auto& p : pools_) s += p.arena_stats(arena);
    return s;
  }

  /// Flip every pool (and pools created later) between pooled and malloc
  /// mode. Only call while no structure operations are in flight.
  void set_pooling_enabled(bool on) {
    std::lock_guard<Spinlock> g(lock_);
    default_enabled_ = on;
    for (const auto& p : pools_) p.enable(on);
  }

  bool pooling_default() const {
    std::lock_guard<Spinlock> g(lock_);
    return default_enabled_;
  }

 private:
  EntryPoolRegistry() {
    // Pool-path counters for the obs exposition (core layer). Pools are
    // never unregistered, so callbacks summing totals() stay valid for
    // the registry's whole lifetime; the handles unregister them at exit
    // (MetricsRegistry is leaky, so the order is safe).
    using obs::MetricKind;
    auto cb = [](std::string name, std::string help,
                 uint64_t EntryPoolStats::* field) {
      return obs::registry().add_callback(
          MetricKind::kCounter, std::move(name), std::move(help), "",
          [field] {
            return static_cast<double>(instance().totals().*field);
          });
    };
    obs_handles_[0] = cb("bref_entry_pool_hits_total",
                         "Entry acquires served from a per-thread free list",
                         &EntryPoolStats::hits);
    obs_handles_[1] = cb("bref_entry_pool_misses_total",
                         "Entry acquires that touched the allocator",
                         &EntryPoolStats::misses);
    obs_handles_[2] = cb("bref_entry_pool_recycled_total",
                         "Entries returned to a pool inbox after EBR grace",
                         &EntryPoolStats::recycled);
    obs_handles_[3] = obs::registry().add_callback(
        MetricKind::kCounter, "bref_entry_pool_allocs_total",
        "Heap allocations on the entry path (slabs + bypass)", "",
        [] { return static_cast<double>(instance().totals().allocs()); });
  }

  struct PoolRef {
    StatsFn stats;
    ArenaStatsFn arena_stats;
    EnableFn enable;
  };
  mutable Spinlock lock_;
  bool default_enabled_ = true;
  std::vector<PoolRef> pools_;
  obs::MetricsRegistry::Handle obs_handles_[4];
};

/// Process-wide directory of named slab arenas. An arena is a partition of
/// every EntryPool's per-thread slots: entries acquired while an arena is
/// current (ArenaScope) come from slabs owned by that (arena, thread)
/// slot, are stamped with the encoded owner tag, and recycle back to the
/// same slot through the existing MPSC inboxes no matter who frees them.
/// The ShardedSet names one arena per shard index ("shard0", "shard1",
/// ...), so a shard's entries live in shard-owned slabs — first-touch
/// placed by the acquiring thread and, when the arena carries a NUMA node,
/// carved from that node's SlabSource cursor, whose chunks are
/// mbind-preferred onto it (common/numa.h).
///
/// Arenas are find-or-create by name and never destroyed (ids are stable
/// process-wide, like the pools themselves), so repeated ShardedSet
/// construction reuses "shard<i>" rather than leaking table slots. Each
/// arena registers two obs gauges at creation: slab count and the recycle-
/// locality hit ratio (acquires served from the arena's own free lists /
/// inboxes over all its acquires).
class ArenaRegistry {
 public:
  static ArenaRegistry& instance() {
    static auto* reg = new ArenaRegistry();
    return *reg;
  }

  /// Find-or-create by name; `numa_node >= 0` asks slabs to prefer that
  /// node (recorded on first creation; later callers inherit it). Returns
  /// the arena id, or 0 (the default arena) when the table is full.
  int acquire(const std::string& name, int numa_node = -1) {
    std::lock_guard<Spinlock> g(lock_);
    for (int i = 0; i < count_; ++i)
      if (names_[i] == name) return i;
    if (count_ >= kMaxArenas) return 0;
    const int id = count_++;
    names_[id] = name;
    nodes_[id] = numa_node;
    register_gauges(id);
    return id;
  }

  /// Preferred NUMA node for `arena`'s slabs; -1 = unbound.
  int numa_node(int arena) const {
    std::lock_guard<Spinlock> g(lock_);
    return arena >= 0 && arena < count_ ? nodes_[arena] : -1;
  }

  std::string name(int arena) const {
    std::lock_guard<Spinlock> g(lock_);
    return arena >= 0 && arena < count_ ? names_[arena] : std::string();
  }

  int count() const {
    std::lock_guard<Spinlock> g(lock_);
    return count_;
  }

  ArenaRegistry(const ArenaRegistry&) = delete;
  ArenaRegistry& operator=(const ArenaRegistry&) = delete;

 private:
  ArenaRegistry() {
    names_[0] = "default";
    nodes_[0] = -1;
    count_ = 1;
    register_gauges(0);
  }

  void register_gauges(int id) {
    using obs::MetricKind;
    const std::string label = "arena=\"" + names_[id] + "\"";
    slab_handles_[id] = obs::registry().add_callback(
        MetricKind::kGauge, "bref_entry_pool_arena_slabs",
        "Slabs allocated under this arena (sum over pools)", label, [id] {
          return static_cast<double>(
              EntryPoolRegistry::instance().arena_totals(id).slabs);
        });
    ratio_handles_[id] = obs::registry().add_callback(
        MetricKind::kGauge, "bref_entry_pool_arena_hit_ratio",
        "Share of this arena's acquires served from its own free lists, "
        "recycle inboxes or current slab (locality: no allocator, no "
        "foreign slab)",
        label, [id] {
          const EntryPoolStats s =
              EntryPoolRegistry::instance().arena_totals(id);
          const uint64_t total = s.hits + s.misses;
          return total == 0 ? 1.0
                            : static_cast<double>(s.hits) /
                                  static_cast<double>(total);
        });
  }

  mutable Spinlock lock_;
  int count_ = 0;
  std::string names_[kMaxArenas];
  int nodes_[kMaxArenas] = {};
  obs::MetricsRegistry::Handle slab_handles_[kMaxArenas];
  obs::MetricsRegistry::Handle ratio_handles_[kMaxArenas];
};

namespace detail {
/// The calling thread's current arena; 0 (default) unless an ArenaScope is
/// live. Thread-local so shard routing can set it around delegation
/// without threading a parameter through every structure's update path.
inline thread_local int tls_arena = 0;
}  // namespace detail

inline int current_arena() noexcept { return detail::tls_arena; }

/// RAII arena selection: every EntryPool::acquire on this thread inside
/// the scope allocates from `arena`'s slots. Scopes nest (the previous
/// arena is restored); release() ignores the scope entirely — entries
/// always route home by their owner tag.
class ArenaScope {
 public:
  explicit ArenaScope(int arena) noexcept : prev_(detail::tls_arena) {
    detail::tls_arena =
        arena >= 0 && arena < kMaxArenas ? arena : 0;
  }
  ~ArenaScope() { detail::tls_arena = prev_; }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  int prev_;
};

template <typename T>
class EntryPool {
 public:
  /// Size classes: one unless T declares kPoolClasses (see the header).
  static constexpr int kClasses = [] {
    if constexpr (requires { T::kPoolClasses; })
      return int{T::kPoolClasses};
    else
      return 1;
  }();

  /// Bytes of one class-`cls` object.
  static constexpr size_t block_bytes(int cls = 0) {
    if constexpr (kClasses > 1)
      return T::pool_block_bytes(cls);
    else
      return sizeof(T);
  }

  /// Under ASan, bytes of poisoned redzone after every pooled block.
#ifdef BREF_ENTRY_POOL_ASAN
  static constexpr size_t kRedzoneBytes = 16;
#else
  static constexpr size_t kRedzoneBytes = 0;
#endif

  /// Bytes a class-`cls` block occupies in a slab: the object, then the
  /// redzone, rounded to T's alignment.
  static constexpr size_t stride(int cls = 0) {
    return round_up(block_bytes(cls) + kRedzoneBytes, alignof(T));
  }

  /// Class-`cls` blocks one slab holds.
  static constexpr size_t slab_blocks(int cls = 0) {
    return slab_bytes() / stride(cls);
  }

  /// Leaky singleton: never destroyed, so a structure destroyed during
  /// static teardown can still recycle its chains.
  static EntryPool& instance() {
    static EntryPool* pool = new EntryPool();
    return *pool;
  }

  /// Pop a class-`cls` block for thread `tid`, from the current arena's
  /// slots (the default arena unless an ArenaScope is live). The returned
  /// object's fields (other than pool_tid and the class) are unspecified;
  /// the caller initializes them before publication.
  T* acquire(int tid, int cls = 0) {
    assert(tid >= 0 && tid < kMaxThreads);
    assert(cls >= 0 && cls < kClasses);
    const int arena = current_arena();
    PerThread& pt = slot(arena, tid);
    if (!enabled_.load(std::memory_order_relaxed)) {
      bump(pt.misses);
      bump(pt.malloced);
      return acquire_unpooled(cls);
    }
    T* e = pt.free_head[cls];
    if (e == nullptr) {
      // Acquire pairs with the release CAS in release_pooled: everything
      // the recycler did before pushing (EBR drain included) is visible
      // before we hand the entry out for reuse.
      e = pt.inbox[cls].exchange(nullptr, std::memory_order_acquire);
    }
    if (e == nullptr) return carve(pt, arena, tid, cls);
    bump(pt.hits);
    pt.free_head[cls] = link_of(e).load(std::memory_order_relaxed);
    unpoison(e);
    return e;
  }

  /// The tagged heap path: the malloc bypass, and callers with no dense
  /// thread id (sentinels built on a constructing thread). release()
  /// routes the block back to the heap.
  static T* acquire_unpooled(int cls = 0) {
    if constexpr (kClasses > 1) {
      static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
      return construct(::operator new(block_bytes(cls)), kPoolMalloced, cls);
    } else {
      return new T(kPoolMalloced);
    }
  }

  /// Return an entry from any thread. Routes to the owner slot's inbox;
  /// bypass entries go back to the heap.
  static void release(T* e) {
    if (e->pool_tid == kPoolMalloced) {
      if constexpr (kClasses > 1) {
        e->~T();
        ::operator delete(static_cast<void*>(e));
      } else {
        delete e;
      }
      return;
    }
    instance().release_pooled(e);
  }

  /// Pooled vs malloc toggle (ablation baseline). Entries remember their
  /// origin, so flipping never mismatches acquire/release — but only flip
  /// while no operations are in flight (the flag is read unsynchronized).
  void set_pooling_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool pooling_enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  EntryPoolStats stats() const {
    EntryPoolStats s;
    for (int a = 0; a < kMaxArenas; ++a) s += arena_stats(a);
    return s;
  }

  /// Counters for one arena's slots of this pool (never-created arenas
  /// read as zero without materializing them).
  EntryPoolStats arena_stats(int arena) const {
    EntryPoolStats s;
    if (arena < 0 || arena >= kMaxArenas) return s;
    const ArenaSlots* as =
        arena == 0 ? &base_ : extra_[arena].load(std::memory_order_acquire);
    if (as == nullptr) return s;
    for (int i = 0; i < kMaxThreads; ++i) {
      const PerThread& pt = *as->slots[i];
      s.hits += pt.hits.load(std::memory_order_relaxed);
      s.misses += pt.misses.load(std::memory_order_relaxed);
      s.recycled += pt.recycled.load(std::memory_order_relaxed);
      s.slabs += pt.slabs.load(std::memory_order_relaxed);
      s.malloced += pt.malloced.load(std::memory_order_relaxed);
    }
    return s;
  }

  EntryPool(const EntryPool&) = delete;
  EntryPool& operator=(const EntryPool&) = delete;

 private:
  struct PerThread {
    // Owner-only LIFOs, linked via T's pool link, one per class.
    T* free_head[kClasses] = {};
    // MPSC per class: any thread pushes, owner drains.
    std::atomic<T*> inbox[kClasses] = {};
    // Owner-only bump cursor into the slot's current slab.
    char* carve_pos = nullptr;
    char* carve_end = nullptr;
    // Single-writer counters (owner thread) except `recycled` (any
    // pusher); all atomic so aggregation never races the hot path.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> recycled{0};
    std::atomic<uint64_t> slabs{0};
    std::atomic<uint64_t> malloced{0};
  };

  /// Per-arena block of per-thread slots, materialized lazily the first
  /// time a thread acquires under that arena (and never freed: the tag on
  /// a live entry must stay routable for the process lifetime, like the
  /// pool itself).
  struct ArenaSlots {
    CachePadded<PerThread> slots[kMaxThreads];
  };

  EntryPool() {
    enabled_.store(EntryPoolRegistry::instance().pooling_default(),
                   std::memory_order_relaxed);
    EntryPoolRegistry::instance().register_pool(
        [] { return instance().stats(); },
        [](int arena) { return instance().arena_stats(arena); },
        [](bool on) { instance().set_pooling_enabled(on); });
  }

  static constexpr size_t round_up(size_t n, size_t to) {
    return (n + to - 1) / to * to;
  }

  /// Slab size: one miss buys this many bytes of subsequent local hits.
  /// The default — 16 KiB, 512 bundle entries — is small enough that a
  /// thread that only ever needs a handful of entries wastes little.
  static constexpr size_t slab_bytes() {
    if constexpr (requires { T::kPoolSlabEntries; })
      return size_t{T::kPoolSlabEntries} * stride();
    else
      return size_t{16} << 10;
  }

  /// Single-writer increment: a plain add, not a locked RMW.
  static void bump(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  static T* construct(void* mem, int32_t tag, int cls) {
    if constexpr (kClasses > 1)
      return ::new (mem) T(tag, cls);
    else
      return ::new (mem) T(tag);
  }

  static int class_of(const T* e) {
    if constexpr (kClasses > 1)
      return e->pool_class();
    else
      return 0;
  }

  /// The free-list/inbox link of an entry: `T::pool_link()` when the type
  /// provides one (nodes whose `next` is an array or carries structure
  /// state the pool must not clobber), else the `next` atomic itself.
  static std::atomic<T*>& link_of(T* e) {
    if constexpr (requires { e->pool_link(); })
      return e->pool_link();
    else
      return e->next;
  }

  /// The (arena, tid) slot block, creating the arena's block on first use.
  /// Lock-free fast path: one acquire load when the block exists.
  PerThread& slot(int arena, int tid) {
    if (arena == 0) return *base_.slots[tid];
    ArenaSlots* as = extra_[arena].load(std::memory_order_acquire);
    if (as == nullptr) {
      auto* fresh = new ArenaSlots();
      ArenaSlots* expect = nullptr;
      if (extra_[arena].compare_exchange_strong(expect, fresh,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        as = fresh;
      } else {
        delete fresh;
        as = expect;
      }
    }
    return *as->slots[tid];
  }

  void release_pooled(T* e) {
    // Decode the owner tag (pool_owner_tag): the slot the entry's slab
    // belongs to, independent of the releasing thread's arena scope.
    const int32_t tag = e->pool_tid;
    PerThread& pt = slot(tag / kMaxThreads, tag % kMaxThreads);
    std::atomic<T*>& inbox = pt.inbox[class_of(e)];
    poison(e);
    T* head = inbox.load(std::memory_order_relaxed);
    do {
      link_of(e).store(head, std::memory_order_relaxed);
      // Release pairs with the acquire drain in acquire(); CAS-prepend is
      // ABA-safe (no one pops individual nodes from the inbox).
    } while (!inbox.compare_exchange_weak(head, e, std::memory_order_release,
                                          std::memory_order_relaxed));
    pt.recycled.fetch_add(1, std::memory_order_relaxed);
  }

  /// Construct a fresh class-`cls` block at (arena, tid)'s slab cursor,
  /// first taking a new slab from the SlabSource when the current one
  /// cannot fit it (the leftover, less than one block, is abandoned). The
  /// SlabSource applies the arena's NUMA preference per chunk; the
  /// construction here first-touches the block on the acquiring thread.
  T* carve(PerThread& pt, int arena, int tid, int cls) {
    const size_t step = stride(cls);
    if (static_cast<size_t>(pt.carve_end - pt.carve_pos) < step) {
      const size_t bytes = std::max(slab_bytes(), step);
      pt.carve_pos = static_cast<char*>(SlabSource::instance().allocate(
          bytes, ArenaRegistry::instance().numa_node(arena)));
      pt.carve_end = pt.carve_pos + bytes;
      poison_range(pt.carve_pos, bytes);
      bump(pt.slabs);
      bump(pt.misses);
    } else {
      bump(pt.hits);
    }
    void* mem = pt.carve_pos;
    pt.carve_pos += step;
    unpoison_range(mem, block_bytes(cls));
    return construct(mem, pool_owner_tag(arena, tid), cls);
  }

  static void poison_range(void* p, size_t n) {
#ifdef BREF_ENTRY_POOL_ASAN
    __asan_poison_memory_region(p, n);
#else
    (void)p, (void)n;
#endif
  }
  static void unpoison_range(void* p, size_t n) {
#ifdef BREF_ENTRY_POOL_ASAN
    __asan_unpoison_memory_region(p, n);
#else
    (void)p, (void)n;
#endif
  }
  static void poison(T* e) { poison_range(e, T::kPoolPoisonBytes); }
  static void unpoison(T* e) { unpoison_range(e, T::kPoolPoisonBytes); }

  std::atomic<bool> enabled_{true};
  ArenaSlots base_;  // arena 0: the default (unscoped) slots
  std::atomic<ArenaSlots*> extra_[kMaxArenas] = {};  // lazily materialized
};

}  // namespace bref
