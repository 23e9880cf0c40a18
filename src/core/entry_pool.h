#pragma once
// Per-thread pooled allocation for bundle entries and skip-list nodes (the
// update hot path).
//
// Every update in every bundled structure moves the version it supersedes
// into one BundleEntry per changed bundle (Algorithm 2 line 2; the newest
// version lives inline in the bundle), and the cut that prunes it — the
// update's own, or a maintenance sweep's — retires it through EBR. With
// plain new/delete the allocator — not
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
//   * Entries are stamped at construction with the tid whose slot
//     allocated them (pool_tid). release() routes an entry back to its
//     *owner's* inbox no matter which thread frees it — whichever thread
//     drains the EBR bag (the updater that cut the entry, or a maintenance
//     worker), recycled entries flow back to their owner without any
//     thread ever pushing to a list another thread pops from
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
  using EnableFn = void (*)(bool);

  static EntryPoolRegistry& instance() {
    static EntryPoolRegistry reg;
    return reg;
  }

  void register_pool(StatsFn stats, EnableFn enable) {
    std::lock_guard<Spinlock> g(lock_);
    pools_.push_back({stats, enable});
  }

  /// Sum of every pool's counters (pools are never unregistered).
  EntryPoolStats totals() const {
    std::lock_guard<Spinlock> g(lock_);
    EntryPoolStats s;
    for (const auto& p : pools_) s += p.stats();
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
    EnableFn enable;
  };
  mutable Spinlock lock_;
  bool default_enabled_ = true;
  std::vector<PoolRef> pools_;
  obs::MetricsRegistry::Handle obs_handles_[4];
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

  /// Pop a class-`cls` block from thread `tid`'s slot. The returned
  /// object's fields (other than pool_tid and the class) are unspecified;
  /// the caller initializes them before publication.
  T* acquire(int tid, int cls = 0) {
    assert(tid >= 0 && tid < kMaxThreads);
    assert(cls >= 0 && cls < kClasses);
    PerThread& pt = *slots_[tid];
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
    if (e == nullptr) return carve(pt, tid, cls);
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

  EntryPoolStats stats() const {
    EntryPoolStats s;
    for (int i = 0; i < kMaxThreads; ++i) {
      const PerThread& pt = *slots_[i];
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

  EntryPool() {
    enabled_.store(EntryPoolRegistry::instance().pooling_default(),
                   std::memory_order_relaxed);
    EntryPoolRegistry::instance().register_pool(
        [] { return instance().stats(); },
        [](bool on) { instance().set_pooling_enabled(on); });
  }

  static constexpr size_t round_up(size_t n, size_t to) {
    return (n + to - 1) / to * to;
  }

  /// Slab size: one miss buys this many bytes of subsequent local hits.
  /// 16 KiB — 512 bundle entries — is small enough that a thread that only
  /// ever needs a handful of entries wastes little.
  static constexpr size_t slab_bytes() { return size_t{16} << 10; }

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

  void release_pooled(T* e) {
    PerThread& pt = *slots_[e->pool_tid];
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

  /// Construct a fresh class-`cls` block at `tid`'s slab cursor, first
  /// taking a new slab from the SlabSource when the current one cannot fit
  /// it (the leftover, less than one block, is abandoned).
  T* carve(PerThread& pt, int tid, int cls) {
    const size_t step = stride(cls);
    if (static_cast<size_t>(pt.carve_end - pt.carve_pos) < step) {
      const size_t bytes = std::max(slab_bytes(), step);
      pt.carve_pos =
          static_cast<char*>(SlabSource::instance().allocate(bytes));
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
    return construct(mem, tid, cls);
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
  CachePadded<PerThread> slots_[kMaxThreads];
};

}  // namespace bref
