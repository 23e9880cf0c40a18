#pragma once
// Epoch-based memory reclamation (DEBRA-flavoured).
//
// Used in two roles, mirroring the paper:
//  1. by the bundled structures to reclaim physically-removed nodes and
//     pruned bundle entries (Section 7 / supplementary B);
//  2. as the substrate whose internals the EBR-RQ baselines (Arbel-Raviv &
//     Brown) extend into a range-query mechanism — their limbo lists of
//     deleted-but-still-visible nodes are exactly the per-thread bags here.
//
// Design: a global epoch counter; each thread announces the epoch it read
// when it pins (enters an operation) and announces quiescence when it
// unpins. Retired objects go into the bag of the *current global* epoch
// (three generations per thread, each stamped with the epoch it was filled
// under); a bag is freed once the global epoch has advanced twice past its
// stamp, which implies every thread has since been quiescent or has
// re-pinned in a newer epoch.
//
// The global (not the pinned-at) epoch matters when a pin spans an
// advance: an object unlinked at global epoch E can be observed by readers
// pinned at E, and a reader pinned at E only blocks the E+1 -> E+2
// advance. Bagging by the retirer's stale pinned epoch E-1 would free the
// object at E+1 — one epoch early, under that reader. (Found the hard way
// via the LFCA tree, whose long copy-on-write operations make pins
// routinely span advances.)

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/cacheline.h"
#include "common/thread_registry.h"
#include "obs/metrics.h"

namespace bref {

/// Cross-instance gauges (obs): every live Ebr registers a source; the
/// exposition shows the worst epoch lag and the total limbo depth across
/// all structures in the process. Leaky statics — sources registered from
/// Ebr constructors may be released after ordinary static destruction.
inline obs::GaugeSet& ebr_epoch_lag_gauge() {
  static auto* g = new obs::GaugeSet(
      obs::GaugeSet::Agg::kMax, "bref_epoch_lag",
      "Epochs the global clock is ahead of the oldest pinned thread "
      "(max over live Ebr instances; 0 when nothing is pinned)");
  return *g;
}
inline obs::GaugeSet& ebr_limbo_gauge() {
  static auto* g = new obs::GaugeSet(
      obs::GaugeSet::Agg::kSum, "bref_epoch_limbo_objects",
      "Objects retired but not yet freed (sum over live Ebr instances)");
  return *g;
}

class Ebr {
 public:
  Ebr() {
    for (auto& s : slots_) s->announce.store(kQuiescent, std::memory_order_relaxed);
    lag_src_ = ebr_epoch_lag_gauge().add(
        [this] { return static_cast<double>(epoch_lag()); });
    limbo_src_ = ebr_limbo_gauge().add([this] {
      // Both counters are relaxed; a racy read may momentarily see a free
      // before its retire — clamp instead of wrapping.
      const uint64_t r = retired(), f = freed();
      return r > f ? static_cast<double>(r - f) : 0.0;
    });
  }

  ~Ebr() { free_all_unsafe(); }

  Ebr(const Ebr&) = delete;
  Ebr& operator=(const Ebr&) = delete;

  /// Enter an epoch-protected region. After pin() returns, no object retired
  /// in the announced epoch or later is freed until this thread unpins.
  void pin(int tid) {
    pin_prepare(tid);
    pin_confirm(tid);
  }

  /// First half of pin(), split out so a coordinator pinning MANY Ebr
  /// instances (the sharded cross-shard range query) can issue every
  /// instance's announce store back-to-back before paying any validation
  /// loads: one epoch read plus one announce store, nothing else. The pin
  /// is NOT established until pin_confirm() returns — no shared pointer
  /// may be read in between.
  void pin_prepare(int tid) {
    hwm_.note(tid);
    slots_[tid]->announce.store(global_epoch_.load(std::memory_order_acquire),
                                std::memory_order_seq_cst);
  }

  /// Second half: close the announce/advance race. The announce must be
  /// visible before any shared pointer is read, and the epoch must not
  /// have advanced past it — re-read until the announced value sticks,
  /// then run the usual per-pin epoch bookkeeping (bag drain, advance
  /// cadence).
  void pin_confirm(int tid) {
    Slot& s = *slots_[tid];
    uint64_t e = s.announce.load(std::memory_order_relaxed);
    for (;;) {
      uint64_t e2 = global_epoch_.load(std::memory_order_seq_cst);
      if (e2 == e) break;
      e = e2;
      s.announce.store(e, std::memory_order_seq_cst);
    }
    if (e != s.local_epoch) on_new_epoch(s, e);
    if (++s.pin_count % kAdvanceEvery == 0) try_advance(e);
  }

  void unpin(int tid) {
    slots_[tid]->announce.store(kQuiescent, std::memory_order_release);
  }

  /// RAII pin for one operation.
  class Guard {
   public:
    Guard(Ebr& ebr, int tid) : ebr_(&ebr), tid_(tid) { ebr_->pin(tid_); }
    ~Guard() {
      if (ebr_) ebr_->unpin(tid_);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Ebr* ebr_;
    int tid_;
  };

  /// Retire an object; it is freed via `deleter(p)` once safe. Must be
  /// called while pinned (or while provably unreachable, e.g. the leaky
  /// benchmark mode where nothing is freed until destruction).
  void retire(int tid, void* p, void (*deleter)(void*)) {
    hwm_.note(tid);
    Slot& s = *slots_[tid];
    // Bag under the current *global* epoch: the unlink happened no later
    // than this read, so the bag's stamp upper-bounds every reader that
    // could still hold the object (see header comment).
    const uint64_t g = global_epoch_.load(std::memory_order_acquire);
    const size_t i = g % kGenerations;
    s.bags[i].push_back({p, deleter});
    s.bag_epoch[i] = g;
    // Single-writer bump; atomic only so the obs gauge may read it from
    // another thread.
    s.retired_count.store(s.retired_count.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
  }

  template <typename T>
  void retire(int tid, T* p) {
    retire(tid, p, [](void* q) { delete static_cast<T*>(q); });
  }

  /// Typed recycle hook — the pooled bundle-entry path. Identical safety
  /// contract to retire(tid, p), but once the grace period elapses the
  /// object is handed to `T::recycle(T*)` (for BundleEntry: back to its
  /// owner's EntryPool slot) instead of the heap. The drain runs on the
  /// retiring thread, so a thread pruning entries pushes them to each
  /// owner's pool inbox without ever calling the allocator.
  template <typename T>
  void retire_recycle(int tid, T* p) {
    retire(tid, p, [](void* q) { T::recycle(static_cast<T*>(q)); });
  }

  uint64_t epoch() const { return global_epoch_.load(std::memory_order_acquire); }

  /// Epoch-integration hook for threads whose pins span long scans (a
  /// maintenance sweep's pattern: one pin around a whole-structure prune
  /// pass). Such a thread blocks every advance while pinned, so the
  /// normal every-64-pins cadence starves: retired objects pile up in
  /// stamped bags and — on the pooled entry path — recycling stalls while
  /// updaters allocate fresh slabs. Called between pins (NOT while
  /// pinned), this pushes the global epoch as far as the other threads
  /// allow and drains the caller's own ripe bags immediately. Draining
  /// outside a pin is safe: ripeness depends only on the bag stamp being
  /// two epochs stale, which already implies no reader can hold the
  /// objects.
  void quiesce(int tid) {
    hwm_.note(tid);
    for (int i = 0; i < 2; ++i) {
      if (!try_advance(global_epoch_.load(std::memory_order_acquire))) break;
    }
    Slot& s = *slots_[tid];
    const uint64_t e = global_epoch_.load(std::memory_order_acquire);
    if (e != s.local_epoch) on_new_epoch(s, e);
  }

  /// Attempt to advance the global epoch from `e`; succeeds only when every
  /// pinned thread has announced `e`.
  bool try_advance(uint64_t e) {
    const int n = hwm_.get();
    for (int i = 0; i < n; ++i) {
      uint64_t a = slots_[i]->announce.load(std::memory_order_seq_cst);
      if (a != kQuiescent && a != e) return false;
    }
    uint64_t expect = e;
    return global_epoch_.compare_exchange_strong(expect, e + 1,
                                                 std::memory_order_acq_rel);
  }

  /// Free everything retired so far. Only safe when all threads are
  /// quiescent (shutdown, or between test phases). Returns #objects freed.
  size_t free_all_unsafe() {
    size_t n = 0;
    for (auto& ps : slots_) {
      for (auto& bag : ps->bags) {
        n += bag.size();
        drain(bag);
      }
    }
    freed_count_.fetch_add(n, std::memory_order_relaxed);
    return n;
  }

  // -- statistics (tests / Table 1 bench) ------------------------------
  uint64_t retired() const {
    uint64_t n = 0;
    for (auto& s : slots_) n += s->retired_count.load(std::memory_order_relaxed);
    return n;
  }
  uint64_t freed() const { return freed_count_.load(std::memory_order_relaxed); }

  /// How many epochs the global clock is ahead of the oldest pinned
  /// thread; 0 when every thread is quiescent. A persistently large lag
  /// means some pin is blocking advancement and limbo will grow.
  uint64_t epoch_lag() const {
    const uint64_t g = global_epoch_.load(std::memory_order_acquire);
    uint64_t oldest = kQuiescent;
    const int n = hwm_.get();
    for (int i = 0; i < n; ++i) {
      const uint64_t a = slots_[i]->announce.load(std::memory_order_relaxed);
      if (a != kQuiescent && a < oldest) oldest = a;
    }
    return oldest == kQuiescent ? 0 : g - oldest;
  }

 private:
  static constexpr uint64_t kQuiescent = ~0ull;
  static constexpr int kGenerations = 3;
  static constexpr uint64_t kAdvanceEvery = 64;  // pins between advance tries

  struct RetiredObj {
    void* p;
    void (*deleter)(void*);
  };

  struct Slot {
    std::atomic<uint64_t> announce{kQuiescent};
    uint64_t local_epoch{0};
    uint64_t pin_count{0};
    // Atomic (single-writer bump) so the obs limbo gauge can read it.
    std::atomic<uint64_t> retired_count{0};
    std::vector<RetiredObj> bags[kGenerations];
    uint64_t bag_epoch[kGenerations] = {};  // epoch each bag was filled under
  };

  void on_new_epoch(Slot& s, uint64_t e) {
    // Entering epoch e: a bag stamped B became unreachable once the global
    // epoch passed B+2 — every thread has since been quiescent or pinned
    // in an epoch past B. Checking stamps (rather than inferring epochs
    // from slot indices) stays correct when this thread skipped epochs.
    for (size_t i = 0; i < kGenerations; ++i)
      if (!s.bags[i].empty() && e >= s.bag_epoch[i] + 2)
        drain_counted(s.bags[i]);
    s.local_epoch = e;
  }

  void drain(std::vector<RetiredObj>& bag) {
    for (auto& r : bag) r.deleter(r.p);
    bag.clear();
  }
  void drain_counted(std::vector<RetiredObj>& bag) {
    freed_count_.fetch_add(bag.size(), std::memory_order_relaxed);
    drain(bag);
  }

  std::atomic<uint64_t> global_epoch_{0};
  std::atomic<uint64_t> freed_count_{0};
  TidHwm hwm_;
  CachePadded<Slot> slots_[kMaxThreads];
  // Last members: destroyed FIRST, so the gauge callbacks (which read the
  // atomics above) are unregistered before any state they read goes away.
  obs::GaugeSet::Source lag_src_;
  obs::GaugeSet::Source limbo_src_;
};

}  // namespace bref
