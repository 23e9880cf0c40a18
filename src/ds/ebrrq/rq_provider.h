#pragma once
// EBR-based range-query provider — reconstruction of Arbel-Raviv & Brown,
// "Harnessing epoch-based reclamation for efficient range queries"
// (PPoPP'18); the paper's EBR-RQ and EBR-RQ-LF competitors.
//
// Nodes carry insert/delete timestamps (itime/dtime). A range query acquires
// a snapshot timestamp `ts` by incrementing a global counter and includes a
// node iff itime <= ts < dtime. Two update/query coordination protocols:
//
//  * kLock (EBR-RQ): a readers-writer lock protects the counter. Updates
//    stamp under the lock in shared mode; range queries increment it in
//    exclusive mode, so every update is cleanly ordered before or after the
//    increment. This is the "contention on a global lock" profile the
//    bundling paper measures.
//  * kLockFree (EBR-RQ-LF): stamps are installed with DCSS (set the node's
//    timestamp to t only if the global counter still equals t), so a stamp
//    committed after a range query's fetch-add necessarily carries a larger
//    timestamp. Because there is no mutual exclusion, an insert stamped
//    before a query's fetch-add may become reachable only after the query's
//    traversal has passed its position; inserters therefore *report* their
//    node to every announced range query covering its key (step (2) of
//    rq_reconcile drains these reports), mirroring the original design's
//    update-side help.
//
// Because deletions physically unlink nodes mid-traversal, removers (a)
// announce the victim before unlinking and (b) park it in a per-thread
// limbo list that range queries scan for in-snapshot nodes they missed —
// the extra "hundreds of limbo nodes checked per query" overhead the
// bundling paper reports. Limbo entries are handed to EBR once no active or
// future range query can include them; with pooled nodes the EBR drain then
// recycles them to their owner's EntryPool inbox instead of the heap.
//
// Report/limbo lifecycle invariants (DESIGN.md §5 has the full writeup,
// including the two races fixed here):
//  * A report may sit in a slot only while that slot's query is live:
//    report_insert re-checks `ts` under `report_lock`, and rq_end stores
//    kNoRq and drains the slot under the same lock, so a straggler push
//    racing the query's completion is impossible (the old code cleared
//    stragglers only at the tid's *next* rq_begin — a thread that stopped
//    querying kept dangling NodeT* to nodes later freed through EBR).
//  * The limbo spinlocks are leaf locks: oldest_active_rq() — which spins
//    on another thread's kRqPending window — is snapshotted *before* the
//    limbo lock is taken, so a preempted query thread can no longer convoy
//    every rq_reconcile/limbo_size caller behind one prune.
//  * Pruning is cadence-driven (every kPruneEvery parks by that thread)
//    plus on-demand: flush_limbo(tid) drains every slot, so nodes stranded
//    by a thread that stopped updating (< kPruneEvery of them) still reach
//    EBR and, from there, their owner's pool.
//
// NodeT duck-typing requirements: fields `key`, `val`,
// `std::atomic<uint64_t> itime, dtime` initialised to kInfTs, an intrusive
// `std::atomic<NodeT*> limbo_next` link (owned by the provider while the
// node is parked; doubles as the EntryPool free-list link afterwards — the
// two uses never overlap), and `static void recycle(NodeT*)` routing the
// node back to its pool slot or the heap.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/cacheline.h"
#include "common/dcss.h"
#include "common/rwlock.h"
#include "common/spinlock.h"
#include "common/thread_registry.h"
#include "epoch/ebr.h"
#include "obs/metrics.h"

namespace bref {

enum class EbrRqMode { kLock, kLockFree };

/// Cross-instance obs gauges (ds layer): every live provider registers a
/// source. Free functions, not template members, so all NodeT
/// instantiations share one exposition series.
inline obs::GaugeSet& ebrrq_limbo_gauge() {
  static auto* g = new obs::GaugeSet(
      obs::GaugeSet::Agg::kSum, "bref_ebrrq_limbo_nodes",
      "Nodes parked in EBR-RQ limbo lists (sum over live providers)");
  return *g;
}
inline obs::GaugeSet& ebrrq_limbo_checked_counter() {
  static auto* g = new obs::GaugeSet(
      obs::GaugeSet::Agg::kSum, "bref_ebrrq_limbo_nodes_checked_total",
      "Limbo nodes scanned by range queries (sum over live providers)", "",
      obs::MetricKind::kCounter);
  return *g;
}

template <typename NodeT, typename K, typename V>
class EbrRqProvider {
 public:
  /// "Not yet stamped" (bigger than any real timestamp; bit 63 stays clear
  /// so the word remains DCSS-compatible).
  static constexpr uint64_t kInfTs = 1ull << 62;

  EbrRqProvider(EbrRqMode mode, Ebr& ebr) : mode_(mode), ebr_(&ebr) {
    limbo_src_ = ebrrq_limbo_gauge().add(
        [this] { return static_cast<double>(limbo_size()); });
    checked_src_ = ebrrq_limbo_checked_counter().add(
        [this] { return static_cast<double>(limbo_nodes_checked()); });
  }

  ~EbrRqProvider() {
    // Unregister the obs sources first: the drain below writes limbo state
    // without taking the leaf locks (quiescent teardown), so no snapshot
    // may still be able to read it.
    limbo_src_.reset();
    checked_src_.reset();
    for (auto& lb : limbo_) {
      NodeT* n = lb->head;
      while (n != nullptr) {
        NodeT* nx = n->limbo_next.load(std::memory_order_relaxed);
        NodeT::recycle(n);
        n = nx;
      }
      lb->head = nullptr;
      lb->count = 0;
    }
    // rq_end drains reports under the lock that gates pushes, so at
    // quiescent destruction no slot may still hold one (a parked report
    // would be a dangling NodeT* the moment EBR frees the node).
    for (auto& rs : rq_slots_) {
      assert(rs->reports.empty() && "report leaked past rq_end");
      (void)rs;
    }
  }

  EbrRqProvider(const EbrRqProvider&) = delete;
  EbrRqProvider& operator=(const EbrRqProvider&) = delete;

  // ---- update side ------------------------------------------------------

  /// Stamp a fresh (still private) node's insert time and run the physical
  /// linking `lin()`. The stamp precedes the link so a reachable node is
  /// always stamped.
  template <typename LinFn>
  void insert_op(int tid, NodeT* n, LinFn&& lin) {
    hwm_.note(tid);
    auto& sl = *slots_[tid];
    sl.ins.store(n, std::memory_order_seq_cst);
    stamp(tid, n->itime);
    lin();
    if (mode_ == EbrRqMode::kLockFree) report_insert(n);
    sl.ins.store(nullptr, std::memory_order_release);
  }

  /// Stamp a victim's delete time, run `lin()` (mark + unlink) and park it
  /// in the limbo list.
  template <typename LinFn>
  void remove_op(int tid, NodeT* victim, LinFn&& lin) {
    hwm_.note(tid);
    auto& sl = *slots_[tid];
    sl.del0.store(victim, std::memory_order_seq_cst);
    stamp(tid, victim->dtime);
    lin();
    park_in_limbo(tid, victim);
    sl.del0.store(nullptr, std::memory_order_release);
  }

  /// Citrus two-children removal: one new node (the successor copy) and two
  /// victims change in one operation. The copy's itime takes the first
  /// victim's dtime so the moved key is never absent from any snapshot
  /// (overlaps are deduplicated by key on the query side).
  template <typename LinFn, typename UnlinkFn>
  void replace_op(int tid, NodeT* copy, NodeT* victim1, NodeT* victim2,
                  LinFn&& lin, UnlinkFn&& unlink) {
    hwm_.note(tid);
    auto& sl = *slots_[tid];
    sl.del0.store(victim1, std::memory_order_seq_cst);
    sl.del1.store(victim2, std::memory_order_seq_cst);
    const uint64_t t = stamp(tid, victim1->dtime);
    copy->itime.store(t, std::memory_order_release);  // private: plain store
    lin();
    if (mode_ == EbrRqMode::kLockFree) report_insert(copy);
    stamp(tid, victim2->dtime);
    unlink();  // deferred physical unlink (e.g. after RCU grace period)
    park_in_limbo(tid, victim1);
    park_in_limbo(tid, victim2);
    sl.del0.store(nullptr, std::memory_order_release);
    sl.del1.store(nullptr, std::memory_order_release);
  }

  // ---- range-query side --------------------------------------------------

  /// Announce a query over [lo, hi] and return its snapshot timestamp
  /// (kLock and kLockFree alike: the fetch-add result).
  uint64_t rq_begin(int tid, K lo, K hi) {
    hwm_.note(tid);
    auto& rs = *rq_slots_[tid];
#ifndef NDEBUG
    {
      // rq_end drained under the lock gating pushes, so the slot is empty.
      std::lock_guard<Spinlock> g(rs.report_lock);
      assert(rs.reports.empty() && "stale report survived rq_end");
    }
#endif
    rs.lo.store(lo, std::memory_order_relaxed);
    rs.hi.store(hi, std::memory_order_relaxed);
    rs.ts.store(kRqPending, std::memory_order_seq_cst);
    uint64_t ts;
    if (mode_ == EbrRqMode::kLock) {
      rwlock_.lock();
      ts = ts_.fetch_add(1, std::memory_order_seq_cst);
      rwlock_.unlock();
    } else {
      ts = ts_.fetch_add(1, std::memory_order_seq_cst);
    }
    rs.ts.store(ts, std::memory_order_seq_cst);
    return ts;
  }

  void rq_end(int tid) {
    auto& rs = *rq_slots_[tid];
    if (mode_ == EbrRqMode::kLock) {
      // Lock mode never reports (insert_op gates report_insert on
      // kLockFree), so the slot is provably empty: keep the seed's single
      // release store on this hot path.
      rs.ts.store(kNoRq, std::memory_order_release);
      return;
    }
    // The kNoRq store and the report drain form one atomic step w.r.t.
    // report_insert (which re-checks ts under this lock). Without that, an
    // insert that read a live ts just before the store could push *after*
    // the drain, and the report — a raw NodeT* — would dangle until this
    // tid's next rq_begin, which may never come.
    std::lock_guard<Spinlock> g(rs.report_lock);
    rs.ts.store(kNoRq, std::memory_order_release);
    rs.reports.clear();
  }

  /// The counter's current value: the stamp of a trivially-empty query
  /// (lo > hi), which linearizes anywhere and so skips rq_begin.
  uint64_t now() const { return ts_.load(std::memory_order_seq_cst); }

  /// Snapshot membership test: itime <= ts < dtime. DCSS-helping reads in
  /// lock-free mode so a raw descriptor word is never misinterpreted.
  bool visible(const NodeT* n, uint64_t ts) const {
    uint64_t it, dt;
    if (mode_ == EbrRqMode::kLockFree) {
      it = dcss_.read(n->itime);
      dt = dcss_.read(n->dtime);
    } else {
      it = n->itime.load(std::memory_order_acquire);
      dt = n->dtime.load(std::memory_order_acquire);
    }
    return it <= ts && dt > ts;
  }

  /// After the structure traversal: fold in (1) nodes whose announced
  /// updates are in flight, (2) nodes reported to this query by completed
  /// inserts, (3) limbo nodes deleted after the snapshot that the traversal
  /// may have missed; then sort + dedupe by key.
  void rq_reconcile(int tid, uint64_t ts, K lo, K hi,
                    std::vector<std::pair<K, V>>& out) {
    const int n_threads = hwm_.get();
    for (int i = 0; i < n_threads; ++i) {
      auto& sl = *slots_[i];
      reconcile_slot(sl.ins, ts, lo, hi, out);
      reconcile_slot(sl.del0, ts, lo, hi, out);
      reconcile_slot(sl.del1, ts, lo, hi, out);
    }
    {
      auto& rs = *rq_slots_[tid];
      std::lock_guard<Spinlock> g(rs.report_lock);
      for (NodeT* n : rs.reports)
        if (n->key >= lo && n->key <= hi && visible(n, ts))
          out.emplace_back(n->key, n->val);
      rs.reports.clear();
    }
    for (int i = 0; i < n_threads; ++i) {
      auto& lb = *limbo_[i];
      std::lock_guard<Spinlock> g(lb.lock);
      for (NodeT* n = lb.head; n != nullptr;
           n = n->limbo_next.load(std::memory_order_relaxed)) {
        limbo_checked_.fetch_add(1, std::memory_order_relaxed);
        if (n->key >= lo && n->key <= hi && visible(n, ts))
          out.emplace_back(n->key, n->val);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              out.end());
  }

  // ---- limbo maintenance -------------------------------------------------

  /// On-demand drain of *every* thread's limbo slot: nodes no active or
  /// future range query can include are retired into `tid`'s EBR bag (and
  /// recycled to their owners' pools once the grace period elapses). The
  /// cadence-driven prune only fires every kPruneEvery parks *by the
  /// parking thread*, so a thread that stops updating strands its tail
  /// forever without this. Call while pinned. Returns #nodes retired.
  size_t flush_limbo(int tid) {
    hwm_.note(tid);
    const uint64_t oldest = oldest_active_rq();
    size_t n = 0;
    const int n_threads = hwm_.get();
    for (int i = 0; i < n_threads; ++i)
      n += prune_slot(*limbo_[i], oldest, tid);
    return n;
  }

  // ---- statistics --------------------------------------------------------
  uint64_t limbo_nodes_checked() const {
    return limbo_checked_.load(std::memory_order_relaxed);
  }
  size_t limbo_size() const {
    size_t n = 0;
    for (int i = 0; i < hwm_.get(); ++i) {
      auto& lb = *limbo_[i];
      std::lock_guard<Spinlock> g(lb.lock);
      n += lb.count;
    }
    return n;
  }

  /// Reports currently parked across all slots (tests: must be zero once
  /// quiescent — every push is gated on a live query whose rq_end drains).
  size_t pending_reports() {
    size_t n = 0;
    for (int i = 0; i < hwm_.get(); ++i) {
      auto& rs = *rq_slots_[i];
      std::lock_guard<Spinlock> g(rs.report_lock);
      n += rs.reports.size();
    }
    return n;
  }

 private:
  static constexpr uint64_t kNoRq = ~0ull;
  static constexpr uint64_t kRqPending = ~0ull - 1;

  struct AnnounceSlots {
    std::atomic<NodeT*> ins{nullptr};
    std::atomic<NodeT*> del0{nullptr};
    std::atomic<NodeT*> del1{nullptr};
  };

  /// Intrusive LIFO of unlinked-but-maybe-still-in-snapshot nodes, linked
  /// through NodeT::limbo_next — no per-park vector churn, and pruning
  /// relinks in place instead of erase/partition copies.
  struct Limbo {
    Spinlock lock;
    NodeT* head = nullptr;
    size_t count = 0;
    uint64_t appended = 0;
  };

  struct RqSlot {
    std::atomic<uint64_t> ts{kNoRq};
    // Announced bounds, read racily by report_insert (which deliberately
    // tolerates stale values — reports are re-checked on drain). Atomics
    // with relaxed ordering make the benign race well-defined.
    std::atomic<K> lo{};
    std::atomic<K> hi{};
    Spinlock report_lock;
    std::vector<NodeT*> reports;
  };

  /// Stamp `field` with the current global timestamp. Lock mode: plain
  /// store under the shared lock. Lock-free mode: DCSS retry loop — the
  /// stamp commits only if the counter has not moved, so stamps and query
  /// fetch-adds are totally ordered.
  uint64_t stamp(int tid, std::atomic<uint64_t>& field) {
    if (mode_ == EbrRqMode::kLock) {
      rwlock_.lock_shared();
      const uint64_t t = ts_.load(std::memory_order_seq_cst);
      field.store(t, std::memory_order_seq_cst);
      rwlock_.unlock_shared();
      return t;
    }
    for (;;) {
      const uint64_t t = ts_.load(std::memory_order_seq_cst);
      if (dcss_.dcss(tid, ts_, t, field, kInfTs, t)) return t;
    }
  }

  /// Lock-free mode: hand a just-linked insert to every announced range
  /// query whose range covers it. Range/visibility are re-checked when the
  /// query drains its reports, so stale slot metadata is harmless.
  void report_insert(NodeT* n) {
    const int n_threads = hwm_.get();
    for (int i = 0; i < n_threads; ++i) {
      auto& rs = *rq_slots_[i];
      const uint64_t v = rs.ts.load(std::memory_order_seq_cst);
      if (v == kNoRq) continue;
      if (n->key < rs.lo.load(std::memory_order_relaxed) ||
          n->key > rs.hi.load(std::memory_order_relaxed))
        continue;
      std::lock_guard<Spinlock> g(rs.report_lock);
      // Re-check under the lock: rq_end's kNoRq store + drain happen under
      // it too, so a push here is guaranteed to be seen (and drained) by
      // the still-live query rather than parked forever.
      if (rs.ts.load(std::memory_order_relaxed) == kNoRq) continue;
      rs.reports.push_back(n);
    }
  }

  void reconcile_slot(std::atomic<NodeT*>& slot, uint64_t ts, K lo, K hi,
                      std::vector<std::pair<K, V>>& out) {
    NodeT* n = slot.load(std::memory_order_acquire);
    if (n == nullptr) return;
    if (n->key < lo || n->key > hi) return;
    // Wait for the in-flight operation to complete so (a) its stamps are
    // final and (b) its physical effect is globally visible before this
    // query returns.
    Backoff bo;
    while (slot.load(std::memory_order_acquire) == n) bo.pause();
    if (visible(n, ts)) out.emplace_back(n->key, n->val);
  }

  void park_in_limbo(int tid, NodeT* n) {
    auto& lb = *limbo_[tid];
    bool prune_due;
    {
      std::lock_guard<Spinlock> g(lb.lock);
      n->limbo_next.store(lb.head, std::memory_order_relaxed);
      lb.head = n;
      ++lb.count;
      prune_due = (++lb.appended % kPruneEvery == 0);
    }
    // Prune outside the append's critical section: oldest_active_rq spins
    // on kRqPending windows, and holding lb.lock across that spin convoyed
    // every rq_reconcile/limbo_size caller behind one preempted query.
    if (prune_due) {
      const uint64_t oldest = oldest_active_rq();
      prune_slot(lb, oldest, tid);
    }
  }

  /// Move limbo nodes no active or future range query can include into EBR
  /// (which delays the recycle past any concurrent traversal). The caller
  /// must have snapshotted `oldest` with no limbo lock held. Returns the
  /// number of nodes retired into `retire_tid`'s bag.
  size_t prune_slot(Limbo& lb, uint64_t oldest, int retire_tid) {
    std::lock_guard<Spinlock> g(lb.lock);
    NodeT* keep = nullptr;
    size_t kept = 0;
    size_t pruned = 0;
    NodeT* n = lb.head;
    while (n != nullptr) {
      NodeT* nx = n->limbo_next.load(std::memory_order_relaxed);
      if (n->dtime.load(std::memory_order_acquire) > oldest) {
        n->limbo_next.store(keep, std::memory_order_relaxed);
        keep = n;
        ++kept;
      } else {
        ebr_->retire_recycle(retire_tid, n);
        ++pruned;
      }
      n = nx;
    }
    lb.head = keep;
    lb.count = kept;
    return pruned;
  }

  uint64_t oldest_active_rq() const {
    uint64_t oldest = ts_.load(std::memory_order_seq_cst);
    const int n_threads = hwm_.get();
    for (int i = 0; i < n_threads; ++i) {
      Backoff bo;
      uint64_t v;
      while ((v = rq_slots_[i]->ts.load(std::memory_order_seq_cst)) ==
             kRqPending)
        bo.pause();
      if (v != kNoRq && v < oldest) oldest = v;
    }
    return oldest;
  }

  static constexpr uint64_t kPruneEvery = 128;

  const EbrRqMode mode_;
  Ebr* ebr_;
  mutable DcssProvider dcss_;
  RWSpinlock rwlock_;
  TidHwm hwm_;
  std::atomic<uint64_t> ts_{1};  // 0 would collide with "before all time"
  mutable std::atomic<uint64_t> limbo_checked_{0};
  CachePadded<AnnounceSlots> slots_[kMaxThreads];
  mutable CachePadded<Limbo> limbo_[kMaxThreads];
  CachePadded<RqSlot> rq_slots_[kMaxThreads];
  // Last members: destroyed first, unregistering the obs callbacks before
  // the limbo state they read. limbo_size() takes only the limbo leaf
  // locks, which a snapshot may take under the registry lock (leaf-lock
  // ordering is preserved).
  obs::GaugeSet::Source limbo_src_;
  obs::GaugeSet::Source checked_src_;
};

}  // namespace bref
