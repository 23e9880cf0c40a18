#pragma once
// The bundle building block (Section 3, Listings 1-2, Algorithms 1-2).
//
// A Bundle is the history of one link in a linked data structure: a list of
// (pointer, timestamp) versions, newest first, ordered by timestamp. Update
// operations claim the link with a PENDING stamp before their linearization
// point and stamp it with the new global timestamp right after (Algorithm
// 1); range queries dereference the newest version whose timestamp does not
// exceed their snapshot (Section 3.3), waiting out a pending stamp so no
// linearized-but-unfinalized update is missed.
//
// The newest version lives inline, in three fields of the bundle itself
// (and so of the node that embeds it): a stamp, a pointer and the root of a
// chain of pooled entries that holds only superseded versions. A range
// query that needs the newest version — almost every one — reads the node
// and no entry, and a link that has one version holds no entry at all.
// Chains are only ever (a) prepended to at the root by updates and (b) cut,
// whole or below a kept entry, by reclaim_older: each update cuts the
// bundles it extended right after it finalizes them, and a sweep cuts only
// what those cuts had to keep (BundlePruner). Readers may walk a cut tail;
// reclamation is therefore routed through EBR, and entries come from
// per-thread pools (core/entry_pool.h) so the steady-state update path never
// touches the allocator.
//
// Memory-order audit (DESIGN.md §2 has the table form):
//   * An update owns the link from its claim (CAS of a finalized stamp to
//     PENDING, acquire: it happens-after the previous finalize) to its
//     finalize (release store of the new stamp). In between it pushes the
//     superseded pair onto the chain (release CAS) and release-stores the
//     new pointer.
//   * A reader reads stamp (acquire), pointer (acquire), stamp again. A
//     pointer written by a later update carries that update's claim with
//     it (the claim is sequenced before the release store of the pointer),
//     so the second load then reads PENDING or a later stamp. With unique
//     stamps (T = 1) an unchanged stamp therefore proves the pair
//     consistent; with shared stamps (Fig. 5) the pair is the pre-update
//     one or the finalized new one, both of which the chain protocol can
//     return.
//   * A reader whose snapshot predates the inline stamp acquire-loads the
//     chain root: that load happens-after the push of every version the
//     stamp superseded, and every push is a release RMW, so the relaxed
//     hops below the root read fully written entries.
//   * A cut loads the root before the stamp and cuts the whole chain only
//     by CAS-ing that root to null. A root holding the push of an update
//     would carry its claim with it, so an update whose claim the stamp
//     load missed pushes after the root load: the CAS either cuts first
//     (the push lands on an empty chain) or fails, and the pair a snapshot
//     between the two stamps needs survives.
//   * Cuts may race each other (an update's and a sweep's). Each retired
//     entry is taken by the one exchange that nulls the link holding it, so
//     no entry is retired twice.
//   * The protocol's one seq_cst ordering lives in GlobalTimestamp — an
//     update claims the link before the clock ticks, so a range query that
//     reads clock value T happens-after the claim of every update stamped
//     <= T and sees PENDING or its final stamp. (The push CAS and a cut's
//     root load are seq_cst too, but only for BundlePruner's residue mark.)

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/cacheline.h"
#include "core/entry_pool.h"
#include "core/global_timestamp.h"
#include "core/rq_tracker.h"
#include "core/sync_hooks.h"
#include "epoch/ebr.h"
#include "obs/metrics.h"

namespace bref {

/// Chain-depth histogram (obs, core layer): how many entries a bundle
/// dereference walks before finding its timestamp — the runtime view of
/// the technical report's depth-vs-cost breakdown. One histogram across
/// all Bundle instantiations (free function, not a template member).
/// Sampled 1-in-64 so the hot walk pays one thread-local countdown, no
/// atomic, in the unsampled case.
inline void obs_sample_bundle_depth(size_t hops) {
  if constexpr (!obs::kEnabled) return;
  thread_local uint32_t countdown = 0;
  if (countdown-- != 0) return;
  countdown = 63;
  static obs::Histogram& h = obs::registry().histogram(
      "bref_bundle_chain_depth",
      "Entries walked per bundle dereference (sampled 1-in-64)");
  h.observe(hops);
}

inline obs::Counter& obs_bundle_pruned_counter() {
  static obs::Counter& c = obs::registry().counter(
      "bref_bundle_entries_pruned_total",
      "Bundle entries retired by reclaim_older, at the update or by a "
      "maintenance sweep");
  return c;
}

/// One superseded link version: 32 bytes, 32-byte aligned, so `ts` and
/// `next` — the two fields a chain walk touches per hop — always share one
/// cache line with the pointer payload (a 24-byte unaligned entry could
/// straddle). `pool_tid` rides in what would otherwise be padding: the pool
/// slot the entry was allocated from (recycles route back there), or
/// kPoolMalloced when the pooled path is ablated away.
template <typename NodeT>
struct alignas(32) BundleEntry {
  NodeT* ptr;
  std::atomic<timestamp_t> ts;
  std::atomic<BundleEntry*> next;  // next-older entry; free-list link while pooled
  const int32_t pool_tid;

  explicit BundleEntry(int32_t owner)
      : ptr(nullptr), ts(0), next(nullptr), pool_tid(owner) {}

  /// Leading bytes (ptr, ts) ASan-poisoned while the entry sits in a free
  /// list; `next` and `pool_tid` stay readable for the pool itself.
  static constexpr size_t kPoolPoisonBytes =
      sizeof(NodeT*) + sizeof(std::atomic<timestamp_t>);

  /// EBR recycle hook (Ebr::retire_recycle): hand the entry back to its
  /// owning pool — or the heap, for malloc-bypass entries.
  static void recycle(BundleEntry* e) { EntryPool<BundleEntry>::release(e); }
};

/// Result of dereferencing a bundle at a snapshot timestamp. `found` is
/// false, and `ptr` null, when no version satisfies the timestamp: the node
/// was inserted after it. Algorithm 3 line 7 restarts the range query then;
/// here only a walk's entry can meet it, and the walk climbs its seek path
/// to a node that has one instead (DESIGN.md §1, §4).
template <typename NodeT>
struct BundleDeref {
  NodeT* ptr = nullptr;
  bool found = false;
};

template <typename NodeT>
class Bundle {
 public:
  using Entry = BundleEntry<NodeT>;

  static_assert(sizeof(Entry) == alignof(Entry),
                "entry must tile exactly so ts/next never straddle a line");
  static_assert(kCacheLine % sizeof(Entry) == 0,
                "whole entries per cache line");

  /// A claimed link, from prepare() to finalize(): the bundle and the
  /// stamp of the version it supersedes (0 for the link's first version),
  /// which finalize() clamps against.
  struct Prepared {
    Bundle* bundle;
    timestamp_t floor;
  };

  Bundle() = default;
  Bundle(const Bundle&) = delete;
  Bundle& operator=(const Bundle&) = delete;

  ~Bundle() { clear(); }

  /// Quiescent teardown only: the chain goes straight back to its pools
  /// and the bundle is left empty, as a pooled node is reused.
  void clear() {
    Entry* e = older_.load(std::memory_order_relaxed);
    older_.store(nullptr, std::memory_order_relaxed);
    ts_.store(kEmptyTs, std::memory_order_relaxed);
    ptr_.store(nullptr, std::memory_order_relaxed);
    while (e != nullptr) {
      Entry* n = e->next.load(std::memory_order_relaxed);
      Entry::recycle(e);
      e = n;
    }
  }

  /// Install the very first version with a known timestamp; used when
  /// initializing sentinel links before the structure is shared (e.g. the
  /// head sentinel's timestamp-0 link in Figure 1). It lives inline, so it
  /// takes no entry and the constructing thread needs no pool slot.
  void init(NodeT* ptr, timestamp_t ts) {
    assert(ts_.load(std::memory_order_relaxed) == kEmptyTs);
    ptr_.store(ptr, std::memory_order_relaxed);
    ts_.store(ts, std::memory_order_release);
  }

  /// Algorithm 2 (PrepareBundle): claim the link with a PENDING stamp,
  /// first waiting for any concurrent update's pending stamp to be
  /// finalized so versions stay ordered; move the superseded pair onto the
  /// chain (an entry from `tid`'s pool slot — zero heap traffic in steady
  /// state) and install `ptr` inline. Returns the claim for finalize().
  Prepared prepare(int tid, NodeT* ptr) {
    Backoff bo;
    timestamp_t old = ts_.load(std::memory_order_relaxed);
    for (;;) {
      // Block behind an in-flight update on this same link (Alg. 2 line 8).
      if (old == kPendingTs) {
        bo.pause();
        old = ts_.load(std::memory_order_relaxed);
        continue;
      }
      // Success = acquire: pairs with the previous finalize()'s release,
      // so the pointer load below reads that update's pointer. Failure
      // reloads the stamp; nothing is read before the claim succeeds.
      if (ts_.compare_exchange_weak(old, kPendingTs, std::memory_order_acquire,
                                    std::memory_order_relaxed))
        break;
    }
    if (old != kEmptyTs) push(tid, ptr_.load(std::memory_order_relaxed), old);
    SyncHooks::run(SyncHooks::after_claim);
    // Release: a reader that loads this pointer happens-after the claim,
    // so its stamp recheck reads PENDING or a later stamp (dereference()).
    ptr_.store(ptr, std::memory_order_release);
    return {this, old == kEmptyTs ? 0 : old};
  }

  /// Stamp a claimed link, making its new version visible to range
  /// queries. The clamp against the superseded stamp keeps versions ordered
  /// under the relaxed timestamp policy (Fig. 5), where two threads may hold
  /// the same clock value; with the linearizable policy it never fires.
  static void finalize(const Prepared& p, timestamp_t ts) {
    if (ts < p.floor) ts = p.floor;
    // Release, not seq_cst: a range query is ordered relative to this
    // update by the seq_cst global-timestamp accesses (it reads the clock
    // *after* our fetch-add if its snapshot covers us, so it sees the claim
    // at least), and the pointer and the pushed pair are already published.
    // The stamp only has to release the readers spinning on PENDING.
    p.bundle->ts_.store(ts, std::memory_order_release);
  }

  /// DereferenceBundle (Section 3.3): wait out a pending stamp, then return
  /// the newest link whose timestamp is <= `ts`: the inline pair when it
  /// is old enough, else the first such chain entry.
  BundleDeref<NodeT> dereference(timestamp_t ts) const {
    assert(ts < kEmptyTs);
    const auto [p, newest_ts] = read_inline();
    size_t hops = 1;
    if (newest_ts <= ts) {
      obs_sample_bundle_depth(hops);
      return {p, true};
    }
    // Acquire: happens-after the push of every version the inline stamp
    // superseded (each push is a release RMW on the root), which is what
    // lets every per-hop load below be relaxed.
    for (Entry* e = older_.load(std::memory_order_acquire); e != nullptr;
         e = e->next.load(std::memory_order_relaxed)) {
      ++hops;
      if (e->ts.load(std::memory_order_relaxed) <= ts) {
        obs_sample_bundle_depth(hops);
        return {e->ptr, true};
      }
    }
    obs_sample_bundle_depth(hops);
    return {nullptr, false};
  }

  /// Newest finalized link (waits out a pending stamp). Equivalent to
  /// dereference(∞); used by asserts and invariant checks.
  NodeT* newest() const {
    const auto [p, t] = read_inline();
    assert(t != kEmptyTs);
    return p;
  }

  /// Prune versions no active range query can need: keep everything newer
  /// than `oldest_active` plus the one version that satisfies it; retire
  /// the rest through EBR's recycle path (supplementary B), which returns
  /// them to their owners' pools after the grace period. Returns #entries
  /// retired. Skips (returns 0) while the link is claimed. Any number of
  /// calls may run at once, each with its own bound.
  size_t reclaim_older(timestamp_t oldest_active, Ebr& ebr, int tid) {
    // Root before stamp, and acquire: an update whose claim the stamp load
    // misses pushes after this load, so the whole-chain cut below cannot
    // remove the pair it superseded (which a snapshot between the two
    // stamps still needs). seq_cst for BundlePruner's mark (see there).
    Entry* root = older_.load(std::memory_order_seq_cst);
    if (root == nullptr) return 0;
    SyncHooks::run(SyncHooks::reclaim_between_loads);
    const timestamp_t t = ts_.load(std::memory_order_acquire);
    if (t == kPendingTs) return 0;
    Entry* stale;
    if (t <= oldest_active) {
      // The inline pair satisfies every current and future snapshot, so
      // the whole chain goes — unless an update pushed since the root load.
      if (!older_.compare_exchange_strong(root, nullptr,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed))
        return 0;
      stale = root;
    } else {
      // Find the newest entry satisfying oldest_active; entries strictly
      // older than it are unreachable by any current or future range
      // query. Relaxed hops for the same reason as dereference().
      Entry* e = root;
      while (e != nullptr &&
             e->ts.load(std::memory_order_relaxed) > oldest_active)
        e = e->next.load(std::memory_order_relaxed);
      // Usually the kept entry is already the last one; then skip the
      // locked write, which would dirty a line the next range query may
      // fetch again. Only a cut ever changes a reachable entry's `next`
      // after publication, so a null read is final.
      if (e == nullptr || e->next.load(std::memory_order_relaxed) == nullptr)
        return 0;
      // Acquire half orders the cut against our reads of the stale chain;
      // release half is for readers mid-walk that load the nullptr.
      stale = e->next.exchange(nullptr, std::memory_order_acq_rel);
    }
    // Take each link before retiring past it: a concurrent cut that kept an
    // entry of this tail exchanges that entry's `next` too, and the RMWs on
    // one link are totally ordered, so only the one that reads it non-null
    // retires what follows (relaxed: the entries' fields are covered above).
    size_t n = 0;
    while (stale != nullptr) {
      Entry* next = stale->next.exchange(nullptr, std::memory_order_relaxed);
      ebr.retire_recycle(tid, stale);
      stale = next;
      ++n;
    }
    if (n != 0) obs_bundle_pruned_counter().add(tid, n);
    return n;
  }

  /// Whether the chain holds a superseded version: what a cut left behind.
  bool has_older() const {
    return older_.load(std::memory_order_acquire) != nullptr;
  }

  // -- introspection (tests, space-overhead accounting) -----------------
  // Versions, not entries: the inline pair counts as one.
  size_t size() const {
    size_t n = ts_.load(std::memory_order_acquire) == kEmptyTs ? 0 : 1;
    for (Entry* e = older_.load(std::memory_order_acquire); e != nullptr;
         e = e->next.load(std::memory_order_relaxed))
      ++n;
    return n;
  }

  std::vector<std::pair<timestamp_t, NodeT*>> snapshot_entries() const {
    std::vector<std::pair<timestamp_t, NodeT*>> out;
    const timestamp_t t = ts_.load(std::memory_order_acquire);
    if (t != kEmptyTs)
      out.emplace_back(t, ptr_.load(std::memory_order_acquire));
    for (Entry* e = older_.load(std::memory_order_acquire); e != nullptr;
         e = e->next.load(std::memory_order_relaxed))
      out.emplace_back(e->ts.load(std::memory_order_acquire), e->ptr);
    return out;
  }

 private:
  /// Stamp of a link that has no version yet (prepare() supersedes
  /// nothing). Above every clock value, so it satisfies no snapshot.
  static constexpr timestamp_t kEmptyTs = kPendingTs - 1;

  /// The inline (pointer, stamp) pair, read consistently: stamp,
  /// pointer, stamp again, waiting out a pending stamp (audit in the header
  /// comment).
  std::pair<NodeT*, timestamp_t> read_inline() const {
    Backoff bo;
    for (;;) {
      // Acquire pairs with finalize()'s release: the pointer load below
      // reads that update's pointer or a later one.
      const timestamp_t t = ts_.load(std::memory_order_acquire);
      if (t == kPendingTs) {
        bo.pause();
        continue;
      }
      // Acquire pairs with prepare()'s release store: a later update's
      // pointer carries that update's claim, and keeps the recheck after it.
      NodeT* p = ptr_.load(std::memory_order_acquire);
      if (ts_.load(std::memory_order_relaxed) == t) return {p, t};
    }
  }

  /// Move a superseded pair onto the chain. Only the claim holder pushes,
  /// so the CAS races only a whole-chain cut. Release: a reader that
  /// acquire-loads the root sees the entry's fields, and the RMW extends the
  /// release sequence of every earlier push. seq_cst for BundlePruner's
  /// mark (see there); an x86 CAS costs the same either way.
  void push(int tid, NodeT* ptr, timestamp_t ts) {
    Entry* e = EntryPool<Entry>::instance().acquire(tid);
    e->ptr = ptr;
    e->ts.store(ts, std::memory_order_relaxed);
    Entry* root = older_.load(std::memory_order_relaxed);
    do {
      e->next.store(root, std::memory_order_relaxed);
    } while (!older_.compare_exchange_weak(root, e, std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
  }

  std::atomic<timestamp_t> ts_{kEmptyTs};
  std::atomic<NodeT*> ptr_{nullptr};
  std::atomic<Entry*> older_{nullptr};  // superseded versions, newest first
};

/// The prune of one bundled structure (DESIGN.md §2, §6): the paper's
/// cleaner (supplementary B), moved to the update. Every update cuts the
/// bundles it extended once it has finalized them (after_update), and marks
/// the structure when a cut had to keep a superseded version; an update of a
/// structure that does not reclaim cuts nothing and always marks. The
/// structure's sweep, prune_bundles, walks only when the mark is set
/// (sweep()).
///
/// An update reads the mark before it sets it, so the line stays shared
/// while the mark is up. That is the store-buffering pattern, safe only
/// with seq_cst on both sides: the update pushes (seq_cst CAS) before it
/// reads the mark (seq_cst), and the sweep clears the mark (seq_cst
/// exchange) before it loads any chain root (seq_cst). So an update that
/// reads a mark about to be cleared pushed before the clearing sweep loads
/// that root.
class BundlePruner {
 public:
  BundlePruner(const GlobalTimestamp& gts, const RqTracker& rq, Ebr& ebr,
               bool reclaim)
      : gts_(gts), rq_(rq), ebr_(ebr), reclaim_(reclaim) {}

  /// Cut the `n` bundles an update has just finalized. The update still
  /// holds their node locks and, when reclaiming, its EBR pin, and the
  /// entries it cuts recycle through its own bag. The bound is read after
  /// the update's clock tick, so with no older snapshot active it covers
  /// the update's own stamp and the chain goes whole. A bound read before
  /// the tick, as any cached one is, would keep the superseded pair on
  /// every link the update changes.
  template <typename NodeT>
  void after_update(int tid, const typename Bundle<NodeT>::Prepared* p,
                    int n) {
    bool kept = !reclaim_;
    if (reclaim_) {
      const timestamp_t bound = rq_.oldest_active_nowait(gts_);
      for (int i = 0; i < n; ++i) {
        p[i].bundle->reclaim_older(bound, ebr_, tid);
        kept = kept || p[i].bundle->has_older();
      }
    }
    if (kept) mark();
  }

  /// One sweep: while the mark is down, return 0 without walking.
  /// Otherwise clear it and call `walk(cut)`, which passes every bundle of
  /// the structure to `cut`; a bundle the sweep leaves a superseded version
  /// in marks the structure again. Returns the entries retired.
  template <typename Walk>
  size_t sweep(int tid, Walk&& walk) {
    if (!residue_->load(std::memory_order_relaxed) ||
        !residue_->exchange(false, std::memory_order_seq_cst))
      return 0;
    const timestamp_t bound = rq_.oldest_active(gts_);
    Ebr::Guard g(ebr_, tid);
    size_t n = 0;
    bool kept = false;
    walk([&](auto& bundle) {
      n += bundle.reclaim_older(bound, ebr_, tid);
      kept = kept || bundle.has_older();
    });
    if (kept) mark();
    return n;
  }

 private:
  void mark() {
    if (!residue_->load(std::memory_order_seq_cst))
      residue_->store(true, std::memory_order_seq_cst);
  }

  const GlobalTimestamp& gts_;
  const RqTracker& rq_;
  Ebr& ebr_;
  const bool reclaim_;
  CachePadded<std::atomic<bool>> residue_;
};

/// Algorithm 1 (LinearizeUpdateOperation): prepare every bundle, advance the
/// global timestamp, run the linearization point, finalize; then cut the
/// finalized bundles (BundlePruner::after_update). `bundles` pairs each
/// bundle with the new link value it must record; `linearize` is the
/// data-structure-specific linearization action (pointer swing or flag set).
///
/// Note on the paper text: Alg. 1 line 7 reads FinalizeBundle(b, ts+1), but
/// Figure 1's worked example requires entries to carry the post-increment
/// value `ts` itself (first insert -> entries stamped 1 with globalTs
/// starting at 0); we follow the figure. See DESIGN.md §1.
template <typename NodeT, typename LinearizeFn>
timestamp_t linearize_update(
    GlobalTimestamp& gts, BundlePruner& pruner, int tid,
    std::initializer_list<std::pair<Bundle<NodeT>*, NodeT*>> bundles,
    LinearizeFn&& linearize) {
  typename Bundle<NodeT>::Prepared prepared[4];
  int n = 0;
  for (const auto& [bundle, ptr] : bundles) {
    assert(n < 4);
    prepared[n++] = bundle->prepare(tid, ptr);
  }
  SyncHooks::run(SyncHooks::after_prepare);
  const timestamp_t ts = gts.update_ts(tid);
  linearize();  // the operation's linearization point
  SyncHooks::run(SyncHooks::before_finalize);
  for (int i = 0; i < n; ++i) Bundle<NodeT>::finalize(prepared[i], ts);
  pruner.after_update<NodeT>(tid, prepared, n);
  return ts;
}

}  // namespace bref
