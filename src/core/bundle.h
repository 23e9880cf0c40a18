#pragma once
// The bundle building block (Section 3, Listings 1-2, Algorithms 1-2).
//
// A Bundle is the history of one link in a linked data structure: a stack of
// (pointer, timestamp) entries, newest first, strictly ordered by timestamp.
// Update operations prepend a PENDING entry before their linearization point
// and stamp it with the new global timestamp right after (Algorithm 1);
// range queries dereference the newest entry whose timestamp does not exceed
// their snapshot (Section 3.3), waiting out a pending head so no linearized-
// but-unfinalized update is missed.
//
// Entry chains are only ever (a) prepended to at the head by updates and
// (b) truncated at the tail by the cleaner (reclaim_older). Readers may walk
// a truncated tail; reclamation is therefore routed through EBR, and entries
// themselves come from per-thread pools (core/entry_pool.h) so the
// steady-state update path never touches the allocator: prepare() pops from
// the calling thread's pool, EBR's drain recycles pruned entries back to
// their owner's pool.
//
// Memory-order audit (DESIGN.md §2 has the table form):
//   The chain obeys one structural rule — an entry is prepended only after
//   the previous head is finalized — and every acquire in this file exists
//   to found the same transitivity argument: each preparer ACQUIRE-reads
//   the head it prepends to and RELEASE-publishes its own entry, so a
//   reader that acquire-loads the head happens-after the publication (and
//   finalization) of *every* entry currently reachable from it. Everything
//   deeper in the chain can therefore be read relaxed: the values are
//   pinned by coherence once the happens-before edge from the head load
//   exists. The only seq_cst in the protocol lives in GlobalTimestamp —
//   an update's entry is prepended before the clock ticks, so a range
//   query that reads clock value T is ordered after every update stamped
//   <= T and must find its entry at or below the head it loads.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "core/entry_pool.h"
#include "core/global_timestamp.h"
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
      "Bundle entries retired by reclaim_older (cleaner/maintenance)");
  return c;
}

/// One link version: 32 bytes, 32-byte aligned, so `ts` and `next` — the
/// two fields a dereference touches per hop — always share one cache line
/// with the pointer payload (a 24-byte unaligned entry could straddle).
/// `pool_tid` rides in what would otherwise be padding: the pool slot the
/// entry was allocated from (recycles route back there), or kPoolMalloced
/// when the pooled path is ablated away.
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
/// false when no entry satisfies the timestamp (the link did not exist at
/// snapshot time — Algorithm 3 line 7 restarts the range query).
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

  Bundle() = default;
  Bundle(const Bundle&) = delete;
  Bundle& operator=(const Bundle&) = delete;

  ~Bundle() { clear(); }

  /// Quiescent teardown only: the chain goes straight back to its pools
  /// and the bundle is left empty, as a pooled node is reused.
  void clear() {
    Entry* e = head_.load(std::memory_order_relaxed);
    head_.store(nullptr, std::memory_order_relaxed);
    while (e != nullptr) {
      Entry* n = e->next.load(std::memory_order_relaxed);
      Entry::recycle(e);
      e = n;
    }
  }

  /// Install the very first entry with a known timestamp; used when
  /// initializing sentinel links before the structure is shared (e.g. the
  /// head sentinel's timestamp-0 entry in Figure 1). Runs on the
  /// constructing thread, whose dense id is unknown — so it must NOT
  /// touch any pool slot (free lists are single-consumer; popping another
  /// thread's slot would race). Sentinel entries are rare (a handful per
  /// structure), so they take the heap path and are tagged accordingly.
  void init(NodeT* ptr, timestamp_t ts) {
    assert(head_.load(std::memory_order_relaxed) == nullptr);
    Entry* e = new Entry(kPoolMalloced);
    e->ptr = ptr;
    e->ts.store(ts, std::memory_order_relaxed);
    head_.store(e, std::memory_order_release);
  }

  /// Algorithm 2 (PrepareBundle): atomically prepend a PENDING entry for
  /// `ptr`, first waiting for any concurrent update's pending head to be
  /// finalized so entries stay ordered. The entry comes from `tid`'s pool
  /// slot — zero heap traffic in steady state. Returns the entry for
  /// finalize().
  Entry* prepare(int tid, NodeT* ptr) {
    Entry* fresh = acquire_entry(tid, ptr, kPendingTs);
    Backoff bo;
    for (;;) {
      // Acquire: founds the transitivity argument (header comment) — our
      // release-CAS below passes on everything this load saw.
      Entry* expected = head_.load(std::memory_order_acquire);
      fresh->next.store(expected, std::memory_order_relaxed);
      if (expected != nullptr) {
        // Block behind an in-flight update on this same link (Alg. 2
        // line 8). Acquire pairs with finalize()'s release so the clamp
        // below may reread the stamp relaxed (same-thread coherence).
        while (expected->ts.load(std::memory_order_acquire) == kPendingTs)
          bo.pause();
      }
      // Success = release: publishes fresh's fields and, transitively, the
      // finalized chain behind it. Failure needs no ordering — the loop
      // reloads the head with acquire before using anything.
      if (head_.compare_exchange_weak(expected, fresh,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
        return fresh;
      }
    }
  }

  /// Stamp a prepared entry, making it visible to range queries. The clamp
  /// against the next-older entry keeps the chain ordered under the relaxed
  /// timestamp policy (Fig. 5), where two threads may hold the same clock
  /// value; with the linearizable policy it never fires.
  static void finalize(Entry* e, timestamp_t ts) {
    // Both relaxed loads reread values this thread already read with
    // acquire in prepare() (its own stores, and the pending-wait on the
    // older entry); coherence pins them.
    Entry* older = e->next.load(std::memory_order_relaxed);
    if (older != nullptr) {
      timestamp_t floor = older->ts.load(std::memory_order_relaxed);
      if (ts < floor) ts = floor;
    }
    // Release, not seq_cst: a range query is ordered relative to this
    // update by the seq_cst global-timestamp accesses (it reads the clock
    // *after* our fetch-add if its snapshot covers us), and the entry
    // itself was already published by prepare()'s CAS. The stamp only has
    // to release the waiting readers spinning in dereference().
    e->ts.store(ts, std::memory_order_release);
  }

  /// DereferenceBundle (Section 3.3): wait out a pending head, then return
  /// the newest link whose timestamp is <= `ts`.
  BundleDeref<NodeT> dereference(timestamp_t ts) const {
    // Acquire: happens-after the publication of every entry reachable from
    // this head (transitivity argument, header comment) — which is what
    // lets every per-hop load below be relaxed.
    Entry* e = head_.load(std::memory_order_acquire);
    if (e != nullptr) {
      Backoff bo;
      // Acquire pairs with finalize()'s release; only the head can be
      // pending (prepare() waits before prepending).
      while (e->ts.load(std::memory_order_acquire) == kPendingTs) bo.pause();
    }
    // Relaxed hops: each entry's fields were written before its
    // publication, each publication happens-before the head we
    // acquire-loaded, and coherence forbids reading anything older.
    size_t hops = 0;
    for (; e != nullptr; e = e->next.load(std::memory_order_relaxed)) {
      ++hops;
      if (e->ts.load(std::memory_order_relaxed) <= ts) {
        obs_sample_bundle_depth(hops);
        return {e->ptr, true};
      }
    }
    obs_sample_bundle_depth(hops);
    return {nullptr, false};
  }

  /// Newest finalized link (waits out a pending head). Equivalent to
  /// dereference(∞) but cheaper; used by asserts and the cleaner.
  NodeT* newest() const {
    Entry* e = head_.load(std::memory_order_acquire);
    assert(e != nullptr);
    Backoff bo;
    timestamp_t t;
    while ((t = e->ts.load(std::memory_order_acquire)) == kPendingTs)
      bo.pause();
    (void)t;
    return e->ptr;
  }

  /// Prune entries no active range query can need: keep everything newer
  /// than `oldest_active` plus the one entry that satisfies it; retire the
  /// rest through EBR's recycle path (supplementary B), which returns them
  /// to their owners' pools after the grace period. Returns #entries
  /// retired. Skips (returns 0) if the head is pending.
  size_t reclaim_older(timestamp_t oldest_active, Ebr& ebr, int tid) {
    Entry* e = head_.load(std::memory_order_acquire);
    if (e == nullptr) return 0;
    if (e->ts.load(std::memory_order_acquire) == kPendingTs) return 0;
    // Find the newest entry satisfying oldest_active; entries strictly
    // older than it are unreachable by any current or future range query.
    // Relaxed hops for the same reason as dereference(); everything below
    // the (finalized) head is finalized.
    while (e != nullptr &&
           e->ts.load(std::memory_order_relaxed) > oldest_active) {
      e = e->next.load(std::memory_order_relaxed);
    }
    // Usually the kept entry is already the last one (one entry per
    // bundle); then skip the locked write, which would dirty a line the
    // next range query must fetch again. Only a truncation ever changes a
    // reachable entry's `next` after publication, so a null read is final.
    if (e == nullptr || e->next.load(std::memory_order_relaxed) == nullptr)
      return 0;
    // Acquire half orders the truncation against our reads of the stale
    // chain; release half is for readers mid-walk that load the nullptr.
    Entry* stale = e->next.exchange(nullptr, std::memory_order_acq_rel);
    size_t n = 0;
    while (stale != nullptr) {
      Entry* next = stale->next.load(std::memory_order_relaxed);
      ebr.retire_recycle(tid, stale);
      stale = next;
      ++n;
    }
    if (n != 0) obs_bundle_pruned_counter().add(tid, n);
    return n;
  }

  // -- introspection (tests, space-overhead accounting) -----------------
  size_t size() const {
    size_t n = 0;
    for (Entry* e = head_.load(std::memory_order_acquire); e != nullptr;
         e = e->next.load(std::memory_order_relaxed))
      ++n;
    return n;
  }

  std::vector<std::pair<timestamp_t, NodeT*>> snapshot_entries() const {
    std::vector<std::pair<timestamp_t, NodeT*>> out;
    for (Entry* e = head_.load(std::memory_order_acquire); e != nullptr;
         e = e->next.load(std::memory_order_relaxed))
      out.emplace_back(e->ts.load(std::memory_order_acquire), e->ptr);
    return out;
  }

 private:
  /// Pool pop + field reset (the caller publishes; no ordering needed on
  /// the stores — prepare()'s release-CAS or init()'s release covers them).
  static Entry* acquire_entry(int tid, NodeT* ptr, timestamp_t ts) {
    Entry* e = EntryPool<Entry>::instance().acquire(tid);
    e->ptr = ptr;
    e->ts.store(ts, std::memory_order_relaxed);
    e->next.store(nullptr, std::memory_order_relaxed);
    return e;
  }

  std::atomic<Entry*> head_{nullptr};
};

/// Algorithm 1 (LinearizeUpdateOperation): prepare every bundle, advance the
/// global timestamp, run the linearization point, finalize. `bundles` pairs
/// each bundle with the new link value it must record; `linearize` is the
/// data-structure-specific linearization action (pointer swing or flag set).
///
/// Note on the paper text: Alg. 1 line 7 reads FinalizeBundle(b, ts+1), but
/// Figure 1's worked example requires entries to carry the post-increment
/// value `ts` itself (first insert -> entries stamped 1 with globalTs
/// starting at 0); we follow the figure. See DESIGN.md §1.
template <typename NodeT, typename LinearizeFn>
timestamp_t linearize_update(
    GlobalTimestamp& gts, int tid,
    std::initializer_list<std::pair<Bundle<NodeT>*, NodeT*>> bundles,
    LinearizeFn&& linearize) {
  BundleEntry<NodeT>* prepared[4];
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
  return ts;
}

}  // namespace bref
