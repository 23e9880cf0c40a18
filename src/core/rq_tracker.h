#pragma once
// Active-range-query tracker (`activeRqTsArray`, supplementary B).
//
// Each range query announces the snapshot timestamp it runs at; the bundle
// cleaner uses the minimum announced value to decide which bundle entries
// are dead. Announcing is a two-step protocol — PENDING, then the value —
// because reading the global timestamp and publishing it cannot be one
// atomic action; the cleaner waits out PENDING slots so it can never miss a
// query that has read the clock but not yet published its value.
//
// The range-query protocol around the announce lives here too, once for the
// three bundled structures: snapshot() for queries that fix their own
// timestamp, collect_at() for range_query_at (DESIGN.md §4).

#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/backoff.h"
#include "common/cacheline.h"
#include "common/thread_registry.h"
#include "core/global_timestamp.h"
#include "core/sync_hooks.h"

namespace bref {

class RqTracker {
 public:
  static constexpr timestamp_t kNone = ~0ull;
  static constexpr timestamp_t kAnnouncePending = ~0ull - 1;

  /// Begin a range query: fix and publish its snapshot timestamp.
  timestamp_t begin(int tid, const GlobalTimestamp& gts) noexcept {
    announce_pending(tid);
    const timestamp_t ts = gts.read();
    SyncHooks::run(SyncHooks::rq_mid_announce);
    return publish(tid, ts);
  }

  /// First half of the announce protocol, split out for coordinated
  /// cross-shard range queries (src/shard/sharded_set.h): the coordinator
  /// marks every overlapping shard's tracker PENDING, reads the shared
  /// clock ONCE, then publish()es that value everywhere. The safety
  /// argument is begin()'s, per shard: a cleaner that scans this slot
  /// before the PENDING store read its clock bound before our clock read,
  /// so it pruned only below our timestamp.
  void announce_pending(int tid) noexcept {
    hwm_.note(tid);
    slots_[tid]->store(kAnnouncePending, std::memory_order_seq_cst);
  }

  /// Bulk form of announce_pending for a coordinated query overlapping
  /// many shards: note every tracker's thread high-water mark first (the
  /// loads), then issue the PENDING stores back-to-back — one cache-line
  /// write per shard with no interleaved loads between them, so the
  /// stores stream through the write buffer instead of each waiting out a
  /// read round-trip. Each store carries exactly announce_pending()'s
  /// per-shard ordering guarantee; batching reorders nothing a concurrent
  /// cleaner could distinguish (it observes one slot, not the batch).
  static void announce_pending_all(int tid, RqTracker* const* trackers,
                                   size_t n) noexcept {
    for (size_t i = 0; i < n; ++i) trackers[i]->hwm_.note(tid);
    for (size_t i = 0; i < n; ++i)
      trackers[i]->slots_[tid]->store(kAnnouncePending,
                                      std::memory_order_seq_cst);
  }

  /// Second half: publish the fixed snapshot timestamp. Returns `ts`.
  timestamp_t publish(int tid, timestamp_t ts) noexcept {
    slots_[tid]->store(ts, std::memory_order_seq_cst);
    return ts;
  }

  void end(int tid) noexcept {
    slots_[tid]->store(kNone, std::memory_order_release);
  }

  /// Algorithm 3's protocol, once for every bundled structure: announce and
  /// fix a snapshot timestamp, run `walk(ts)`, and restart at a newer
  /// timestamp while the walk reports that a link it needed postdates the
  /// snapshot (returns false). Returns the timestamp the walk succeeded at.
  /// A reclaiming caller pins its EBR guard before calling, so the pin
  /// precedes every clock read.
  template <typename Walk>
  timestamp_t snapshot(int tid, const GlobalTimestamp& gts, Walk&& walk) {
    for (;;) {
      const timestamp_t ts = begin(tid, gts);
      if (walk(ts)) {
        end(tid);
        return ts;
      }
    }
  }

  /// range_query_at's retry at an externally fixed timestamp: rerun `walk()`
  /// until it succeeds. Under the caller contract (the timestamp announced
  /// here, and the EBR pin taken, before the clock read) a walk can only
  /// fail on the bounded optimistic-entry race, never repeatedly: a walk
  /// that keeps failing means the timestamp was never announced and the
  /// cleaner pruned past it — a contract violation, not a state to spin in
  /// silently.
  template <typename Walk>
  static void collect_at(Walk&& walk) {
    for (uint64_t attempts = 0; !walk(); ++attempts)
      assert(attempts < (1u << 20) &&
             "range_query_at: ts not announced in rq_tracker()?");
  }

  /// Oldest timestamp any active or future range query can observe.
  /// Safe lower bound for pruning: reads the clock first (future queries
  /// observe >= this), then scans slots, waiting out in-flight announces.
  timestamp_t oldest_active(const GlobalTimestamp& gts) const noexcept {
    timestamp_t oldest = gts.read();
    const int n = hwm_.get();
    for (int i = 0; i < n; ++i) {
      Backoff bo;
      timestamp_t v;
      while ((v = slots_[i]->load(std::memory_order_seq_cst)) ==
             kAnnouncePending)
        bo.pause();
      if (v != kNone && v < oldest) oldest = v;
    }
    return oldest;
  }

  int active_count() const noexcept {
    int n = 0;
    for (int i = 0; i < kMaxThreads; ++i) {
      timestamp_t v = slots_[i]->load(std::memory_order_acquire);
      if (v != kNone) ++n;
    }
    return n;
  }

 private:
  TidHwm hwm_;
  mutable CachePadded<std::atomic<timestamp_t>> slots_[kMaxThreads] = {};

  // Slots must start at kNone; CachePadded default-constructs atomics to 0,
  // so fix them up here.
 public:
  RqTracker() {
    for (auto& s : slots_) s->store(kNone, std::memory_order_relaxed);
  }
};

}  // namespace bref
