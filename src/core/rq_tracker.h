#pragma once
// Active-range-query tracker (`activeRqTsArray`, supplementary B).
//
// Each range query announces the snapshot timestamp it runs at; every cut
// of a bundle chain — an update's own, right after it finalizes, and the
// sweep's — uses the minimum announced value to decide which bundle entries
// are dead. Announcing is a two-step protocol — PENDING, then the value —
// because reading the global timestamp and publishing it cannot be one
// atomic action; the sweep waits out PENDING slots, and an update, which
// must not wait, cuts nothing while one is in flight, so neither can miss a
// query that has read the clock but not yet published its value.
//
// The range-query protocol around the announce lives here too, once for the
// three bundled structures: snapshot() announces a timestamp, collects at it
// and ends the announce (DESIGN.md §4).

#include <atomic>
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
  /// argument is begin()'s, per shard: a cut whose scan read this slot
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
  /// scan could distinguish (it observes one slot, not the batch).
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
  /// fix a snapshot timestamp, run `collect(ts)`, end the announce. Returns
  /// the timestamp. Nothing restarts: `collect` is the structure's
  /// range_query_at, whose walk enters at a node with a version <= ts
  /// (DESIGN.md §1, §4). A reclaiming caller pins its EBR guard before
  /// calling, so the pin precedes the clock read.
  template <typename Collect>
  timestamp_t snapshot(int tid, const GlobalTimestamp& gts,
                       Collect&& collect) {
    const timestamp_t ts = begin(tid, gts);
    collect(ts);
    end(tid);
    return ts;
  }

  /// Oldest timestamp any active or future range query can observe: the
  /// sweep's bound. Waits out in-flight announces.
  timestamp_t oldest_active(const GlobalTimestamp& gts) const noexcept {
    return scan<true>(gts);
  }

  /// The same bound for an update's own cut, which never waits: an announce
  /// in flight makes it 0, which every snapshot satisfies. Under unique
  /// stamps (T = 1) only a sentinel's first link is stamped 0, so such a
  /// cut keeps every version.
  timestamp_t oldest_active_nowait(const GlobalTimestamp& gts) const noexcept {
    return scan<false>(gts);
  }

 private:
  /// Safe lower bound for pruning: reads the clock first (future queries
  /// observe >= this), then scans slots.
  template <bool kWait>
  timestamp_t scan(const GlobalTimestamp& gts) const noexcept {
    timestamp_t oldest = gts.read();
    const int n = hwm_.get();
    for (int i = 0; i < n; ++i) {
      Backoff bo;
      timestamp_t v;
      while ((v = slots_[i]->load(std::memory_order_seq_cst)) ==
             kAnnouncePending) {
        if constexpr (!kWait) return 0;
        bo.pause();
      }
      if (v != kNone && v < oldest) oldest = v;
    }
    return oldest;
  }

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
