#pragma once
// Active-range-query tracker (`activeRqTsArray`, supplementary B).
//
// Each range query announces the snapshot timestamp it runs at; the bundle
// cleaner uses the minimum announced value to decide which bundle entries
// are dead. Announcing is a two-step protocol — PENDING, then the value —
// because reading the global timestamp and publishing it cannot be one
// atomic action; the cleaner waits out PENDING slots so it can never miss a
// query that has read the clock but not yet published its value.

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
