#pragma once
// Test-only synchronization hooks.
//
// The linearizability argument in Section 3.3 hinges on one narrow window:
// an update that has executed its linearization point but has not yet
// finalized its (pending) bundle entries. The paper's worked example — T1
// inserts x and stalls right before finalization; T2 then sees x via
// contains() and must also see it in a subsequent range query — is only
// testable if we can force a thread to stall in that window. The inline
// newest version adds two more windows, one in an update's claim and one in
// a cut of a chain. These hooks are no-ops (one relaxed load) unless a
// test installs a callback.

#include <atomic>

namespace bref {

struct SyncHooks {
  using Fn = void (*)();

  /// Fired inside linearize_update() after all bundles are prepared
  /// (pending) but before the global timestamp is advanced.
  inline static std::atomic<Fn> after_prepare{nullptr};

  /// Fired after the linearization point executes but before any pending
  /// bundle entry is finalized — the window the pending protocol protects.
  inline static std::atomic<Fn> before_finalize{nullptr};

  /// Fired inside Bundle::prepare() after the claim (stamp PENDING) and
  /// the push of the superseded pair onto the chain, before the new
  /// pointer is stored inline.
  inline static std::atomic<Fn> after_claim{nullptr};

  /// Fired inside Bundle::reclaim_older() between its load of the chain
  /// root and its load of the inline stamp — the window whose order keeps
  /// a concurrent update's pushed pair from being cut.
  inline static std::atomic<Fn> reclaim_between_loads{nullptr};

  /// Fired after a range query has read the clock but before it replaces
  /// its PENDING announce with that value — the window oldest_active() must
  /// wait out, and in which an update's own cut keeps every version. Two
  /// call sites: RqTracker::begin(), and the
  /// ShardedSet::Snapshot constructor between its one clock read and the
  /// publish loop over every overlapped shard.
  inline static std::atomic<Fn> rq_mid_announce{nullptr};

  static void run(std::atomic<Fn>& slot) {
    if (Fn f = slot.load(std::memory_order_relaxed)) f();
  }

  static void reset() {
    after_prepare.store(nullptr, std::memory_order_relaxed);
    before_finalize.store(nullptr, std::memory_order_relaxed);
    after_claim.store(nullptr, std::memory_order_relaxed);
    reclaim_between_loads.store(nullptr, std::memory_order_relaxed);
    rq_mid_announce.store(nullptr, std::memory_order_relaxed);
  }
};

}  // namespace bref
