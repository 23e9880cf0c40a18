#pragma once
// The global logical clock ordering all update operations (Section 3).
//
// Every successful update operation increments `globalTs` at its
// linearization point; range queries read (without incrementing) it to fix
// their snapshot. The paper's supplementary material (Fig. 5) additionally
// evaluates a *relaxed* mode where each thread increments the clock only
// every T-th update, trading snapshot freshness for less contention on the
// counter; that policy lives here as well.

#include <atomic>
#include <cstdint>
#include <limits>

#include "common/cacheline.h"
#include "common/thread_registry.h"

namespace bref {

using timestamp_t = uint64_t;

/// Timestamp marking a bundle entry whose update is between its
/// linearization point and its finalization (Algorithm 2, PENDING_TS).
inline constexpr timestamp_t kPendingTs =
    std::numeric_limits<timestamp_t>::max();

class GlobalTimestamp {
 public:
  /// `relax_threshold` T: 1 = fully linearizable (every update increments);
  /// T > 1 = each thread increments only every T-th update (Fig. 5);
  /// kRelaxInfinite = never increments (the paper's T = ∞ extreme).
  static constexpr uint64_t kRelaxInfinite =
      std::numeric_limits<uint64_t>::max();

  explicit GlobalTimestamp(uint64_t relax_threshold = 1)
      : relax_threshold_(relax_threshold) {}

  /// Current value; used by range queries to fix their snapshot (Alg. 3
  /// line 4) and by relaxed-mode updates. seq_cst: the coordinated
  /// cross-shard protocol (sharded_set.h) orders ALL of its PENDING
  /// announce stores and epoch pins before this single load — the one
  /// total order is what lets one read() serve every shard's snapshot.
  timestamp_t read() const noexcept {
    return ts_->load(std::memory_order_seq_cst);
  }

  /// Redirect this clock onto `leader`'s counter, so several structures
  /// order their updates on ONE seq_cst timeline — the property the shard
  /// layer's single-timestamp cross-shard range queries rest on
  /// (src/shard/sharded_set.h). Quiescent-only: call before the owning
  /// structure is shared with other threads (the pointer itself is not
  /// atomic), and the leader must outlive every follower. Per-thread relax
  /// counters stay local, so Fig. 5 relaxation composes per structure.
  void share_with(GlobalTimestamp& leader) noexcept { ts_ = leader.ts_; }

  /// Timestamp for an update operation reaching its linearization point.
  /// Linearizable mode: atomic fetch-and-add, returning the new value
  /// (Alg. 1 line 4). Relaxed mode: only every T-th call per thread
  /// advances the clock; others reuse the current value.
  timestamp_t update_ts(int tid) noexcept {
    if (relax_threshold_ == 1) return advance();
    if (relax_threshold_ == kRelaxInfinite) return read();
    uint64_t& c = *counters_[tid];
    if (++c >= relax_threshold_) {
      c = 0;
      return advance();
    }
    return read();
  }

  /// Unconditional increment; returns the new value.
  timestamp_t advance() noexcept {
    return ts_->fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  uint64_t relax_threshold() const noexcept { return relax_threshold_; }

 private:
  std::atomic<timestamp_t> own_{0};
  std::atomic<timestamp_t>* ts_ = &own_;  // redirected by share_with()
  const uint64_t relax_threshold_;
  CachePadded<uint64_t> counters_[kMaxThreads];
};

}  // namespace bref
