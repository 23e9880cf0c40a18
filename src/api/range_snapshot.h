#pragma once
// RangeSnapshot: the result object of a range query.
//
// A range query returns an atomic snapshot of [lo, hi]. This type carries
// the three things a caller needs from it:
//   * the collected (key, value) pairs, sorted and duplicate-free, with
//     iterator access (structured-binding friendly);
//   * the logical timestamp the snapshot linearized at, for techniques
//     that fix one (Bundle and EBR-RQ) — this is what the
//     history-audit example and the Wing-Gong validator previously had to
//     reconstruct by hand from out-vectors;
//   * a reusable buffer: passing the same RangeSnapshot to repeated
//     queries reuses its capacity, matching the hot-loop pattern the
//     benches relied on with raw out-vectors.

#include <cstddef>
#include <utility>
#include <vector>

#include "api/types.h"

namespace bref {

class RangeSnapshot {
 public:
  using value_type = std::pair<KeyT, ValT>;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// Sentinel for techniques whose range queries have no notion of a
  /// snapshot timestamp (Unsafe, RLU, Snapcollector, LFCA).
  static constexpr timestamp_t kNoTimestamp = ~timestamp_t{0};

  RangeSnapshot() = default;

  // -- results ------------------------------------------------------------
  const_iterator begin() const noexcept { return items_.begin(); }
  const_iterator end() const noexcept { return items_.end(); }
  size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  const value_type& operator[](size_t i) const noexcept { return items_[i]; }
  const value_type& front() const noexcept { return items_.front(); }
  const value_type& back() const noexcept { return items_.back(); }
  const std::vector<value_type>& items() const noexcept { return items_; }

  /// The queried bounds (inclusive).
  KeyT lo() const noexcept { return lo_; }
  KeyT hi() const noexcept { return hi_; }

  /// Logical time the snapshot linearized at. Only meaningful when
  /// has_timestamp(); capability flag: Capabilities::rq_timestamp.
  timestamp_t timestamp() const noexcept { return ts_; }
  bool has_timestamp() const noexcept { return ts_ != kNoTimestamp; }

  // -- filling (implementations / sessions) -------------------------------
  /// Re-arm for a new query: record bounds, clear the timestamp, clear the
  /// contents but keep the capacity (the reusable-buffer contract).
  std::vector<value_type>& reset(KeyT lo, KeyT hi) {
    lo_ = lo;
    hi_ = hi;
    ts_ = kNoTimestamp;
    items_.clear();
    return items_;
  }

  std::vector<value_type>& buffer() noexcept { return items_; }
  void set_timestamp(timestamp_t ts) noexcept { ts_ = ts; }

 private:
  std::vector<value_type> items_;
  KeyT lo_ = 0;
  KeyT hi_ = 0;
  timestamp_t ts_ = kNoTimestamp;
};

/// Content equality against a plain result vector (model-check friendly;
/// C++20 synthesizes the reversed and != forms).
inline bool operator==(const RangeSnapshot& s,
                       const std::vector<RangeSnapshot::value_type>& v) {
  return s.items() == v;
}

}  // namespace bref
