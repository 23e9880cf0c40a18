#pragma once
// Concurrent-history recording for black-box linearizability checking.
//
// A History is a set of operation records, each carrying its real-time
// invocation/response window (steady_clock, globally monotonic) together
// with arguments and observed results. Threads record into private logs
// (no synchronization on the hot path beyond the fenced clock reads); merge()
// collects them once the run is quiescent.
//
// The checker (wing_gong.h) treats two operations as ordered iff one's
// response precedes the other's invocation — the standard real-time order
// of Herlihy & Wing. Clock-read overhead only widens windows, which can
// only make a non-linearizable history look linearizable with lower
// probability, never flag a correct one.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/range_snapshot.h"
#include "api/session.h"

namespace bref::validation {

using KeyT = int64_t;
using ValT = int64_t;

enum class OpKind : uint8_t { kInsert, kRemove, kContains, kRangeQuery };

inline const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kInsert:
      return "insert";
    case OpKind::kRemove:
      return "remove";
    case OpKind::kContains:
      return "contains";
    case OpKind::kRangeQuery:
      return "range_query";
  }
  return "?";
}

/// Marks a range-query record whose implementation reports no snapshot
/// timestamp (same sentinel as RangeSnapshot::kNoTimestamp).
inline constexpr uint64_t kNoRqTs = ~uint64_t{0};

struct Op {
  OpKind kind;
  int tid = 0;
  KeyT key = 0;        // insert/remove/contains key, or range low
  KeyT hi = 0;         // range high (kRangeQuery only)
  ValT val = 0;        // insert argument / contains observed value
  bool result = false; // boolean result of point ops
  std::vector<std::pair<KeyT, ValT>> rq_result;  // kRangeQuery only
  uint64_t rq_ts = kNoRqTs;  // snapshot timestamp (kRangeQuery, if reported)
  uint64_t invoke_ns = 0;
  uint64_t response_ns = 0;

  /// Real-time (Herlihy-Wing) order: this op completed before `o` began.
  bool happens_before(const Op& o) const { return response_ns < o.invoke_ns; }
};

using History = std::vector<Op>;

/// Invocation/response stamp. The two seq_cst fences keep the op's memory
/// effects inside its recorded window: without them an insert's last store
/// can still sit in the store buffer when its response is stamped, or a
/// later op's loads can run before its invocation is, and the checker then
/// sees a real-time order the operations never had.
inline uint64_t now_ns() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const auto t = std::chrono::steady_clock::now();
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

/// Per-thread operation log. One instance per worker thread; no sharing.
class ThreadLog {
 public:
  explicit ThreadLog(int tid) : tid_(tid) { ops_.reserve(1024); }

  void record_point(OpKind kind, KeyT key, ValT val, bool result,
                    uint64_t invoke, uint64_t response) {
    Op op;
    op.kind = kind;
    op.tid = tid_;
    op.key = key;
    op.val = val;
    op.result = result;
    op.invoke_ns = invoke;
    op.response_ns = response;
    ops_.push_back(std::move(op));
  }

  void record_rq(KeyT lo, KeyT hi, std::vector<std::pair<KeyT, ValT>> result,
                 uint64_t invoke, uint64_t response,
                 uint64_t rq_ts = kNoRqTs) {
    Op op;
    op.kind = OpKind::kRangeQuery;
    op.tid = tid_;
    op.key = lo;
    op.hi = hi;
    op.rq_result = std::move(result);
    op.rq_ts = rq_ts;
    op.invoke_ns = invoke;
    op.response_ns = response;
    ops_.push_back(std::move(op));
  }

  /// Snapshot-object form: the RangeSnapshot carries both the result and
  /// the timestamp it linearized at, so nothing is reconstructed by hand.
  void record_rq(const RangeSnapshot& snap, uint64_t invoke,
                 uint64_t response) {
    record_rq(snap.lo(), snap.hi(), snap.items(), invoke, response,
              snap.has_timestamp() ? snap.timestamp() : kNoRqTs);
  }

  const History& ops() const { return ops_; }
  History take() { return std::move(ops_); }

 private:
  int tid_;
  History ops_;
};

/// Merge per-thread logs into one history (any order; the checker uses the
/// recorded windows, not the vector order).
inline History merge(std::vector<ThreadLog>& logs) {
  History h;
  for (auto& l : logs) {
    History t = l.take();
    h.insert(h.end(), std::make_move_iterator(t.begin()),
             std::make_move_iterator(t.end()));
  }
  return h;
}

/// Transparent recording adapter: same call surface as the library's
/// ordered sets, forwarding to `DS` while logging every operation with its
/// real-time window into a caller-supplied ThreadLog.
template <typename DS>
class RecordedSet {
 public:
  explicit RecordedSet(DS& ds) : ds_(ds) {}

  bool insert(ThreadLog& log, int tid, KeyT k, ValT v) {
    const uint64_t t0 = now_ns();
    const bool r = ds_.insert(tid, k, v);
    log.record_point(OpKind::kInsert, k, v, r, t0, now_ns());
    return r;
  }

  bool remove(ThreadLog& log, int tid, KeyT k) {
    const uint64_t t0 = now_ns();
    const bool r = ds_.remove(tid, k);
    log.record_point(OpKind::kRemove, k, 0, r, t0, now_ns());
    return r;
  }

  bool contains(ThreadLog& log, int tid, KeyT k) {
    ValT v = 0;
    const uint64_t t0 = now_ns();
    const bool r = ds_.contains(tid, k, &v);
    log.record_point(OpKind::kContains, k, r ? v : 0, r, t0, now_ns());
    return r;
  }

  size_t range_query(ThreadLog& log, int tid, KeyT lo, KeyT hi,
                     std::vector<std::pair<KeyT, ValT>>& out) {
    const uint64_t t0 = now_ns();
    ds_.range_query(tid, lo, hi, out);
    log.record_rq(lo, hi, out, t0, now_ns());
    return out.size();
  }

 private:
  DS& ds_;
};

/// Session-era recording adapter: mirrors TypedSession's surface (no raw
/// tids) and logs every operation. Range queries go through RangeSnapshot,
/// so the record keeps the snapshot timestamp the old out-vector protocol
/// had to drop.
template <typename DS>
class RecordedSession {
 public:
  RecordedSession(DS& ds, ThreadLog& log, int tid)
      : s_(ds, tid), log_(log) {}

  bool insert(KeyT k, ValT v) {
    const uint64_t t0 = now_ns();
    const bool r = s_.insert(k, v);
    log_.record_point(OpKind::kInsert, k, v, r, t0, now_ns());
    return r;
  }

  bool remove(KeyT k) {
    const uint64_t t0 = now_ns();
    const bool r = s_.remove(k);
    log_.record_point(OpKind::kRemove, k, 0, r, t0, now_ns());
    return r;
  }

  bool contains(KeyT k) {
    ValT v = 0;
    const uint64_t t0 = now_ns();
    const bool r = s_.contains(k, &v);
    log_.record_point(OpKind::kContains, k, r ? v : 0, r, t0, now_ns());
    return r;
  }

  size_t range_query(KeyT lo, KeyT hi, RangeSnapshot& out) {
    const uint64_t t0 = now_ns();
    s_.range_query(lo, hi, out);
    log_.record_rq(out, t0, now_ns());
    return out.size();
  }

 private:
  TypedSession<DS> s_;
  ThreadLog& log_;
};

/// Human-readable rendering of one op (checker diagnostics).
inline std::string describe(const Op& op) {
  std::string s = "t" + std::to_string(op.tid) + " " + to_string(op.kind);
  if (op.kind == OpKind::kRangeQuery) {
    s += "[" + std::to_string(op.key) + "," + std::to_string(op.hi) +
         "] -> {";
    for (size_t i = 0; i < op.rq_result.size(); ++i) {
      if (i > 0) s += ",";
      s += std::to_string(op.rq_result[i].first);
    }
    s += "}";
    if (op.rq_ts != kNoRqTs) s += " @ts=" + std::to_string(op.rq_ts);
  } else {
    s += "(" + std::to_string(op.key) + ")";
    s += op.result ? " -> true" : " -> false";
  }
  return s;
}

}  // namespace bref::validation
