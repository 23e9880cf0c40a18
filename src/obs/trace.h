#pragma once
// bref::obs — bref-trace: per-request span traces with tail-biased capture.
//
// Histograms (metrics.h) tell you THAT p99 is 2.4 ms; a trace tells you
// WHICH request paid it and WHERE. Each server worker owns:
//
//   * a TraceSlots pool of scratch builders — every traced request records
//     its stage spans (queue, admission, execute, shard fan-out, scan
//     chunks, flush, shed/error terminators) into a pre-sized slot, zero
//     allocation, single-writer (the worker);
//   * a TraceRing of COMMITTED records — the scratch record is promoted
//     only when the request's total latency crosses the runtime threshold
//     (`trace_threshold_ns`) or a 1-in-N reservoir fires
//     (`trace_sample_every`). Capture is therefore retroactive and
//     tail-biased: recording is unconditional and cheap, the keep/discard
//     decision is made once the outcome (slow or not) is known, so the
//     slowest requests are never sampled away;
//   * a TraceBoard of the all-time slowest kBoardSlots records — the ring
//     is a recency window (overwrites oldest, counted as drops), the board
//     guarantees the true tail stays retrievable for the whole run.
//
// Concurrency: the record/commit path runs only on the owning worker and
// is wait-free — a commit is a slot copy between two release stores of a
// per-slot sequence number (seqlock). Readers (TRACE_DUMP / TRACE_GET,
// executed by whichever worker got the frame) copy slots and discard torn
// ones by re-checking the sequence; they never block the producer. This
// replaces the PR 7 spinlocked ring: the producer no longer takes any
// lock, ever.
//
// This header depends only on common/ — op codes are carried as raw
// uint8_t so the net layer (which knows their names) can render dumps
// without obs depending on net.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/metrics.h"

namespace bref::obs {

// ---------------------------------------------------------------------------
// Stages.

/// Span stage codes. Values are wire-visible (TRACE_DUMP/TRACE_GET JSON
/// uses the names below); append-only.
enum class TraceStage : uint8_t {
  kQueue = 0,      ///< readable on the wire -> this frame's execute begins
  kAdmission = 1,  ///< WaveBudget verdict (aux16: 0 admitted, 1 shed)
  kExecute = 2,    ///< the op itself (synchronous part)
  kShardPin = 3,   ///< coordinated fan-out: pin+announce (aux16: #shards)
  kShardCollect = 4,  ///< coordinated fan-out: per-shard collect (aux8: shard)
  kScanChunk = 5,  ///< one chunked-scan pump slice (aux16: slice count)
  kFlush = 6,      ///< this conn's write wave (shared cost)
  kShed = 7,       ///< terminal: answered kErrOverloaded, op not executed
  kError = 8,      ///< terminal: protocol error / conn died mid-request
};

inline const char* trace_stage_name(uint8_t s) {
  switch (static_cast<TraceStage>(s)) {
    case TraceStage::kQueue: return "queue";
    case TraceStage::kAdmission: return "admission";
    case TraceStage::kExecute: return "execute";
    case TraceStage::kShardPin: return "shard_pin";
    case TraceStage::kShardCollect: return "shard_collect";
    case TraceStage::kScanChunk: return "scan_chunk";
    case TraceStage::kFlush: return "flush";
    case TraceStage::kShed: return "shed";
    case TraceStage::kError: return "error";
  }
  return "?";
}

// Record flags.
inline constexpr uint8_t kTraceClientStamped = 1;  ///< id came off the wire
inline constexpr uint8_t kTraceShed = 2;           ///< terminated by shedding
inline constexpr uint8_t kTraceError = 4;          ///< terminated by error
inline constexpr uint8_t kTraceTruncated = 8;      ///< span array overflowed

/// One stage span. Offsets/durations are u32 nanoseconds relative to the
/// record's start_ns, saturating at ~4.29 s — long enough for any request
/// the guard layer would let live.
struct TraceStageSpan {
  uint32_t start_ns = 0;  ///< offset from TraceRecord::start_ns
  uint32_t dur_ns = 0;
  uint8_t stage = 0;      ///< TraceStage
  uint8_t aux8 = 0;       ///< stage-specific (shard index, ...)
  uint16_t aux16 = 0;     ///< stage-specific (shard count, slice count, ...)
};

inline constexpr int kTraceMaxSpans = 24;

/// One complete request trace: identity + stage timeline. POD, memcpy-able
/// (the seqlock readers rely on that).
struct TraceRecord {
  uint64_t trace_id = 0;  ///< nonzero; client-stamped or worker-generated
  uint64_t start_ns = 0;  ///< steady-clock ns at first stage start
  uint64_t total_ns = 0;  ///< start of queue -> end of flush (or terminal)
  uint8_t op = 0;         ///< wire op code (net::Op), raw
  uint8_t worker = 0;     ///< worker index that executed it
  uint8_t nspans = 0;
  uint8_t flags = 0;
  uint32_t reserved = 0;
  TraceStageSpan spans[kTraceMaxSpans] = {};
};

// ---------------------------------------------------------------------------
// Runtime capture policy.

/// Reservoir knob: commit ~one completed trace in `trace_sample_every()`
/// regardless of latency (0 disables the reservoir). Runtime-writable
/// (TRACE_DUMP with a body sets it).
inline std::atomic<uint32_t>& trace_sample_every() {
  static std::atomic<uint32_t> every{128};
  return every;
}

/// Latency threshold: a completed trace whose total latency is >= this
/// commits unconditionally. 0 means "commit everything" (tests, fig7
/// deep-capture); kTraceThresholdOff disables threshold commits.
/// Default 1 ms — roughly "past any healthy p99 of this stack".
inline constexpr uint64_t kTraceThresholdOff = ~0ull;

inline std::atomic<uint64_t>& trace_threshold_ns() {
  static std::atomic<uint64_t> ns{1'000'000};
  return ns;
}

/// Tracing is armed iff some commit policy could fire. When disarmed (and
/// the client did not stamp a trace context) requests skip scratch
/// recording entirely — this is the "tracing off" side of the overhead
/// gate.
inline bool trace_armed() {
  if constexpr (!kEnabled) return false;
  return trace_sample_every().load(std::memory_order_relaxed) != 0 ||
         trace_threshold_ns().load(std::memory_order_relaxed) !=
             kTraceThresholdOff;
}

/// Reservoir decision, evaluated at COMPLETION time (retroactive capture
/// means the decision point is the end, not the start). One thread-local
/// countdown, no atomics on the common path.
inline bool trace_reservoir_fires() {
  const uint32_t every = trace_sample_every().load(std::memory_order_relaxed);
  if (every == 0) return false;
  thread_local uint32_t countdown = 0;
  if (countdown == 0) {
    countdown = every;
    return true;
  }
  --countdown;
  return false;
}

/// The commit decision for a completed trace. Client-stamped requests use
/// the same policy — stamping selects *tracing*, the tail selects *keeping*
/// (otherwise a stamp-everything client would churn the ring and evict the
/// very tail the ring exists to hold).
inline bool trace_should_commit(uint64_t total_ns) {
  const uint64_t thr = trace_threshold_ns().load(std::memory_order_relaxed);
  if (thr != kTraceThresholdOff && total_ns >= thr) return true;
  return trace_reservoir_fires();
}

// ---------------------------------------------------------------------------
// Scratch: per-request builders, pooled per worker.

/// A scratch trace under construction. Single-writer (the owning worker);
/// nothing here is atomic. stamp() saturates offsets at u32 and sets
/// kTraceTruncated instead of writing past kTraceMaxSpans.
class TraceScratch {
 public:
  void open(uint64_t trace_id, uint8_t op, uint8_t worker, uint64_t start_ns,
            uint8_t flags) noexcept {
    rec_.trace_id = trace_id;
    rec_.start_ns = start_ns;
    rec_.total_ns = 0;
    rec_.op = op;
    rec_.worker = worker;
    rec_.nspans = 0;
    rec_.flags = flags;
  }

  void stamp(TraceStage stage, uint64_t t0_ns, uint64_t t1_ns,
             uint8_t aux8 = 0, uint16_t aux16 = 0) noexcept {
    if (rec_.nspans >= kTraceMaxSpans) {
      rec_.flags |= kTraceTruncated;
      return;
    }
    TraceStageSpan& s = rec_.spans[rec_.nspans++];
    s.start_ns = rel(t0_ns);
    s.dur_ns = sat32(t1_ns >= t0_ns ? t1_ns - t0_ns : 0);
    s.stage = static_cast<uint8_t>(stage);
    s.aux8 = aux8;
    s.aux16 = aux16;
  }

  /// Coalescing stamp for repeated stages (scan-chunk slices): extend a
  /// recent same-stage span and bump its aux16 slice count instead of
  /// burning a new span — a 200-slice scan stays one span. Looks back two
  /// spans so the pump's alternating pair (shard_collect then scan_chunk,
  /// every slice) coalesces into two growing spans rather than
  /// ping-ponging new ones until truncation.
  void stamp_coalesce(TraceStage stage, uint64_t t0_ns,
                      uint64_t t1_ns) noexcept {
    for (int back = 1; back <= 2 && back <= rec_.nspans; ++back) {
      TraceStageSpan& s = rec_.spans[rec_.nspans - back];
      if (s.stage != static_cast<uint8_t>(stage)) continue;
      const uint32_t end = rel(t1_ns);
      if (end > s.start_ns) s.dur_ns = end - s.start_ns;
      if (s.aux16 != UINT16_MAX) ++s.aux16;
      return;
    }
    stamp(stage, t0_ns, t1_ns, 0, 1);
  }

  /// Close the trace: total latency becomes known here, which is the
  /// moment the keep/discard policy can run.
  void finish(uint64_t end_ns) noexcept {
    rec_.total_ns = end_ns >= rec_.start_ns ? end_ns - rec_.start_ns : 0;
  }

  void add_flags(uint8_t f) noexcept { rec_.flags |= f; }
  const TraceRecord& record() const noexcept { return rec_; }
  uint64_t trace_id() const noexcept { return rec_.trace_id; }
  uint64_t start_ns() const noexcept { return rec_.start_ns; }
  uint8_t op() const noexcept { return rec_.op; }

 private:
  static uint32_t sat32(uint64_t v) noexcept {
    return v > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(v);
  }
  uint32_t rel(uint64_t abs_ns) const noexcept {
    return sat32(abs_ns >= rec_.start_ns ? abs_ns - rec_.start_ns : 0);
  }

  TraceRecord rec_;
};

/// Fixed pool of scratch slots, one pool per worker. acquire()/release()
/// are owner-thread-only (free-bitmap, no atomics); in_use() is readable
/// from any thread (STATS runs on whichever worker got the frame) — that
/// is the trace-slot accounting the chaos suite audits: a request that
/// ends in a shed, a protocol error, or a dead connection MUST release its
/// slot, so in_use() returns to the number of live chunked scans (0 when
/// idle).
class TraceSlots {
 public:
  static constexpr int kSlots = kEnabled ? 64 : 1;

  /// nullptr when exhausted (caller counts it and skips tracing that
  /// request — never blocks, never allocates).
  TraceScratch* acquire() noexcept {
    if (free_ == 0) return nullptr;
    const int i = std::countr_zero(free_);
    free_ &= free_ - 1;
    in_use_.fetch_add(1, std::memory_order_relaxed);
    return &slots_[i];
  }

  void release(TraceScratch* s) noexcept {
    const auto i = static_cast<uint64_t>(s - slots_);
    free_ |= 1ull << i;
    in_use_.fetch_sub(1, std::memory_order_relaxed);
  }

  int in_use() const noexcept {
    return in_use_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kAllFree =
      kSlots == 64 ? ~0ull : (1ull << kSlots) - 1;
  uint64_t free_ = kAllFree;          // owner-thread only
  std::atomic<int> in_use_{0};        // cross-thread readable
  TraceScratch slots_[kSlots];
};

// ---------------------------------------------------------------------------
// Committed storage: ring (recency) + board (all-time slowest).

/// Seqlock slot shared by ring and board: the single producer bumps seq to
/// odd, copies the record, bumps to even; a reader copies and keeps the
/// copy only if seq was even and unchanged across it.
struct TraceSlot {
  std::atomic<uint32_t> seq{0};
  TraceRecord rec;

  void publish(const TraceRecord& r) noexcept {
    const uint32_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    rec = r;
    seq.store(s + 2, std::memory_order_release);
  }

  bool read(TraceRecord& out) const noexcept {
    const uint32_t s0 = seq.load(std::memory_order_acquire);
    if (s0 == 0 || (s0 & 1) != 0) return false;
    std::memcpy(&out, &rec, sizeof out);
    std::atomic_thread_fence(std::memory_order_acquire);
    return seq.load(std::memory_order_relaxed) == s0;
  }
};

/// Lock-free single-producer ring of committed records. push() is
/// wait-free (one slot publish + one head store); concurrent readers
/// snapshot what they can and skip torn slots. Records overwritten before
/// anyone read them are gone — dropped() counts how many the window has
/// evicted, surfaced as bref_trace_dropped_total.
class TraceRing {
 public:
  static constexpr size_t kCapacity = kEnabled ? 512 : 1;  // power of two

  void push(const TraceRecord& r) noexcept {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h & (kCapacity - 1)].publish(r);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Committed records, oldest first, torn slots skipped.
  void snapshot(std::vector<TraceRecord>& out) const {
    const uint64_t h = head_.load(std::memory_order_acquire);
    const uint64_t n = h < kCapacity ? h : kCapacity;
    TraceRecord r;
    for (uint64_t i = h - n; i < h; ++i)
      if (slots_[i & (kCapacity - 1)].read(r)) out.push_back(r);
  }

  /// Linear id lookup over the live window (rare path: TRACE_GET).
  bool find(uint64_t trace_id, TraceRecord& out) const {
    const uint64_t h = head_.load(std::memory_order_acquire);
    const uint64_t n = h < kCapacity ? h : kCapacity;
    TraceRecord r;
    for (uint64_t i = h; i > h - n; --i)  // newest first
      if (slots_[(i - 1) & (kCapacity - 1)].read(r) && r.trace_id == trace_id) {
        out = r;
        return true;
      }
    return false;
  }

  uint64_t committed() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const noexcept {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    return h > kCapacity ? h - kCapacity : 0;
  }

 private:
  std::atomic<uint64_t> head_{0};
  TraceSlot slots_[kCapacity];
};

/// The all-time-slowest board: kBoardSlots records kept by total_ns,
/// min-replaced on commit. The ring answers "what happened recently", the
/// board answers "what were the worst requests of this run" — the promise
/// that the slowest requests are ALWAYS captured lives here, immune to
/// ring churn. Single producer; seqlock readers as above.
class TraceBoard {
 public:
  static constexpr int kBoardSlots = kEnabled ? 16 : 1;

  void offer(const TraceRecord& r) noexcept {
    int min_i = 0;
    uint64_t min_v = ~0ull;
    for (int i = 0; i < kBoardSlots; ++i) {
      if (totals_[i] < min_v) {
        min_v = totals_[i];
        min_i = i;
      }
    }
    if (r.total_ns <= min_v) return;
    slots_[min_i].publish(r);
    totals_[min_i] = r.total_ns;
  }

  void snapshot(std::vector<TraceRecord>& out) const {
    TraceRecord r;
    for (int i = 0; i < kBoardSlots; ++i)
      if (slots_[i].read(r)) out.push_back(r);
  }

  bool find(uint64_t trace_id, TraceRecord& out) const {
    TraceRecord r;
    for (int i = 0; i < kBoardSlots; ++i)
      if (slots_[i].read(r) && r.trace_id == trace_id) {
        out = r;
        return true;
      }
    return false;
  }

 private:
  uint64_t totals_[kBoardSlots] = {};  // producer-only shadow of totals
  TraceSlot slots_[kBoardSlots];
};

// ---------------------------------------------------------------------------
// Cross-layer stamping hook.
//
// The shard and guard layers sit below net and cannot see the request's
// scratch slot. The worker parks a pointer to the active scratch in a
// thread-local before descending into execute(); ShardedSet::Snapshot's
// pin and collect fan-out stamps through it. Cost when no trace is
// active: one thread-local load + branch.

inline TraceScratch*& current_trace() noexcept {
  thread_local TraceScratch* cur = nullptr;
  return cur;
}

/// RAII set/restore, safe to nest (inner scans under an outer execute).
class CurrentTraceScope {
 public:
  explicit CurrentTraceScope(TraceScratch* t) noexcept
      : prev_(current_trace()) {
    current_trace() = t;
  }
  ~CurrentTraceScope() { current_trace() = prev_; }
  CurrentTraceScope(const CurrentTraceScope&) = delete;
  CurrentTraceScope& operator=(const CurrentTraceScope&) = delete;

 private:
  TraceScratch* prev_;
};

/// Steady-clock nanoseconds for span stamping below the net layer.
/// Constant-folds to 0 when obs is compiled out. Hot paths should gate
/// the call on `current_trace() != nullptr` so untraced requests never
/// read the clock.
inline uint64_t trace_now_ns() {
  if constexpr (!kEnabled) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stamp into the active trace, if any. The layers below net call this.
inline void trace_stage(TraceStage stage, uint64_t t0_ns, uint64_t t1_ns,
                        uint8_t aux8 = 0, uint16_t aux16 = 0) noexcept {
  if constexpr (!kEnabled) return;
  if (TraceScratch* t = current_trace(); t != nullptr)
    t->stamp(stage, t0_ns, t1_ns, aux8, aux16);
}

}  // namespace bref::obs
