#pragma once
// bref::net guard layer — overload protection and graceful degradation
// for the wire path (server.h). Three mechanisms, one policy surface
// (GuardOptions):
//
//   * Cooperative scan chunking. A RANGE wider than `scan_chunk_keys`
//     would monopolize its worker's epoll wave; instead the worker takes
//     the snapshot ONCE (a ShardedSet::Snapshot pins + announces every
//     overlapping shard, reads the shared clock once, publishes) and then
//     collects the interval in bounded key-budget slices, one slice per
//     wave, behind the wave's point ops. `range_query_at` is restart-free
//     against a held announce+pin, so slicing never re-reads the clock:
//     the reply is still one linearization point (DESIGN.md §8).
//
//   * Admission control. Each wave gets a frame + response-byte budget
//     (WaveBudget); frames past it are answered kErrOverloaded with a
//     retry-after hint instead of executed — shedding keeps the p99 of
//     *accepted* ops flat while excess load is pushed back to clients.
//
//   * Timeouts. A TimerWheel drives idle-connection reaping and
//     write-stall deadlines; per-connection pending-write caps disconnect
//     unrecoverably slow readers before they OOM the server.
//
// This header owns the policy types, the wheel and the guard metric
// series; server.h wires them into the worker loops, and its chunked
// scans collect a ShardedSet::Snapshot.

#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace bref::net {

/// Steady-clock milliseconds (unconditional — guard deadlines exist with
/// or without the obs layer).
inline uint64_t steady_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct GuardOptions {
  /// A RANGE spanning more than this many keys runs as a cooperative
  /// chunked scan (one slice of this many keys per epoll wave). 0
  /// disables chunking entirely.
  size_t scan_chunk_keys = 4096;
  /// Admission control: request frames executed per worker per epoll
  /// wave; the excess is answered kErrOverloaded. 0 = unlimited.
  uint32_t max_wave_frames = 4096;
  /// Admission control: response bytes built per worker per wave before
  /// further frames are shed. 0 = unlimited.
  size_t max_wave_bytes = 8u << 20;
  /// Retry-after hint (ms) carried in kErrOverloaded replies.
  uint32_t retry_after_ms = 2;
  /// Disconnect a connection whose unflushed response backlog exceeds
  /// this many bytes (an unrecoverably slow reader). Must exceed the
  /// largest expected single response. 0 = unlimited.
  size_t max_conn_pending = 8u << 20;
  /// Reap connections idle (no bytes read) this long. 0 disables.
  uint32_t idle_timeout_ms = 60'000;
  /// Disconnect when pending response bytes have been stuck unflushed
  /// this long. 0 disables.
  uint32_t write_stall_ms = 5'000;
  /// stop(): flush pending responses for at most this long, then count
  /// the stragglers in bref_net_stop_dropped and close.
  uint32_t drain_deadline_ms = 1'000;
};

/// One epoll wave's admission budget. Decremented per executed frame /
/// per response byte built; a frame arriving after exhaustion is shed.
struct WaveBudget {
  uint32_t frames = 0;  // 0 = exhausted (when limited)
  size_t bytes = 0;
  bool frames_limited = false;
  bool bytes_limited = false;
  bool exhausted = false;  // at least one frame was shed this wave

  static WaveBudget of(const GuardOptions& g) {
    WaveBudget b;
    b.frames = g.max_wave_frames;
    b.bytes = g.max_wave_bytes;
    b.frames_limited = g.max_wave_frames > 0;
    b.bytes_limited = g.max_wave_bytes > 0;
    return b;
  }
  bool spent() const noexcept {
    return (frames_limited && frames == 0) || (bytes_limited && bytes == 0);
  }
  void charge_frame() noexcept {
    if (frames_limited && frames > 0) --frames;
  }
  void charge_bytes(size_t n) noexcept {
    if (bytes_limited) bytes = n >= bytes ? 0 : bytes - n;
  }
};

/// A hashed timer wheel for connection deadlines (idle reaping, write
/// stalls). Entries are (fd, generation, kind); the generation lets the
/// owner ignore stale timers after an fd is closed and reused. Firing is
/// *lazy revalidation*: the wheel only says "this deadline elapsed" —
/// the callback re-checks real activity and re-arms when the connection
/// was merely slow, so one schedule per state transition suffices.
/// Single-threaded (one wheel per worker loop). Resolution is
/// `granularity_ms` plus however long the loop's epoll_wait slept.
class TimerWheel {
 public:
  enum class Kind : uint8_t { kIdle, kWriteStall };

  explicit TimerWheel(uint32_t granularity_ms = 100, size_t slots = 128)
      : granularity_(granularity_ms == 0 ? 1 : granularity_ms),
        buckets_(slots == 0 ? 1 : slots) {}

  void schedule(uint64_t now_ms, uint64_t delay_ms, int fd, uint32_t gen,
                Kind kind) {
    if (cursor_ == 0) cursor_ = now_ms / granularity_;  // anchor lazily
    uint64_t tick = (now_ms + delay_ms) / granularity_ + 1;
    if (tick <= cursor_) tick = cursor_ + 1;
    buckets_[tick % buckets_.size()].push_back(
        {now_ms + delay_ms, fd, gen, kind});
    ++size_;
  }

  /// Fire every entry whose deadline elapsed: fire(fd, gen, kind).
  /// Entries further than one revolution out are re-bucketed, not fired.
  template <typename Fn>
  void advance(uint64_t now_ms, Fn&& fire) {
    const uint64_t target = now_ms / granularity_;
    if (cursor_ == 0 || size_ == 0 || target <= cursor_) {
      if (cursor_ < target) cursor_ = target;
      return;
    }
    uint64_t steps = target - cursor_;
    if (steps > buckets_.size()) steps = buckets_.size();
    for (uint64_t s = 0; s < steps; ++s) {
      ++cursor_;
      auto& b = buckets_[cursor_ % buckets_.size()];
      if (b.empty()) continue;
      scratch_.swap(b);
      for (const Entry& e : scratch_) {
        --size_;
        if (e.due_ms > now_ms)  // lapped or early bucket: not due yet
          schedule(now_ms, e.due_ms - now_ms, e.fd, e.gen, e.kind);
        else
          fire(e.fd, e.gen, e.kind);
      }
      scratch_.clear();
    }
    cursor_ = target;  // every bucket was visited at most once; jump
  }

  size_t size() const noexcept { return size_; }

 private:
  struct Entry {
    uint64_t due_ms;
    int fd;
    uint32_t gen;
    Kind kind;
  };

  const uint64_t granularity_;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> scratch_;
  uint64_t cursor_ = 0;  // last processed tick; 0 = not yet anchored
  size_t size_ = 0;
};

/// Guard-layer series aggregated over live Server instances (same RAII
/// pattern as server_series in server.h). Index order matches
/// Server::register_obs().
inline obs::GaugeSet& guard_series(size_t i) {
  using GS = obs::GaugeSet;
  using MK = obs::MetricKind;
  static auto* v = [] {
    auto* u = new std::vector<GS*>();
    auto add = [&](GS::Agg a, const char* n, const char* h, const char* l,
                   MK k) { u->push_back(new GS(a, n, h, l, k)); };
    add(GS::Agg::kSum, "bref_net_shed_total",
        "Request frames answered kErrOverloaded by admission control", "",
        MK::kCounter);
    add(GS::Agg::kSum, "bref_net_chunked_total",
        "RANGE queries executed as cooperative chunked scans", "",
        MK::kCounter);
    add(GS::Agg::kSum, "bref_net_scan_slices_total",
        "Chunk slices executed across all chunked scans", "", MK::kCounter);
    add(GS::Agg::kSum, "bref_net_reaped_total",
        "Connections closed by the guard layer", "reason=\"idle\"",
        MK::kCounter);
    add(GS::Agg::kSum, "bref_net_reaped_total",
        "Connections closed by the guard layer", "reason=\"write_stall\"",
        MK::kCounter);
    add(GS::Agg::kSum, "bref_net_reaped_total",
        "Connections closed by the guard layer", "reason=\"slow_reader\"",
        MK::kCounter);
    add(GS::Agg::kSum, "bref_net_stop_dropped_total",
        "Connections closed at stop() with undelivered response bytes", "",
        MK::kCounter);
    add(GS::Agg::kSum, "bref_net_overloaded",
        "Worker loops currently shedding (admission budget exhausted)", "",
        MK::kGauge);
    return u;
  }();
  return *(*v)[i];
}
inline constexpr size_t kGuardSeries = 8;

}  // namespace bref::net
