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
//   * Timeouts. Each worker sweeps its connections at most every
//     kSweepMs, reaping the idle and the write-stalled; per-connection
//     pending-write caps disconnect unrecoverably slow readers before
//     they OOM the server.
//
// This header owns the policy types; server.h wires them into the worker
// loops, and its chunked scans collect a ShardedSet::Snapshot.

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace bref::net {

/// Steady-clock milliseconds (unconditional — guard deadlines exist with
/// or without the obs layer).
inline uint64_t steady_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Interval of a worker's idle/write-stall sweep (and its longest
/// epoll_wait): deadlines fire up to this late.
inline constexpr int kSweepMs = 100;

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

}  // namespace bref::net
