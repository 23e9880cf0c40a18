#pragma once
// CPU-relax and bounded exponential backoff used by all spin loops, plus
// the sleeping jittered variant retry loops over the wire use.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace bref {

/// Hint to the CPU that we are in a spin-wait loop.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Bounded exponential backoff. Spin counts double up to a cap; once the cap
/// is reached the thread yields so oversubscribed runs make progress.
class Backoff {
 public:
  explicit Backoff(uint32_t initial = 4, uint32_t cap = 1024)
      : limit_(initial), cap_(cap) {}

  void pause() noexcept {
    if (limit_ > cap_) {
      std::this_thread::yield();
      return;
    }
    for (uint32_t i = 0; i < limit_; ++i) cpu_relax();
    limit_ <<= 1;
  }

  void reset(uint32_t initial = 4) noexcept { limit_ = initial; }

 private:
  uint32_t limit_;
  uint32_t cap_;
};

/// Sleeping exponential backoff with full jitter, for retry loops over
/// milliseconds rather than spin loops over cycles (AWS's "full jitter":
/// each delay is uniform in [0, min(cap, base << attempt)], which
/// de-synchronizes a thundering herd of retriers far better than
/// deterministic doubling). Deterministic given the seed, so chaos tests
/// replay exactly.
class JitteredBackoff {
 public:
  explicit JitteredBackoff(uint64_t seed, uint32_t base_ms = 1,
                           uint32_t cap_ms = 128) noexcept
      : state_(seed ? seed : 0x9e3779b97f4a7c15ull),
        base_ms_(base_ms ? base_ms : 1),
        cap_ms_(cap_ms) {}

  /// A schedule of its own: the seed is the next value of a process-wide
  /// counter, mixed, so retriers built one after another do not sleep in
  /// step. Construction order fixes each seed, so a single-threaded run
  /// still replays exactly.
  JitteredBackoff() noexcept : JitteredBackoff(next_seed()) {}

  /// Next delay in milliseconds (never exceeds cap; may be 0 — jitter).
  uint32_t next_ms() noexcept {
    uint64_t ceil = static_cast<uint64_t>(base_ms_) << attempt_;
    if (ceil > cap_ms_ || ceil == 0) ceil = cap_ms_;
    if (attempt_ < 31) ++attempt_;
    return static_cast<uint32_t>(next_random() % (ceil + 1));
  }

  /// next_ms(), but never below `floor_ms` (retry-after hints become the
  /// floor, jitter only stretches the wait).
  uint32_t next_ms(uint32_t floor_ms) noexcept {
    const uint32_t d = next_ms();
    return d < floor_ms ? floor_ms : d;
  }

  void sleep() { sleep_for(next_ms()); }

  static void sleep_for(uint32_t ms) {
    if (ms == 0)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

  void reset() noexcept { attempt_ = 0; }
  uint32_t attempt() const noexcept { return attempt_; }

 private:
  uint64_t next_random() noexcept { return splitmix64(state_); }

  static uint64_t splitmix64(uint64_t& state) noexcept {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  static uint64_t next_seed() noexcept {
    static std::atomic<uint64_t> counter{0};
    uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
    return splitmix64(n);
  }

  uint64_t state_;
  uint32_t base_ms_;
  uint32_t cap_ms_;
  uint32_t attempt_ = 0;
};

}  // namespace bref
