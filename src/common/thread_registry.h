#pragma once
// Compile-time thread capacity and a small runtime registry.
//
// All substrates (EBR, RCU, RLU, the range-query tracker) keep fixed-size
// arrays of cache-padded per-thread slots indexed by a dense thread id. The
// paper evaluates up to 192 hyperthreads; we reserve the same capacity.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <stdexcept>

#include "common/spinlock.h"

namespace bref {

inline constexpr int kMaxThreads = 192;

/// Thrown by ThreadRegistry::acquire when every dense id slot is held.
/// Before this existed, exhaustion was an assert in debug builds and an
/// out-of-bounds substrate index (UB) in release builds — unacceptable for
/// a server multiplexing many connections over few sessions, where the
/// right response is a clean error frame, not a crash.
class ThreadSlotsExhaustedError : public std::runtime_error {
 public:
  ThreadSlotsExhaustedError()
      : std::runtime_error(
            "ThreadRegistry: all " + std::to_string(kMaxThreads) +
            " dense thread-id slots are in use (leaked sessions?)") {}
};

/// Hands out dense thread ids, recycling released ones. Benchmarks and
/// tests typically assign ids 0..n-1 themselves; the registry backs
/// ThreadSession (api/set.h) and the convenience tl_thread_id() helper.
///
/// An id may be release()d and handed to another thread only between
/// operations (RAII sessions guarantee this): per-thread substrate slots
/// (EBR epochs, RQ announcements) are quiescent at that point, so reuse is
/// indistinguishable from the original thread continuing.
class ThreadRegistry {
 public:
  /// Acquire a dense id; throws ThreadSlotsExhaustedError when all
  /// kMaxThreads slots are held (never returns an out-of-range id).
  int acquire() {
    const int tid = try_acquire();
    if (tid < 0) throw ThreadSlotsExhaustedError();
    return tid;
  }

  /// Non-throwing acquire: -1 when the id space is exhausted. The guard
  /// form for callers that must degrade gracefully (the network server's
  /// worker startup) instead of unwinding. Hands out the LOWEST free id,
  /// keeping application sessions away from the high end that
  /// try_acquire_high callers (background maintenance) live in.
  int try_acquire() noexcept {
    std::lock_guard<Spinlock> g(lock_);
    for (int i = 0; i < kMaxThreads; ++i)
      if (!used_[i]) return take(i);
    return -1;
  }

  /// Acquire from the TOP of the id space (highest free id, -1 when
  /// exhausted). MaintenanceService's workers use this so their ids are
  /// registry-tracked — a fresh try_acquire can
  /// never collide with them — while staying clear of the low ids that
  /// benchmark drivers hand-pin without consulting the registry.
  int try_acquire_high() noexcept {
    std::lock_guard<Spinlock> g(lock_);
    for (int i = kMaxThreads - 1; i >= 0; --i)
      if (!used_[i]) return take(i);
    return -1;
  }

  /// Return a tid to the pool. Callers must not release an id another
  /// in-flight operation still uses; ThreadSession's destructor is the
  /// intended call site.
  void release(int tid) noexcept {
    std::lock_guard<Spinlock> g(lock_);
    assert(tid >= 0 && tid < kMaxThreads && used_[tid]);
    used_[tid] = false;
    --in_use_;
  }

  /// High-water mark: one past the highest id ever handed out.
  int registered() const noexcept {
    std::lock_guard<Spinlock> g(lock_);
    return next_;
  }

  /// Ids currently held (acquired and not yet released).
  int in_use() const noexcept {
    std::lock_guard<Spinlock> g(lock_);
    return in_use_;
  }

  /// Global registry used by ThreadSession and tl_thread_id().
  static ThreadRegistry& instance() {
    static ThreadRegistry reg;
    return reg;
  }

 private:
  int take(int i) noexcept {
    used_[i] = true;
    ++in_use_;
    if (i >= next_) next_ = i + 1;
    return i;
  }

  mutable Spinlock lock_;
  int next_ = 0;
  int in_use_ = 0;
  bool used_[kMaxThreads] = {};
};

/// Lazily-assigned dense id for the calling thread, never released
/// (application convenience; prefer RAII sessions, which recycle ids, and
/// note the benchmark drivers pass explicit ids instead).
inline int tl_thread_id() {
  thread_local int id = ThreadRegistry::instance().acquire();
  return id;
}

/// High-water mark of thread ids that ever touched a substrate. Grace-period
/// and min-scans iterate only up to the mark instead of over all kMaxThreads
/// padded slots; threads must note() their id before any participation.
class TidHwm {
 public:
  void note(int tid) noexcept {
    int h = hwm_.load(std::memory_order_relaxed);
    while (tid >= h &&
           !hwm_.compare_exchange_weak(h, tid + 1, std::memory_order_seq_cst)) {
    }
  }
  int get() const noexcept { return hwm_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<int> hwm_{0};
};

}  // namespace bref
