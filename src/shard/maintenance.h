#pragma once
// Background maintenance service — the one background-maintenance thread
// owner in the library (the paper's bundle cleaner, supplementary B, is
// one of its duties).
//
// The service owns one worker thread PER SHARD of a ShardedSet (or a
// single worker for a plain set) and drives every background duty the
// implementation exposes through AnyOrderedSet::maintain(): bundle
// reconciliation (prune_bundles, only when the instance reclaims; it walks
// only what updates' own cuts left behind, so a pass over a structure with
// none reads one flag), the EBR-RQ limbo drain (flush_limbo), and
// Ebr::quiesce so long prune pins never starve epoch advancement. Typed
// structures join through
// detail::AnySetAdapter (registry.h) or a registry-created instance.
//
// Rate control: a timer is the only wake-up source. Each worker sleeps
// `interval` after a pass that found work; `interval` 0 runs productive
// passes back to back (the paper's d = 0). With `adaptive` set, a pass
// that found no work doubles the sleep up to kMaxIdleSleep (64 ms) and
// any productive pass snaps it back — idle shards cost ~zero CPU while
// hot shards are serviced at the base rate. An idle pass never sleeps
// less than kMinIdleSleep (1 ms), so no setting spins on an idle
// structure. stop() wakes sleeping workers through cv_.
//
// Worker thread ids: by default start() claims a registry-tracked id from
// the TOP of the id space (ThreadRegistry::try_acquire_high) per worker,
// released by stop(). High ids stay clear of benchmark drivers that pin
// dense ids from 0 without consulting the registry, and because the slot
// is *tracked*, a concurrent try_acquire (sessions, server workers) can
// never be handed the same id — the untracked kMaxThreads-1-index
// convention this replaces could collide with recycled session ids. The
// same tracking keeps them clear of SessionPool ids, so a service can run
// beside pooled sessions.
//
// Lifecycle: construct -> start() -> stop() (idempotent, restartable);
// the destructor stops. stats(i) exposes per-shard counters.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/set_interface.h"
#include "common/cacheline.h"
#include "common/thread_registry.h"
#include "obs/metrics.h"
#include "shard/sharded_set.h"

namespace bref {

/// Per-shard-index backlog gauges (obs, shard layer): `bref_maintenance_
/// backlog{shard="i"}`, summed over live services driving that shard
/// index. Created lazily so only shard indices that actually run workers
/// appear in the exposition. Leaky, like every obs aggregation point.
inline obs::GaugeSet& maintenance_backlog_gauge(size_t shard) {
  static Spinlock lock;
  static auto* gauges = new std::vector<obs::GaugeSet*>();
  std::lock_guard<Spinlock> g(lock);
  while (gauges->size() <= shard) {
    gauges->push_back(new obs::GaugeSet(
        obs::GaugeSet::Agg::kSum, "bref_maintenance_backlog",
        "EBR-RQ limbo nodes behind the maintenance worker, as of its last "
        "pass (0 for techniques without limbo)",
        "shard=\"" + std::to_string(gauges->size()) + "\""));
  }
  return *(*gauges)[shard];
}

struct MaintenanceOptions {
  /// Pause after a pass that found work (0 = back-to-back, Table 1's d=0).
  std::chrono::milliseconds interval{2};
  /// Back off while passes find no work; snap back when one does.
  bool adaptive = true;
};

struct ShardMaintenanceStats {
  uint64_t passes = 0;
  uint64_t bundle_entries_pruned = 0;
  uint64_t limbo_flushed = 0;
  uint64_t idle_backoffs = 0;
  uint64_t backlog = 0;  // EBR-RQ limbo nodes behind the worker, last pass
};

class MaintenanceService {
 public:
  /// One worker per shard when `set` is a ShardedSet; one worker total
  /// otherwise.
  explicit MaintenanceService(AnyOrderedSet& set,
                              MaintenanceOptions opt = {})
      : opt_(opt) {
    if (auto* sharded = dynamic_cast<ShardedSet*>(&set)) {
      for (AnyOrderedSet* s : sharded->maintenance_targets())
        workers_.push_back(std::make_unique<Worker>(s));
    } else {
      workers_.push_back(std::make_unique<Worker>(&set));
    }
    register_gauges();
  }

  ~MaintenanceService() { stop(); }
  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  /// Spawns the workers. Every worker's registry id is claimed HERE,
  /// before any thread starts — callers see deterministic
  /// ThreadRegistry::in_use() accounting, and exhaustion surfaces as
  /// ThreadSlotsExhaustedError from start() (nothing spawned,
  /// already-claimed ids rolled back) instead of a silently dead worker.
  void start() {
    std::lock_guard<std::mutex> g(lifecycle_mu_);
    if (running_) return;
    for (auto& w : workers_) {
      w->tid = ThreadRegistry::instance().try_acquire_high();
      if (w->tid < 0) {
        release_tids();
        throw ThreadSlotsExhaustedError();
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = false;
    }
    for (auto& w : workers_)
      w->thread = std::thread([this, wp = w.get()] { run(*wp); });
    running_ = true;
  }

  void stop() {
    std::lock_guard<std::mutex> g(lifecycle_mu_);
    if (!running_) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_)
      if (w->thread.joinable()) w->thread.join();
    release_tids();
    running_ = false;
  }

  bool running() const {
    std::lock_guard<std::mutex> g(lifecycle_mu_);
    return running_;
  }

  size_t workers() const { return workers_.size(); }

  ShardMaintenanceStats stats(size_t worker) const {
    const Worker& w = *workers_[worker];
    ShardMaintenanceStats s;
    s.passes = w.passes->load(std::memory_order_relaxed);
    s.bundle_entries_pruned = w.pruned->load(std::memory_order_relaxed);
    s.limbo_flushed = w.flushed->load(std::memory_order_relaxed);
    s.idle_backoffs = w.idle_backoffs->load(std::memory_order_relaxed);
    s.backlog = w.backlog->load(std::memory_order_relaxed);
    return s;
  }
  ShardMaintenanceStats total() const {
    ShardMaintenanceStats t;
    for (size_t i = 0; i < workers_.size(); ++i) {
      const ShardMaintenanceStats s = stats(i);
      t.passes += s.passes;
      t.bundle_entries_pruned += s.bundle_entries_pruned;
      t.limbo_flushed += s.limbo_flushed;
      t.idle_backoffs += s.idle_backoffs;
      t.backlog += s.backlog;
    }
    return t;
  }

 private:
  /// Ceiling of the adaptive back-off, and floor of any idle pass's sleep.
  static constexpr std::chrono::milliseconds kMaxIdleSleep{64};
  static constexpr std::chrono::milliseconds kMinIdleSleep{1};

  struct Worker {
    explicit Worker(AnyOrderedSet* t) : target(t) {}
    AnyOrderedSet* target;
    std::thread thread;
    int tid = -1;  // registry-tracked id, set by start()
    CachePadded<std::atomic<uint64_t>> passes{};
    CachePadded<std::atomic<uint64_t>> pruned{};
    CachePadded<std::atomic<uint64_t>> flushed{};
    CachePadded<std::atomic<uint64_t>> idle_backoffs{};
    CachePadded<std::atomic<uint64_t>> backlog{};
    obs::GaugeSet::Source backlog_src;  // reads `backlog` above only
  };

  void register_gauges() {
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker* w = workers_[i].get();
      w->backlog_src = maintenance_backlog_gauge(i).add([w] {
        return static_cast<double>(
            w->backlog->load(std::memory_order_relaxed));
      });
    }
  }

  void release_tids() noexcept {
    for (auto& w : workers_) {
      if (w->tid >= 0) ThreadRegistry::instance().release(w->tid);
      w->tid = -1;
    }
  }

  void run(Worker& w) {
    auto delay = opt_.interval;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        if (cv_.wait_for(lk, delay, [this] { return stop_; })) return;
      }
      const MaintenanceWork work = w.target->maintain(w.tid);
      w.passes->fetch_add(1, std::memory_order_relaxed);
      w.pruned->fetch_add(work.bundle_entries_pruned,
                          std::memory_order_relaxed);
      w.flushed->fetch_add(work.limbo_flushed, std::memory_order_relaxed);
      // What the pass left behind, for the obs gauge.
      w.backlog->store(w.target->maintenance_backlog(),
                       std::memory_order_relaxed);
      if (work.reclaimed() != 0) {
        delay = opt_.interval;
      } else if (opt_.adaptive) {
        delay = std::clamp(delay * 2, kMinIdleSleep, kMaxIdleSleep);
        w.idle_backoffs->fetch_add(1, std::memory_order_relaxed);
      } else {
        delay = std::max(opt_.interval, kMinIdleSleep);
      }
    }
  }

  MaintenanceOptions opt_;
  std::vector<std::unique_ptr<Worker>> workers_;
  mutable std::mutex lifecycle_mu_;
  bool running_ = false;
  std::mutex mu_;
  std::condition_variable cv_;  // wakes sleeping workers for stop() only
  bool stop_ = false;           // guarded by mu_
};

}  // namespace bref
