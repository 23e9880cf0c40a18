#pragma once
// Background maintenance service — the one background-maintenance thread
// owner in the library (the paper's bundle cleaner, supplementary B, is
// one of its duties).
//
// The service owns one worker thread PER SHARD of a ShardedSet (or a
// single worker for a plain set) and drives every background duty the
// implementation exposes through AnyOrderedSet::maintain(): bundle
// reconciliation (prune_bundles, only when the instance reclaims), the
// EBR-RQ limbo drain (flush_limbo), and Ebr::quiesce so long prune pins
// never starve epoch advancement. Typed structures join through
// detail::AnySetAdapter (registry.h) or a registry-created instance.
//
// Rate control: each worker sleeps `interval` between passes; with
// `adaptive` set, a pass that found no work doubles the sleep up to
// `max_interval` and any productive pass snaps it back — idle shards cost
// ~zero CPU while hot shards are serviced at the base rate.
//
// Backlog-driven wakeups (`backlog_wake`): each worker owns a
// MaintenanceSignal attached to its target's retire/park path. Producers
// count retired items and notify the service's cv_ when `backlog_wake`
// items accumulate, so the limbo bound is HARD (work starts within one
// scheduler hop of the threshold, not at the next poll tick) and an idle
// shard costs zero wakeups. With `interval == 0` the signal is the only
// wake source: the worker blocks until notified instead of polling.
// Lost-wakeup safety: the worker arms the signal while holding mu_ and
// re-checks `due()` inside the wait predicate; notify() takes mu_ before
// cv_.notify_all(), so a producer crossing the threshold after the arm
// cannot slip between the worker's check and its sleep.
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
        "Reclaimable items (limbo nodes + prunable bundle entries) behind "
        "the maintenance worker, as of its last pass",
        "shard=\"" + std::to_string(gauges->size()) + "\""));
  }
  return *(*gauges)[shard];
}

/// Wakeup-cause counters, one series per reason: `bref_maintenance_
/// wakeups_total{reason="backlog"|"timer"}`. Backlog wakeups are passes
/// the producers' signal started; timer wakeups are interval expiries.
/// An idle service with backlog_wake set should show both flat.
inline obs::GaugeSet& maintenance_wakeups_counter(bool backlog) {
  static auto* by_backlog = new obs::GaugeSet(
      obs::GaugeSet::Agg::kSum, "bref_maintenance_wakeups_total",
      "Maintenance worker wakeups by cause", "reason=\"backlog\"",
      obs::MetricKind::kCounter);
  static auto* by_timer = new obs::GaugeSet(
      obs::GaugeSet::Agg::kSum, "bref_maintenance_wakeups_total",
      "Maintenance worker wakeups by cause", "reason=\"timer\"",
      obs::MetricKind::kCounter);
  return backlog ? *by_backlog : *by_timer;
}

struct MaintenanceOptions {
  /// Base pause between passes (0 = back-to-back, Table 1's d=0).
  std::chrono::milliseconds interval{2};
  /// Ceiling for the adaptive back-off.
  std::chrono::milliseconds max_interval{64};
  /// Back off while passes find no work; snap back when one does.
  bool adaptive = true;
  /// Wake a worker as soon as this many items were retired/parked on its
  /// target since the last pass (0 disables the signal: pure interval
  /// polling). With interval == 0 this is the ONLY wake source.
  size_t backlog_wake = 0;
};

struct ShardMaintenanceStats {
  uint64_t passes = 0;
  uint64_t bundle_entries_pruned = 0;
  uint64_t limbo_flushed = 0;
  uint64_t idle_backoffs = 0;
  uint64_t backlog = 0;  // reclaimables behind the worker, last pass
  uint64_t backlog_wakeups = 0;  // passes triggered by the backlog signal
  uint64_t timer_wakeups = 0;    // passes triggered by interval expiry
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
    stop_.store(false, std::memory_order_relaxed);
    if (opt_.backlog_wake != 0) {
      for (auto& w : workers_) {
        w->signal.pending.store(0, std::memory_order_relaxed);
        w->signal.armed.store(false, std::memory_order_relaxed);
        w->signal.threshold.store(opt_.backlog_wake,
                                  std::memory_order_relaxed);
        w->signal.notify = [](void* p) {
          static_cast<MaintenanceService*>(p)->wake();
        };
        w->signal.arg = this;
        w->target->set_maintenance_signal(&w->signal);
      }
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
      stop_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    for (auto& w : workers_)
      if (w->thread.joinable()) w->thread.join();
    // Detach the signals so producers stop bumping dead thresholds. The
    // Worker (and its signal) outlives this to service dtor, so a racing
    // producer that loaded the pointer before the detach stays safe.
    if (opt_.backlog_wake != 0)
      for (auto& w : workers_) w->target->set_maintenance_signal(nullptr);
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
    s.backlog_wakeups = w.backlog_wakeups->load(std::memory_order_relaxed);
    s.timer_wakeups = w.timer_wakeups->load(std::memory_order_relaxed);
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
      t.backlog_wakeups += s.backlog_wakeups;
      t.timer_wakeups += s.timer_wakeups;
    }
    return t;
  }

 private:
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
    CachePadded<std::atomic<uint64_t>> backlog_wakeups{};
    CachePadded<std::atomic<uint64_t>> timer_wakeups{};
    MaintenanceSignal signal;  // producers' backlog counter (backlog_wake)
    obs::GaugeSet::Source backlog_src;  // reads `backlog` above only
    obs::GaugeSet::Source wake_backlog_src;
    obs::GaugeSet::Source wake_timer_src;
  };

  void register_gauges() {
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker* w = workers_[i].get();
      w->backlog_src = maintenance_backlog_gauge(i).add([w] {
        return static_cast<double>(
            w->backlog->load(std::memory_order_relaxed));
      });
      w->wake_backlog_src = maintenance_wakeups_counter(true).add([w] {
        return static_cast<double>(
            w->backlog_wakeups->load(std::memory_order_relaxed));
      });
      w->wake_timer_src = maintenance_wakeups_counter(false).add([w] {
        return static_cast<double>(
            w->timer_wakeups->load(std::memory_order_relaxed));
      });
    }
  }

  /// Producers' notify target. The empty critical section pairs with the
  /// worker arming its signal under mu_: either the worker sees the
  /// crossing in its due() predicate, or this notify happens after the
  /// worker parked and wakes it.
  void wake() {
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_.notify_all();
  }

  void release_tids() noexcept {
    for (auto& w : workers_) {
      if (w->tid >= 0) ThreadRegistry::instance().release(w->tid);
      w->tid = -1;
    }
  }

  void run(Worker& w) {
    auto interval = opt_.interval;
    const bool timed = opt_.interval.count() > 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      const auto due = [this, &w] {
        return stop_.load(std::memory_order_relaxed) || w.signal.due();
      };
      if (!due()) {
        // Arm under mu_; on_produce()'s notify path locks mu_ before
        // cv_.notify_all(), so a threshold crossing after this store
        // cannot fire before we are parked in the wait (see header).
        w.signal.armed.store(true, std::memory_order_relaxed);
        if (timed)
          cv_.wait_for(lk, interval, due);
        else
          cv_.wait(lk, due);  // interval==0: block until notified
        w.signal.armed.store(false, std::memory_order_relaxed);
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      const bool backlog_wake = w.signal.due();
      w.signal.drain();
      lk.unlock();
      (backlog_wake ? w.backlog_wakeups : w.timer_wakeups)
          ->fetch_add(1, std::memory_order_relaxed);
      const MaintenanceWork work = w.target->maintain(w.tid);
      w.passes->fetch_add(1, std::memory_order_relaxed);
      w.pruned->fetch_add(work.bundle_entries_pruned,
                          std::memory_order_relaxed);
      w.flushed->fetch_add(work.limbo_flushed, std::memory_order_relaxed);
      // What the pass left behind, for the obs gauge.
      w.backlog->store(w.target->maintenance_backlog(),
                       std::memory_order_relaxed);
      if (opt_.adaptive && timed) {
        if (work.reclaimed() == 0) {
          interval = std::min(interval * 2, opt_.max_interval);
          w.idle_backoffs->fetch_add(1, std::memory_order_relaxed);
        } else {
          interval = opt_.interval;
        }
      }
      lk.lock();
    }
  }

  MaintenanceOptions opt_;
  std::vector<std::unique_ptr<Worker>> workers_;
  mutable std::mutex lifecycle_mu_;
  bool running_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
};

}  // namespace bref
