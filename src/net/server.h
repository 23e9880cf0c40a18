#pragma once
// bref::net::Server — the epoll-batched network front-end over a
// ShardedSet of one of the registry's ordered sets.
//
// Architecture (one acceptor + N worker loops):
//
//   * The acceptor thread owns the listening socket; each accepted
//     connection is handed to a worker round-robin and stays pinned to it
//     for life (no cross-worker migration, so per-connection state needs
//     no locks).
//   * Each worker runs an edge-triggered epoll loop over its connections.
//     One epoll wave drains EVERYTHING readable: for each ready
//     connection the worker reads to EAGAIN, parses every complete frame,
//     executes the whole batch against the set, then flushes the
//     responses with one writev per connection (pending bytes from an
//     earlier short write + this wave's responses = two iovecs).
//     Pipelined clients therefore amortize both syscalls and the
//     session's cache warmth over the whole batch.
//   * Sessions: each worker holds ONE dense thread id (SessionGuard) for
//     its whole lifetime and executes every pinned connection's ops under
//     it. Connections never consume ThreadRegistry slots — the
//     connection:session mapping is many:1 by construction, so accepting
//     more connections than kMaxThreads is fine.
//   * Transactions: TXN_BEGIN/TXN_OP buffer ops per connection;
//     TXN_COMMIT executes the batch back-to-back under the worker's
//     session (mirroring MiniDB's db::Txn: one id over the batch, effects
//     applied eagerly, abort = discard the buffer). Ops of one
//     transaction are never interleaved with other ops *on this worker*,
//     but there is no cross-worker isolation — documented in PROTOCOL.md.
//
//   * Guard layer (net/guard.h): long RANGEs run as cooperative chunked
//     scans under a second, scan-dedicated session per worker (one
//     timestamp, bounded key-budget slices behind each wave); per-wave
//     admission budgets shed excess frames with kErrOverloaded +
//     retry-after; a timer wheel reaps idle connections and write
//     stalls; pending-write caps disconnect unrecoverably slow readers.
//     Policy in ServerOptions::guard, counters in ServerStats/obs.
//
// Lifecycle: construct -> start() -> stop() (idempotent; the destructor
// stops). start() spawns the MaintenanceService for the backing set;
// stop() closes the listener, lets every worker execute what it already
// buffered and flush pending writes (deadline-bounded drain — stragglers
// are counted in bref_net_stop_dropped), closes all connections, joins
// the loops, and stops maintenance — under ASan this is fd- and
// session-leak free (test_net asserts the ThreadRegistry high-water mark
// returns to baseline).
//
// All wire syscalls go through bref::net::fault wrappers
// (net/testing/faultfd.h): plain passthrough in production, seeded fault
// injection under the chaos suite.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/builtin_impls.h"
#include "api/registry.h"
#include "api/session.h"
#include "api/set_interface.h"
#include "common/cacheline.h"
#include "net/guard.h"
#include "net/protocol.h"
#include "net/testing/faultfd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/builtin_shards.h"
#include "shard/maintenance.h"
#include "shard/sharded_set.h"

namespace bref::net {

inline const char* op_name(uint8_t op) {
  switch (static_cast<Op>(op)) {
    case Op::kGet: return "get";
    case Op::kInsert: return "insert";
    case Op::kRemove: return "remove";
    case Op::kRange: return "range";
    case Op::kTxnBegin: return "txn_begin";
    case Op::kTxnOp: return "txn_op";
    case Op::kTxnCommit: return "txn_commit";
    case Op::kTxnAbort: return "txn_abort";
    case Op::kPing: return "ping";
    case Op::kStats: return "stats";
    case Op::kMetrics: return "metrics";
    case Op::kTraceDump: return "trace_dump";
    case Op::kTraceGet: return "trace_get";
  }
  return "unknown";
}

/// Steady-clock nanoseconds for stage attribution; constant-folds to 0
/// when obs is compiled out, which dead-codes every duration math below.
inline uint64_t obs_now_ns() {
  if constexpr (!obs::kEnabled) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The wire path's tail-latency attribution (obs, net layer): where a
/// request's time goes between the epoll wakeup that surfaced it and the
/// writev that answered it. Process-wide; benches attribute per-scenario
/// via HistogramSnapshot deltas.
inline obs::Histogram& stage_hist(int stage) {  // 0 queue, 1 execute, 2 flush
  static obs::Histogram* h[3] = {
      &obs::registry().histogram(
          "bref_net_stage_seconds",
          "Worker-loop stage time per connection batch", "stage=\"queue\"",
          1e9),
      &obs::registry().histogram(
          "bref_net_stage_seconds",
          "Worker-loop stage time per connection batch", "stage=\"execute\"",
          1e9),
      &obs::registry().histogram(
          "bref_net_stage_seconds",
          "Worker-loop stage time per connection batch", "stage=\"flush\"",
          1e9)};
  return *h[stage];
}

inline obs::Histogram& op_hist(Op op) {
  auto make = [](const char* name) {
    return &obs::registry().histogram(
        "bref_net_op_seconds", "Per-op execute time on the worker loop",
        std::string("op=\"") + name + "\"", 1e9);
  };
  switch (op) {
    case Op::kGet: { static auto* h = make("get"); return *h; }
    case Op::kInsert: { static auto* h = make("insert"); return *h; }
    case Op::kRemove: { static auto* h = make("remove"); return *h; }
    case Op::kRange: { static auto* h = make("range"); return *h; }
    case Op::kTxnCommit: { static auto* h = make("txn_commit"); return *h; }
    default: { static auto* h = make("other"); return *h; }
  }
}

/// Server-level series aggregated over live Server instances (servers are
/// created and destroyed per bench scenario; RAII sources keep the
/// exposition honest). Index order matches Server::register_obs().
inline obs::GaugeSet& server_series(size_t i) {
  using GS = obs::GaugeSet;
  using MK = obs::MetricKind;
  static auto* v = [] {
    auto* u = new std::vector<GS*>();
    auto add = [&](GS::Agg a, const char* n, const char* h, MK k) {
      u->push_back(new GS(a, n, h, "", k));
    };
    add(GS::Agg::kSum, "bref_net_connections",
        "Connections currently adopted by worker loops", MK::kGauge);
    add(GS::Agg::kMax, "bref_net_connections_peak",
        "High-water mark of adopted connections (max over live servers)",
        MK::kGauge);
    add(GS::Agg::kSum, "bref_net_accepted_total",
        "Connections accepted", MK::kCounter);
    add(GS::Agg::kSum, "bref_net_frames_total",
        "Request frames executed", MK::kCounter);
    add(GS::Agg::kSum, "bref_net_batches_total",
        "Epoll waves that executed at least one frame", MK::kCounter);
    add(GS::Agg::kSum, "bref_net_bytes_in_total",
        "Request bytes read", MK::kCounter);
    add(GS::Agg::kSum, "bref_net_bytes_out_total",
        "Response bytes written", MK::kCounter);
    add(GS::Agg::kSum, "bref_net_protocol_errors_total",
        "Error responses sent", MK::kCounter);
    add(GS::Agg::kSum, "bref_net_txns_committed_total",
        "Wire transactions committed", MK::kCounter);
    add(GS::Agg::kSum, "bref_net_txns_aborted_total",
        "Wire transactions aborted", MK::kCounter);
    return u;
  }();
  return *(*v)[i];
}
inline constexpr size_t kServerSeries = 10;

/// bref-trace series, aggregated over live servers like server_series().
/// Index order matches Server::register_obs().
inline obs::GaugeSet& trace_series(size_t i) {
  using GS = obs::GaugeSet;
  using MK = obs::MetricKind;
  static auto* v = [] {
    auto* u = new std::vector<GS*>();
    auto add = [&](const char* n, const char* h, MK k) {
      u->push_back(new GS(GS::Agg::kSum, n, h, "", k));
    };
    add("bref_trace_committed_total",
        "Request traces committed to the per-worker rings (tail threshold "
        "or reservoir)", MK::kCounter);
    add("bref_trace_dropped_total",
        "Committed trace records overwritten by ring-window churn",
        MK::kCounter);
    add("bref_trace_scratch_exhausted_total",
        "Requests not traced because the worker's scratch-slot pool was full",
        MK::kCounter);
    add("bref_trace_scratch_in_use",
        "Trace scratch slots currently held (live chunked scans when idle)",
        MK::kGauge);
    return u;
  }();
  return *(*v)[i];
}
inline constexpr size_t kTraceSeries = 4;

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Worker event loops; each holds one session for all its connections.
  int workers = 2;
  /// Registry name of the backing implementation.
  std::string impl = "Bundle-skiplist";
  /// Shard the keyspace over this many instances (<= 1: one shard, which
  /// answers exactly as the bare implementation does).
  size_t shards = 4;
  /// Partition bounds when sharding (ShardOptions semantics).
  KeyT key_lo = 0;
  KeyT key_hi = 1 << 20;
  /// Reject request frames declaring more than this many payload bytes.
  uint32_t max_frame = kDefaultMaxFrame;
  /// Buffered ops per transaction before TXN_OP answers kErrTxnState.
  size_t max_txn_ops = 1024;
  /// Run the per-shard MaintenanceService while the server is up.
  bool maintenance = true;
  MaintenanceOptions maint{};
  int backlog = 128;
  /// Overload protection / graceful degradation policy (net/guard.h).
  GuardOptions guard{};
};

/// Monotonic server-wide counters (relaxed; exact once quiescent).
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t frames = 0;          // requests executed
  uint64_t batches = 0;         // epoll waves that executed >= 1 frame
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t protocol_errors = 0; // error responses sent
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t connections = 0;       // live right now (approximate under churn)
  uint64_t connections_peak = 0;  // sum of per-worker adoption high-waters
  // Guard layer (net/guard.h):
  uint64_t shed = 0;          // frames answered kErrOverloaded (not executed)
  uint64_t chunked_rqs = 0;   // RANGEs run as cooperative chunked scans
  uint64_t scan_slices = 0;   // slices executed across all chunked scans
  uint64_t reaped_idle = 0;         // connections reaped: idle timeout
  uint64_t reaped_write_stall = 0;  // connections reaped: write stall
  uint64_t reaped_slow_reader = 0;  // connections reaped: pending cap
  uint64_t stop_dropped = 0;  // conns closed at stop() with undelivered bytes
  uint64_t overloaded = 0;    // workers currently shedding (gauge)
  // bref-trace (obs/trace.h):
  uint64_t trace_committed = 0;          // records pushed to the rings
  uint64_t trace_dropped = 0;            // ring-window evictions
  uint64_t trace_scratch_exhausted = 0;  // requests untraced: pool full
  uint64_t trace_scratch_in_use = 0;     // slots held right now (gauge)
};

class Server {
 public:
  explicit Server(ServerOptions opt = {}) : opt_(std::move(opt)) {
    ImplDescriptor desc;
    if (!ImplRegistry::instance().find(opt_.impl, &desc))
      throw std::invalid_argument("unknown ordered-set implementation: " +
                                  opt_.impl);
    ShardOptions so;
    so.shards = opt_.shards;
    so.key_lo = opt_.key_lo;
    so.key_hi = opt_.key_hi;
    so.inner = SetOptions{.reclaim = desc.caps.reclamation};
    set_ = std::make_unique<ShardedSet>(opt_.impl, so);
    if (opt_.maintenance)
      maint_ = std::make_unique<MaintenanceService>(*set_, opt_.maint);
  }

  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, spawn acceptor + workers (+ maintenance). Throws on
  /// socket errors or session exhaustion; safe to call once per stop().
  void start() {
    std::lock_guard<std::mutex> g(lifecycle_mu_);
    if (running_) return;
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(listen_fd_, opt_.backlog) < 0) {
      const int e = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error(std::string("bind/listen: ") +
                               std::strerror(e));
    }
    socklen_t alen = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
    port_ = ntohs(addr.sin_port);

    stop_.store(false, std::memory_order_relaxed);
    workers_.clear();
    // Every step that can throw — worker session ids, epoll fds, the
    // maintenance service's registry ids — runs BEFORE any thread spawns,
    // so a failed start() unwinds to a fully stopped server (no half-live
    // acceptor to join, no leaked fds or ids) and can be retried.
    try {
      const int nworkers = opt_.workers < 1 ? 1 : opt_.workers;
      for (int i = 0; i < nworkers; ++i) {
        auto w = std::make_unique<Worker>();
        // Acquire the worker's sessions up front, on this thread, so
        // start() can fail with a clear error instead of a dead loop: the
        // guards are just dense ids, valid from any thread that uses them
        // exclusively, and this worker's loop is their only user. The
        // second id is scan-dedicated: a chunked scan holds EBR pins
        // across waves, and Ebr::pin/unpin is not reentrant per tid, so
        // point ops (worker session) and the held scan (scan session)
        // must not share one.
        if (!w->session.acquired() || !w->scan_session.acquired())
          throw ThreadSlotsExhaustedError();
        w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
        w->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (w->epoll_fd < 0 || w->wake_fd < 0) throw_errno("epoll/eventfd");
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = w->wake_fd;
        ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev);
        workers_.push_back(std::move(w));
      }
      if (maint_) maint_->start();
    } catch (...) {
      workers_.clear();  // releases acquired guards, closes epoll/wake fds
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw;
    }
    // Register the obs sources only once workers_ is fully built: their
    // callbacks iterate it without the lifecycle lock (see the stats()
    // NOTE below), so registration brackets exactly the stable window —
    // stop() removes them before mutating the vector.
    register_obs();
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker* wp = workers_[i].get();
      wp->index = static_cast<uint8_t>(i);
      wp->thread = std::thread([this, wp] { worker_loop(*wp); });
    }
    acceptor_ = std::thread([this] { acceptor_loop(); });
    running_ = true;
  }

  /// Drain and shut down: stop accepting, execute every already-buffered
  /// frame, flush pending responses (bounded retry), close all fds, join
  /// all threads, stop maintenance. Idempotent; restartable.
  void stop() {
    std::lock_guard<std::mutex> g(lifecycle_mu_);
    if (!running_) return;
    // Unregister the obs sources first: removal blocks on in-flight
    // snapshot reads, so no callback can observe workers_ mid-teardown.
    for (auto& s : obs_srcs_) s.reset();
    for (auto& s : obs_guard_srcs_) s.reset();
    for (auto& s : obs_trace_srcs_) s.reset();
    stop_.store(true, std::memory_order_release);
    // Closing the listener wakes the acceptor's epoll_wait with EPOLLHUP
    // semantics; the eventfd write is belt and braces.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    for (auto& w : workers_) wake(*w);
    for (auto& w : workers_)
      if (w->thread.joinable()) w->thread.join();
    workers_.clear();  // closes epoll/wake fds, releases session guards
    if (maint_) maint_->stop();
    running_ = false;
  }

  bool running() const {
    std::lock_guard<std::mutex> g(lifecycle_mu_);
    return running_;
  }
  uint16_t port() const { return port_; }
  ShardedSet& set() { return *set_; }
  MaintenanceService* maintenance() { return maint_.get(); }

  /// NOTE on the stats accessors: they read workers_ without the
  /// lifecycle lock. workers_ is only mutated by start()/stop(), and a
  /// STATS request is *executed by a worker*, which would deadlock
  /// against stop() (it joins workers under the lock) if these locked.
  /// Between start() and stop() the vector is stable; after stop() it is
  /// empty — both safe to iterate. Counters themselves are relaxed
  /// atomics, exact once quiescent.
  ServerStats stats() const {
    ServerStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.closed = closed_.load(std::memory_order_relaxed);
    for (const auto& w : workers_) {
      s.frames += w->frames.load(std::memory_order_relaxed);
      s.batches += w->batches.load(std::memory_order_relaxed);
      s.bytes_in += w->bytes_in.load(std::memory_order_relaxed);
      s.bytes_out += w->bytes_out.load(std::memory_order_relaxed);
      s.protocol_errors += w->protocol_errors.load(std::memory_order_relaxed);
      s.txns_committed += w->txns_committed.load(std::memory_order_relaxed);
      s.txns_aborted += w->txns_aborted.load(std::memory_order_relaxed);
      s.connections += w->nconns.load(std::memory_order_relaxed);
      s.connections_peak += w->peak_conns.load(std::memory_order_relaxed);
      s.shed += w->shed.load(std::memory_order_relaxed);
      s.chunked_rqs += w->chunked.load(std::memory_order_relaxed);
      s.scan_slices += w->scan_slices.load(std::memory_order_relaxed);
      s.reaped_idle += w->reaped_idle.load(std::memory_order_relaxed);
      s.reaped_write_stall +=
          w->reaped_stall.load(std::memory_order_relaxed);
      s.reaped_slow_reader += w->reaped_slow.load(std::memory_order_relaxed);
      s.overloaded += w->overloaded.load(std::memory_order_relaxed) ? 1 : 0;
      s.trace_committed += w->trace.committed();
      s.trace_dropped += w->trace.dropped();
      s.trace_scratch_exhausted +=
          w->trace_scratch_exhausted.load(std::memory_order_relaxed);
      s.trace_scratch_in_use += static_cast<uint64_t>(w->tslots.in_use());
    }
    // Server-level (not per-worker) so it stays readable after stop()
    // tears the workers down — it is precisely a shutdown statistic.
    s.stop_dropped = stop_dropped_.load(std::memory_order_relaxed);
    return s;
  }

  /// Live connection count (approximate under churn).
  size_t connections() const {
    size_t n = 0;
    for (const auto& w : workers_)
      n += w->nconns.load(std::memory_order_relaxed);
    return n;
  }

  /// Sum of per-worker adoption high-waters. An upper bound on the true
  /// concurrent peak (workers peak independently), and — unlike the live
  /// gauge — nonzero in any post-run stats capture, which is what made
  /// BENCH_6's "connections: 0" unanswerable.
  size_t peak_connections() const {
    size_t n = 0;
    for (const auto& w : workers_)
      n += w->peak_conns.load(std::memory_order_relaxed);
    return n;
  }

  /// The STATS response body: server counters, routing counters,
  /// per-shard maintenance stats when the service runs.
  std::string stats_json() const {
    const ServerStats s = stats();
    char buf[512];
    std::string out = "{";
    std::snprintf(buf, sizeof buf,
                  "\"impl\": \"%s\", \"shards\": %zu, \"workers\": %zu, "
                  "\"connections\": %zu, \"connections_peak\": %zu, "
                  "\"accepted\": %llu, "
                  "\"frames\": %llu, \"batches\": %llu, "
                  "\"frames_per_batch\": %.2f, \"bytes_in\": %llu, "
                  "\"bytes_out\": %llu, \"protocol_errors\": %llu, "
                  "\"txns_committed\": %llu, \"txns_aborted\": %llu",
                  opt_.impl.c_str(), set_->num_shards(),
                  workers_.size(), connections(), peak_connections(),
                  static_cast<unsigned long long>(s.accepted),
                  static_cast<unsigned long long>(s.frames),
                  static_cast<unsigned long long>(s.batches),
                  s.batches ? static_cast<double>(s.frames) / s.batches : 0.0,
                  static_cast<unsigned long long>(s.bytes_in),
                  static_cast<unsigned long long>(s.bytes_out),
                  static_cast<unsigned long long>(s.protocol_errors),
                  static_cast<unsigned long long>(s.txns_committed),
                  static_cast<unsigned long long>(s.txns_aborted));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  ", \"guard\": {\"shed\": %llu, \"chunked_rqs\": %llu, "
                  "\"scan_slices\": %llu, \"reaped_idle\": %llu, "
                  "\"reaped_write_stall\": %llu, "
                  "\"reaped_slow_reader\": %llu, \"stop_dropped\": %llu, "
                  "\"overloaded\": %llu}",
                  static_cast<unsigned long long>(s.shed),
                  static_cast<unsigned long long>(s.chunked_rqs),
                  static_cast<unsigned long long>(s.scan_slices),
                  static_cast<unsigned long long>(s.reaped_idle),
                  static_cast<unsigned long long>(s.reaped_write_stall),
                  static_cast<unsigned long long>(s.reaped_slow_reader),
                  static_cast<unsigned long long>(s.stop_dropped),
                  static_cast<unsigned long long>(s.overloaded));
    out += buf;
    // Trace-slot accounting: the chaos suite asserts scratch_in_use
    // returns to the number of live chunked scans (0 when idle) after
    // fault storms and shed bursts — a leaked slot means some request
    // path forgot its terminal span.
    std::snprintf(buf, sizeof buf,
                  ", \"trace\": {\"committed\": %llu, \"dropped\": %llu, "
                  "\"scratch_exhausted\": %llu, \"scratch_in_use\": %llu}",
                  static_cast<unsigned long long>(s.trace_committed),
                  static_cast<unsigned long long>(s.trace_dropped),
                  static_cast<unsigned long long>(s.trace_scratch_exhausted),
                  static_cast<unsigned long long>(s.trace_scratch_in_use));
    out += buf;
    const ShardedSetStats r = set_->stats();
    std::snprintf(buf, sizeof buf,
                  ", \"routing\": {\"single_shard_rqs\": %llu, "
                  "\"coordinated_rqs\": %llu, \"fallback_rqs\": %llu, "
                  "\"timestamps_acquired\": %llu}",
                  static_cast<unsigned long long>(r.single_shard_rqs),
                  static_cast<unsigned long long>(r.coordinated_rqs),
                  static_cast<unsigned long long>(r.fallback_rqs),
                  static_cast<unsigned long long>(r.timestamps_acquired));
    out += buf;
    if (maint_) {
      out += ", \"maintenance\": [";
      for (size_t i = 0; i < maint_->workers(); ++i) {
        const ShardMaintenanceStats m = maint_->stats(i);
        std::snprintf(buf, sizeof buf,
                      "%s{\"passes\": %llu, \"pruned\": %llu, "
                      "\"flushed\": %llu, \"idle_backoffs\": %llu, "
                      "\"backlog\": %llu}",
                      i > 0 ? ", " : "",
                      static_cast<unsigned long long>(m.passes),
                      static_cast<unsigned long long>(m.bundle_entries_pruned),
                      static_cast<unsigned long long>(m.limbo_flushed),
                      static_cast<unsigned long long>(m.idle_backoffs),
                      static_cast<unsigned long long>(m.backlog));
        out += buf;
      }
      out += "]";
    }
    // The registry view — counters, gauges and quantile summaries across
    // all four layers — spliced in whole, so STATS is the JSON twin of
    // the METRICS exposition.
    out += ", \"obs\": " + obs::registry().json();
    return out + "}";
  }

  /// One committed record as JSON — the TRACE_GET body, and one element
  /// of TRACE_DUMP's "records". Ids render as 16-hex (the exemplar form),
  /// stages by name; tools/trace2chrome consumes this shape.
  static std::string trace_record_json(const obs::TraceRecord& r) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"trace_id\": \"%016llx\", \"op\": \"%s\", "
                  "\"worker\": %u, \"start_ns\": %llu, \"total_ns\": %llu, "
                  "\"flags\": %u, \"spans\": [",
                  static_cast<unsigned long long>(r.trace_id), op_name(r.op),
                  r.worker, static_cast<unsigned long long>(r.start_ns),
                  static_cast<unsigned long long>(r.total_ns), r.flags);
    std::string out = buf;
    for (int i = 0; i < r.nspans; ++i) {
      const obs::TraceStageSpan& s = r.spans[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"stage\": \"%s\", \"start_ns\": %u, \"dur_ns\": %u, "
                    "\"aux8\": %u, \"aux16\": %u}",
                    i > 0 ? ", " : "", obs::trace_stage_name(s.stage),
                    s.start_ns, s.dur_ns, s.aux8, s.aux16);
      out += buf;
    }
    return out + "]}";
  }

  /// The TRACE_DUMP response body: every worker's committed records —
  /// ring window plus slowest board, deduplicated — with the active
  /// capture policy and drop accounting.
  std::string trace_dump_json() const {
    const uint64_t thr =
        obs::trace_threshold_ns().load(std::memory_order_relaxed);
    uint64_t committed = 0, dropped = 0;
    std::vector<obs::TraceRecord> recs;
    for (const auto& w : workers_) {
      committed += w->trace.committed();
      dropped += w->trace.dropped();
      w->trace.snapshot(recs);
      w->board.snapshot(recs);
    }
    std::string out =
        "{\"sample_every\": " +
        std::to_string(
            obs::trace_sample_every().load(std::memory_order_relaxed)) +
        ", \"threshold_ns\": " +
        (thr == obs::kTraceThresholdOff ? std::string("-1")
                                        : std::to_string(thr)) +
        ", \"committed\": " + std::to_string(committed) +
        ", \"dropped\": " + std::to_string(dropped) + ", \"records\": [";
    bool first = true;
    std::vector<uint64_t> seen;
    seen.reserve(recs.size());
    for (const obs::TraceRecord& r : recs) {
      if (std::find(seen.begin(), seen.end(), r.trace_id) != seen.end())
        continue;  // board entries also live in the ring until evicted
      seen.push_back(r.trace_id);
      if (!first) out += ", ";
      out += trace_record_json(r);
      first = false;
    }
    return out + "]}";
  }

  /// TRACE_GET lookup: boards first (the tail survives there even after
  /// ring churn), then ring windows, newest first.
  bool find_trace(uint64_t trace_id, obs::TraceRecord* out) const {
    if (trace_id == 0) return false;
    for (const auto& w : workers_)
      if (w->board.find(trace_id, *out)) return true;
    for (const auto& w : workers_)
      if (w->trace.find(trace_id, *out)) return true;
    return false;
  }

 private:
  // -- per-connection state (owned by exactly one worker) ------------------
  struct BufferedOp {
    Op op;
    KeyT key;
    ValT val;
  };
  struct Conn {
    explicit Conn(int fd_) : fd(fd_) {}
    ~Conn() {
      if (fd >= 0) ::close(fd);
    }
    int fd;
    std::vector<uint8_t> in;       // unparsed request bytes
    std::vector<uint8_t> pending;  // response bytes a short write left over
    size_t pending_off = 0;
    bool epollout = false;         // EPOLLOUT currently armed
    bool closing = false;          // poisoned stream: close once flushed
    bool in_txn = false;
    std::vector<BufferedOp> txn;
    // Guard state:
    uint32_t gen = 0;              // timer-wheel validity token
    uint64_t last_activity_ms = 0; // last byte read (idle reaping)
    uint64_t pending_since_ms = 0; // pending became nonempty (0 = empty)
    bool paused = false;   // a chunked scan owns the connection's ordering
    bool kicked = false;   // epoll events arrived while paused
    bool scan_queued = false;  // waiting for the worker's scan slot
    KeyT scan_lo = 0, scan_hi = 0;  // the queued/active scan's interval
    // Trace scratch held across waves by this connection's chunked scan
    // (null otherwise). Owned by the pinned worker's slot pool; every
    // path that ends the scan — completion, drop, stop() — must
    // terminate and release it (the chaos suite audits this).
    obs::TraceScratch* trace = nullptr;
  };

  struct Worker {
    SessionGuard session;
    // Scan-dedicated session: chunked scans hold EBR pins across waves,
    // and Ebr::pin/unpin is not reentrant per tid, so the held scan and
    // the wave's point ops must run under different ids.
    SessionGuard scan_session;
    int epoll_fd = -1;
    int wake_fd = -1;
    uint8_t index = 0;  // position in workers_ (trace span attribution)
    std::thread thread;
    // Handoff queue from the acceptor (the only cross-thread touch).
    std::mutex inbox_mu;
    std::vector<int> inbox;
    // -- loop-private state (only the worker thread touches these) ------
    std::vector<std::unique_ptr<Conn>> conns;  // indexed by fd
    TimerWheel wheel;        // idle + write-stall deadlines
    uint32_t next_gen = 0;   // timer-wheel generation source
    std::optional<ShardedSet::Snapshot> scan;  // active chunked scan (<= 1)
    std::vector<std::pair<KeyT, ValT>> scan_items;  // its collected slices
    int scan_fd = -1;                    // its owning connection
    uint64_t scan_start_ns = 0;          // op_hist attribution
    std::vector<int> scan_waiters;       // conns queued for the scan slot
    std::atomic<size_t> nconns{0};
    // High-water of nconns; single-writer (the loop adopts), so a plain
    // load/store bump suffices.
    std::atomic<uint64_t> peak_conns{0};
    // Written by the loop, read by any STATS caller: relaxed atomics.
    std::atomic<uint64_t> frames{0}, batches{0}, bytes_in{0}, bytes_out{0};
    std::atomic<uint64_t> protocol_errors{0}, txns_committed{0},
        txns_aborted{0};
    // Guard counters (net/guard.h semantics; aggregated by stats()).
    std::atomic<uint64_t> shed{0}, chunked{0}, scan_slices{0};
    std::atomic<uint64_t> reaped_idle{0}, reaped_stall{0}, reaped_slow{0};
    std::atomic<bool> overloaded{false};  // last wave shed something
    // bref-trace (obs/trace.h): scratch slots for in-flight request
    // traces, the committed-record ring (recency window) and the slowest
    // board (all-time tail). The loop is the only writer; any worker
    // executing TRACE_DUMP/TRACE_GET reads via the slots' seqlocks.
    obs::TraceSlots tslots;
    obs::TraceRing trace;
    obs::TraceBoard board;
    uint64_t trace_seq = 0;  // loop-private server-side trace-id source
    std::atomic<uint64_t> trace_scratch_exhausted{0};

    ~Worker() {
      if (epoll_fd >= 0) ::close(epoll_fd);
      if (wake_fd >= 0) ::close(wake_fd);
      for (int fd : inbox) ::close(fd);  // accepted but never adopted
    }
  };

  [[noreturn]] static void throw_errno(const char* what) {
    throw std::runtime_error(std::string(what) + ": " +
                             std::strerror(errno));
  }

  /// Register this instance's callback sources (see start()/stop() for
  /// the workers_-stability bracket). Indices follow server_series().
  void register_obs() {
    auto reg = [this](size_t i, double (Server::*read)() const) {
      obs_srcs_[i] =
          server_series(i).add([this, read] { return (this->*read)(); });
    };
    reg(0, &Server::obs_connections);
    reg(1, &Server::obs_peak);
    reg(2, &Server::obs_accepted);
    reg(3, &Server::obs_frames);
    reg(4, &Server::obs_batches);
    reg(5, &Server::obs_bytes_in);
    reg(6, &Server::obs_bytes_out);
    reg(7, &Server::obs_protocol_errors);
    reg(8, &Server::obs_txns_committed);
    reg(9, &Server::obs_txns_aborted);
    auto greg = [this](size_t i, double (Server::*read)() const) {
      obs_guard_srcs_[i] =
          guard_series(i).add([this, read] { return (this->*read)(); });
    };
    greg(0, &Server::obs_shed);
    greg(1, &Server::obs_chunked);
    greg(2, &Server::obs_scan_slices);
    greg(3, &Server::obs_reaped_idle);
    greg(4, &Server::obs_reaped_stall);
    greg(5, &Server::obs_reaped_slow);
    greg(6, &Server::obs_stop_dropped);
    greg(7, &Server::obs_overloaded);
    auto treg = [this](size_t i, double (Server::*read)() const) {
      obs_trace_srcs_[i] =
          trace_series(i).add([this, read] { return (this->*read)(); });
    };
    treg(0, &Server::obs_trace_committed);
    treg(1, &Server::obs_trace_dropped);
    treg(2, &Server::obs_trace_exhausted);
    treg(3, &Server::obs_trace_in_use);
  }
  double obs_connections() const { return static_cast<double>(connections()); }
  double obs_peak() const { return static_cast<double>(peak_connections()); }
  double obs_accepted() const {
    return static_cast<double>(accepted_.load(std::memory_order_relaxed));
  }
  double obs_frames() const { return static_cast<double>(stats().frames); }
  double obs_batches() const { return static_cast<double>(stats().batches); }
  double obs_bytes_in() const { return static_cast<double>(stats().bytes_in); }
  double obs_bytes_out() const {
    return static_cast<double>(stats().bytes_out);
  }
  double obs_protocol_errors() const {
    return static_cast<double>(stats().protocol_errors);
  }
  double obs_txns_committed() const {
    return static_cast<double>(stats().txns_committed);
  }
  double obs_txns_aborted() const {
    return static_cast<double>(stats().txns_aborted);
  }
  double obs_shed() const { return static_cast<double>(stats().shed); }
  double obs_chunked() const {
    return static_cast<double>(stats().chunked_rqs);
  }
  double obs_scan_slices() const {
    return static_cast<double>(stats().scan_slices);
  }
  double obs_reaped_idle() const {
    return static_cast<double>(stats().reaped_idle);
  }
  double obs_reaped_stall() const {
    return static_cast<double>(stats().reaped_write_stall);
  }
  double obs_reaped_slow() const {
    return static_cast<double>(stats().reaped_slow_reader);
  }
  double obs_stop_dropped() const {
    return static_cast<double>(stats().stop_dropped);
  }
  double obs_overloaded() const {
    return static_cast<double>(stats().overloaded);
  }
  double obs_trace_committed() const {
    return static_cast<double>(stats().trace_committed);
  }
  double obs_trace_dropped() const {
    return static_cast<double>(stats().trace_dropped);
  }
  double obs_trace_exhausted() const {
    return static_cast<double>(stats().trace_scratch_exhausted);
  }
  double obs_trace_in_use() const {
    return static_cast<double>(stats().trace_scratch_in_use);
  }

  static void wake(Worker& w) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(w.wake_fd, &one, sizeof one);
  }

  // -- acceptor ------------------------------------------------------------
  void acceptor_loop() {
    size_t next = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      pollfd p{listen_fd_, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      for (;;) {
        const int fd = fault::accept4(listen_fd_, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR) continue;
          // Out of fds: back off instead of spinning hot on a readable
          // listener; the pending connection is retried next poll.
          if (errno == EMFILE || errno == ENFILE)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          break;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        Worker& w = *workers_[next++ % workers_.size()];
        {
          std::lock_guard<std::mutex> g(w.inbox_mu);
          w.inbox.push_back(fd);
        }
        wake(w);
      }
    }
  }

  // -- worker loop ---------------------------------------------------------
  void worker_loop(Worker& w) {
    const int tid = w.session.tid();
    std::vector<epoll_event> events(256);
    std::vector<uint8_t> scratch;  // this wave's responses, per connection
    RangeSnapshot rq_out;

    for (;;) {
      // A live (or queued) chunked scan wants the loop back immediately
      // after servicing what's ready; otherwise sleep one timer-wheel
      // granularity so deadlines fire near their time.
      const int timeout = w.scan || !w.scan_waiters.empty() ? 0 : 100;
      const int n = ::epoll_wait(w.epoll_fd, events.data(),
                                 static_cast<int>(events.size()), timeout);
      // Queue-wait attribution starts here: everything a request waits
      // for past this point is this loop's doing, not the kernel's.
      const uint64_t wake_ns = obs_now_ns();
      const uint64_t now_ms = steady_ms();
      const bool stopping = stop_.load(std::memory_order_acquire);
      // Adopt connections handed over by the acceptor.
      {
        std::vector<int> fresh;
        {
          std::lock_guard<std::mutex> g(w.inbox_mu);
          fresh.swap(w.inbox);
        }
        for (int fd : fresh) {
          if (stopping) {
            ::close(fd);
            closed_.fetch_add(1, std::memory_order_relaxed);
          } else {
            adopt_conn(w, fd, now_ms);
          }
        }
      }
      // Admission control: one budget per wave, shared by every
      // connection the wave services (and the scan resume below).
      WaveBudget budget = WaveBudget::of(opt_.guard);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == w.wake_fd) {
          uint64_t drainv;
          while (::read(w.wake_fd, &drainv, sizeof drainv) > 0) {
          }
          continue;
        }
        Conn* c = static_cast<size_t>(fd) < w.conns.size()
                      ? w.conns[static_cast<size_t>(fd)].get()
                      : nullptr;
        if (c == nullptr) continue;
        if (c->paused) {
          // The connection's response ordering is parked behind its
          // chunked scan: leave the socket unread (the kernel buffer
          // fills and TCP backpressure throttles the peer) and remember
          // to service it on resume — the edge won't refire (EPOLLET).
          c->kicked = true;
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0 && !flush(w, *c, nullptr)) {
          drop_conn(w, *c);
          continue;
        }
        if ((events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
          if (!service(w, tid, *c, scratch, rq_out, wake_ns, &budget))
            drop_conn(w, *c);
        }
      }
      if (stopping) {
        drain_and_close(w, tid, scratch, rq_out, wake_ns);
        return;
      }
      // Behind the wave: one slice of the active chunked scan, then the
      // wheel's connection deadlines.
      pump_scan(w, tid, scratch, rq_out, wake_ns, &budget);
      advance_timers(w, steady_ms());
      w.overloaded.store(budget.exhausted, std::memory_order_relaxed);
    }
  }

  void adopt_conn(Worker& w, int fd, uint64_t now_ms) {
    if (static_cast<size_t>(fd) >= w.conns.size())
      w.conns.resize(static_cast<size_t>(fd) + 1);
    auto& c = w.conns[static_cast<size_t>(fd)];
    c = std::make_unique<Conn>(fd);
    c->gen = ++w.next_gen;
    c->last_activity_ms = now_ms;
    if (opt_.guard.idle_timeout_ms > 0)
      w.wheel.schedule(now_ms, opt_.guard.idle_timeout_ms, fd, c->gen,
                       TimerWheel::Kind::kIdle);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    const size_t nc = w.nconns.fetch_add(1, std::memory_order_relaxed) + 1;
    if (nc > w.peak_conns.load(std::memory_order_relaxed))
      w.peak_conns.store(nc, std::memory_order_relaxed);
  }

  void drop_conn(Worker& w, Conn& c) {
    const int fd = c.fd;
    if (c.trace != nullptr) {  // dying mid-scan: terminate, don't leak
      trace_abort(w, c.trace);
      c.trace = nullptr;
    }
    if (w.scan_fd == fd) {  // abandon the owner's scan; pins released
      w.scan.reset();
      w.scan_fd = -1;
    }
    if (c.scan_queued)
      w.scan_waiters.erase(
          std::remove(w.scan_waiters.begin(), w.scan_waiters.end(), fd),
          w.scan_waiters.end());
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    w.conns[static_cast<size_t>(fd)].reset();  // closes the fd
    w.nconns.fetch_sub(1, std::memory_order_relaxed);
    closed_.fetch_add(1, std::memory_order_relaxed);
  }

  // -- guard layer ---------------------------------------------------------

  /// True when [lo, hi] should run as a chunked scan: chunking enabled,
  /// a coordinated snapshot path exists, and the interval spans more
  /// keys than one slice covers.
  bool chunkable(KeyT lo, KeyT hi) const {
    const size_t chunk = opt_.guard.scan_chunk_keys;
    if (chunk == 0 || lo > hi) return false;
    if (!set_->coordinated()) return false;
    const uint64_t width_minus_1 =
        ((static_cast<uint64_t>(hi) ^ (uint64_t{1} << 63)) -
         (static_cast<uint64_t>(lo) ^ (uint64_t{1} << 63)));
    return width_minus_1 >= chunk;
  }

  /// Introspection ops stay admitted past the wave budget: overload is
  /// exactly when PING/STATS/METRICS must keep answering (and TXN_ABORT
  /// lets a shed-mid-transaction client always clean up).
  static bool exempt_from_shedding(Op op) {
    return op == Op::kPing || op == Op::kStats || op == Op::kMetrics ||
           op == Op::kTraceDump || op == Op::kTraceGet ||
           op == Op::kTxnAbort;
  }

  void begin_scan(Worker& w, Conn& c) {
    // The pin/announce fan-out inside the Snapshot constructor stamps
    // through the current-trace hook. On the inline path (RANGE frame in
    // this wave) the hook is already set by service(); a promoted waiter
    // re-arms it from the trace riding its connection.
    obs::CurrentTraceScope scope(c.trace != nullptr ? c.trace
                                                    : obs::current_trace());
    w.scan.emplace(*set_, w.scan_session.tid(), c.scan_lo, c.scan_hi);
    w.scan_items.clear();
    w.scan_fd = c.fd;
    w.scan_start_ns = obs_now_ns();
    w.chunked.fetch_add(1, std::memory_order_relaxed);
  }

  void start_or_queue_scan(Worker& w, Conn& c, KeyT lo, KeyT hi) {
    c.scan_lo = lo;
    c.scan_hi = hi;
    if (!w.scan) {
      begin_scan(w, c);
    } else {  // one active scan per worker; FIFO for the rest
      c.scan_queued = true;
      w.scan_waiters.push_back(c.fd);
    }
  }

  void promote_waiter(Worker& w) {
    while (!w.scan_waiters.empty() && !w.scan) {
      const int fd = w.scan_waiters.front();
      w.scan_waiters.erase(w.scan_waiters.begin());
      Conn* nc = w.conns[static_cast<size_t>(fd)].get();
      if (nc != nullptr) {
        nc->scan_queued = false;
        begin_scan(w, *nc);
      }
    }
  }

  /// Advance the active chunked scan by one key-budget slice (called
  /// once per wave, after ready connections were serviced — point ops
  /// never wait on scan progress). On completion: encode the reply
  /// (stamped with the scan's ONE timestamp), resume the owner (flush +
  /// service its parked backlog), and hand the slot to the next waiter.
  void pump_scan(Worker& w, int tid, std::vector<uint8_t>& scratch,
                 RangeSnapshot& rq_out, uint64_t wake_ns,
                 WaveBudget* budget) {
    if (!w.scan) {
      promote_waiter(w);
      if (!w.scan) return;
    }
    w.scan_slices.fetch_add(1, std::memory_order_relaxed);
    Conn* owner = w.conns[static_cast<size_t>(w.scan_fd)].get();
    const uint64_t slice_t0 = obs_now_ns();
    bool complete;
    {
      obs::CurrentTraceScope scope(owner != nullptr ? owner->trace : nullptr);
      complete = w.scan->collect(opt_.guard.scan_chunk_keys, w.scan_items);
    }
    if constexpr (obs::kEnabled) {
      // One coalesced scan_chunk span per scan: slices extend it and
      // bump its aux16 slice count, so a 500-slice scan costs one span.
      if (owner != nullptr && owner->trace != nullptr)
        owner->trace->stamp_coalesce(obs::TraceStage::kScanChunk, slice_t0,
                                     obs_now_ns());
    }
    if (!complete) return;
    // Snapshot complete: answer the owner.
    Conn* c = owner;
    scratch.clear();
    encode_range_response(scratch, w.scan->timestamp(), w.scan_items);
    w.scan.reset();
    w.scan_fd = -1;
    w.frames.fetch_add(1, std::memory_order_relaxed);
    w.batches.fetch_add(1, std::memory_order_relaxed);
    const uint64_t scan_hist_ns = obs_now_ns() - w.scan_start_ns;
    if constexpr (obs::kEnabled)
      op_hist(Op::kRange).record(tid, scan_hist_ns);
    c->paused = false;
    const uint64_t flush_t0 = obs_now_ns();
    bool alive = flush(w, *c, &scratch);
    if constexpr (obs::kEnabled) {
      if (c->trace != nullptr) {
        const uint64_t end_ns = obs_now_ns();
        c->trace->stamp(obs::TraceStage::kFlush, flush_t0, end_ns);
        trace_close(w, c->trace, end_ns, scan_hist_ns);
        c->trace = nullptr;
      }
    }
    if (alive) alive = within_pending_cap(w, *c);
    // Next waiter BEFORE resuming the owner: a connection streaming
    // whole-keyspace scans queues its next one behind everyone else's.
    promote_waiter(w);
    if (alive && (c->kicked || !c->in.empty())) {
      c->kicked = false;
      alive = service(w, tid, *c, scratch, rq_out, wake_ns, budget);
    }
    if (!alive) drop_conn(w, *c);
  }

  /// False when the connection's unflushed backlog exceeds the cap — an
  /// unrecoverably slow reader the server disconnects rather than OOMs
  /// behind.
  bool within_pending_cap(Worker& w, Conn& c) {
    const size_t cap = opt_.guard.max_conn_pending;
    if (cap == 0 || c.pending.size() - c.pending_off <= cap) return true;
    w.reaped_slow.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Fire due connection deadlines with lazy revalidation: the wheel
  /// only wakes us; real activity is re-checked here and merely-slow
  /// connections are re-armed for the remainder. Paused (scan-owning)
  /// connections are never reaped — the server is the one delaying them.
  void advance_timers(Worker& w, uint64_t now_ms) {
    w.wheel.advance(now_ms, [&](int fd, uint32_t gen, TimerWheel::Kind k) {
      Conn* c = static_cast<size_t>(fd) < w.conns.size()
                    ? w.conns[static_cast<size_t>(fd)].get()
                    : nullptr;
      if (c == nullptr || c->gen != gen) return;  // closed / fd reused
      const bool shielded = c->paused || c->scan_queued;
      if (k == TimerWheel::Kind::kIdle) {
        const uint32_t limit = opt_.guard.idle_timeout_ms;
        if (limit == 0) return;
        const uint64_t idle = now_ms - c->last_activity_ms;
        if (idle >= limit && !shielded) {
          w.reaped_idle.fetch_add(1, std::memory_order_relaxed);
          drop_conn(w, *c);
          return;
        }
        w.wheel.schedule(now_ms, idle >= limit ? limit : limit - idle, fd,
                         gen, k);
      } else {  // kWriteStall
        const uint32_t limit = opt_.guard.write_stall_ms;
        if (limit == 0 || c->pending_since_ms == 0) return;
        const uint64_t stuck = now_ms - c->pending_since_ms;
        if (stuck >= limit && !shielded) {
          w.reaped_stall.fetch_add(1, std::memory_order_relaxed);
          drop_conn(w, *c);
          return;
        }
        w.wheel.schedule(now_ms, stuck >= limit ? limit : limit - stuck, fd,
                         gen, k);
      }
    });
  }

  /// stop() drain: finish held scans inline (their snapshots are already
  /// pinned; the owners get replies), execute whatever every connection
  /// already sent, then flush pending responses until drained or the
  /// drain deadline passes. The old fixed 100-spin retry silently
  /// dropped tail responses to slow clients; the deadline makes the
  /// bound explicit and the drops observable (bref_net_stop_dropped).
  void drain_and_close(Worker& w, int tid, std::vector<uint8_t>& scratch,
                       RangeSnapshot& rq_out, uint64_t wake_ns) {
    const uint64_t deadline =
        steady_ms() + opt_.guard.drain_deadline_ms;
    for (auto& cp : w.conns) {
      if (!cp || cp->paused) continue;  // parked backlogs run below
      service(w, tid, *cp, scratch, rq_out, wake_ns, nullptr);
    }
    while ((w.scan || !w.scan_waiters.empty()) && steady_ms() < deadline)
      pump_scan(w, tid, scratch, rq_out, wake_ns, nullptr);
    for (;;) {
      bool any = false;
      for (auto& cp : w.conns) {
        if (!cp || !has_pending(*cp)) continue;
        if (!flush(w, *cp, nullptr)) {
          cp->pending.clear();  // dead peer: nothing left deliverable
          cp->pending_off = 0;
        } else if (has_pending(*cp)) {
          any = true;
        }
      }
      if (!any || steady_ms() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& cp : w.conns) {
      if (!cp) continue;
      if (has_pending(*cp) || cp->paused || cp->scan_queued)
        stop_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (cp->trace != nullptr) {  // scan straggler past the deadline
        trace_abort(w, cp->trace);
        cp->trace = nullptr;
      }
      closed_.fetch_add(1, std::memory_order_relaxed);
    }
    w.scan.reset();
    w.scan_fd = -1;
    w.scan_waiters.clear();
    w.conns.clear();
  }

  static bool has_pending(const Conn& c) {
    return c.pending.size() > c.pending_off;
  }

  // -- bref-trace plumbing -------------------------------------------------

  /// Open a scratch trace for one frame. A client-stamped id wins;
  /// otherwise the worker mints one (top byte = worker+1, so ids are
  /// process-unique without coordination). nullptr = pool exhausted
  /// (counted, request simply untraced) — never blocks, never allocates.
  obs::TraceScratch* trace_open(Worker& w, const FrameView& f,
                                uint64_t start_ns) {
    obs::TraceScratch* t = w.tslots.acquire();
    if (t == nullptr) {
      w.trace_scratch_exhausted.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    uint64_t id = f.trace_id;
    uint8_t flags = 0;
    if (id != 0)
      flags |= obs::kTraceClientStamped;
    else
      id = (static_cast<uint64_t>(w.index) + 1) << 56 | ++w.trace_seq;
    t->open(id, f.tag, w.index, start_ns, flags);
    return t;
  }

  /// Terminate a trace: total latency becomes known, the retroactive
  /// keep/discard policy runs, and on commit the record lands in the ring
  /// + slowest board and becomes the op histogram's exemplar for the
  /// bucket `hist_ns` (the exact value op_hist recorded) fell in — that
  /// is what keeps exemplar and histogram mutually consistent. Always
  /// releases the slot.
  void trace_close(Worker& w, obs::TraceScratch* t, uint64_t end_ns,
                   uint64_t hist_ns) {
    t->finish(end_ns);
    const obs::TraceRecord& r = t->record();
    if (obs::trace_should_commit(r.total_ns)) {
      w.trace.push(r);
      w.board.offer(r);
      if (hist_ns > 0)
        op_hist(static_cast<Op>(r.op)).set_exemplar(hist_ns, r.trace_id);
    }
    w.tslots.release(t);
  }

  /// Terminal path for a trace whose request never completes normally
  /// (dead connection, stop()-drain straggler): stamp an error span so
  /// the timeline says why it ended, then close. No exemplar.
  void trace_abort(Worker& w, obs::TraceScratch* t) {
    const uint64_t now_ns = obs_now_ns();
    t->stamp(obs::TraceStage::kError, now_ns, now_ns);
    t->add_flags(obs::kTraceError);
    trace_close(w, t, now_ns, 0);
  }

  /// Read to EAGAIN, execute every complete frame, flush. False = close.
  /// `wake_ns` is the epoll wakeup that surfaced this connection (0 when
  /// obs is compiled out) — the zero point for stage attribution.
  /// `budget` is the wave's admission budget (nullptr = unlimited, used
  /// by the stop() drain); frames past it are shed with kErrOverloaded.
  bool service(Worker& w, int tid, Conn& c, std::vector<uint8_t>& scratch,
               RangeSnapshot& rq_out, uint64_t wake_ns, WaveBudget* budget) {
    bool peer_closed = false;
    char buf[64 * 1024];
    for (;;) {
      const ssize_t r = fault::recv(c.fd, buf, sizeof buf, 0);
      if (r > 0) {
        c.in.insert(c.in.end(), buf, buf + r);
        w.bytes_in.fetch_add(static_cast<uint64_t>(r),
                              std::memory_order_relaxed);
        c.last_activity_ms = steady_ms();
        continue;
      }
      if (r == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;  // ECONNRESET and friends
    }

    // Execute the wave's whole batch, building responses in scratch.
    scratch.clear();
    size_t off = 0;
    uint64_t executed = 0;
    bool pause = false;  // a chunked scan started; park the rest
    // Traces opened this batch, parked until the flush terminates them.
    // Retroactive capture: every frame records (when armed, or when the
    // client stamped a context), and the keep/discard decision runs in
    // trace_close() once total latency is known.
    obs::TraceScratch* traces[obs::TraceSlots::kSlots];
    uint64_t trace_hist_ns[obs::TraceSlots::kSlots];
    int ntraces = 0;
    const bool armed = obs::trace_armed();
    const uint64_t exec_start_ns = obs_now_ns();
    uint64_t prev_ns = exec_start_ns;
    while (!c.closing) {
      FrameView f;
      size_t advance = 0;
      const SplitResult s = split_frame(c.in.data(), c.in.size(), off,
                                        opt_.max_frame, &f, &advance);
      if (s == SplitResult::kNeedMore) break;
      if (s == SplitResult::kOversized || s == SplitResult::kBadLength) {
        encode_status(scratch, s == SplitResult::kOversized
                                   ? Status::kErrTooLarge
                                   : Status::kErrMalformed);
        w.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        c.closing = true;  // framing lost; close after the flush
        break;
      }
      const bool traced = obs::kEnabled && (armed || f.trace_id != 0);
      // Load shedding: past the wave budget every non-exempt frame is
      // answered kErrOverloaded WITHOUT executing (retrying one is
      // always safe), with the retry-after hint in the body. Sheds are
      // deliberately cheap — 9 reply bytes, no set access — so a deep
      // pipeline burst costs the wave almost nothing. A shed trace
      // terminates right here with a shed span: the timeline's answer to
      // "why was my request slow" is "it wasn't executed at all".
      if (budget != nullptr && budget->spent() &&
          !exempt_from_shedding(f.op())) {
        encode_overloaded(scratch, opt_.guard.retry_after_ms);
        w.shed.fetch_add(1, std::memory_order_relaxed);
        budget->exhausted = true;
        if (traced) {
          if (obs::TraceScratch* t = trace_open(w, f, wake_ns)) {
            const uint64_t now_ns = obs_now_ns();
            t->stamp(obs::TraceStage::kQueue, wake_ns, prev_ns);
            t->stamp(obs::TraceStage::kAdmission, now_ns, now_ns, 0, 1);
            t->stamp(obs::TraceStage::kShed, now_ns, now_ns);
            t->add_flags(obs::kTraceShed);
            trace_close(w, t, now_ns, 0);
          }
        }
        off += advance;
        continue;
      }
      obs::TraceScratch* t = traced ? trace_open(w, f, wake_ns) : nullptr;
      if (t != nullptr) {
        t->stamp(obs::TraceStage::kQueue, wake_ns, prev_ns);
        t->stamp(obs::TraceStage::kAdmission, prev_ns, prev_ns, 0, 0);
      }
      const size_t scratch_before = scratch.size();
      ExecResult er;
      {
        // Park the scratch in the thread-local hook: the shard fan-out
        // (ShardedSet::Snapshot, inline or a scan's pin) stamps its spans
        // through it.
        obs::CurrentTraceScope scope(t);
        er = execute(w, tid, c, f, scratch, rq_out);
      }
      if (er == ExecResult::kStartScan) {
        // Frame consumed, but its response arrives when the scan
        // completes (pump_scan counts it then). Stop parsing: response
        // order must match request order, so everything behind the
        // RANGE parks with the connection. The trace rides the
        // connection until the scan terminates it.
        if (t != nullptr) {
          t->stamp(obs::TraceStage::kExecute, prev_ns, obs_now_ns(), 0,
                   span_shard(f));
          c.trace = t;
        }
        off += advance;
        pause = true;
        break;
      }
      if (budget != nullptr) {
        budget->charge_frame();
        budget->charge_bytes(scratch.size() - scratch_before);
      }
      if constexpr (obs::kEnabled) {
        const uint64_t now_ns = obs_now_ns();
        op_hist(f.op()).record(tid, now_ns - prev_ns);
        if (t != nullptr) {
          t->stamp(obs::TraceStage::kExecute, prev_ns, now_ns, 0,
                   span_shard(f));
          traces[ntraces] = t;
          trace_hist_ns[ntraces] = now_ns - prev_ns;
          ++ntraces;
        }
        prev_ns = now_ns;
      }
      off += advance;
      ++executed;
    }
    if (off > 0) c.in.erase(c.in.begin(), c.in.begin() + off);
    if (executed > 0) {
      w.frames.fetch_add(executed, std::memory_order_relaxed);
      w.batches.fetch_add(1, std::memory_order_relaxed);
    }
    const bool flushed = flush(w, c, &scratch);
    if constexpr (obs::kEnabled) {
      if (executed > 0) {
        const uint64_t end_ns = obs_now_ns();
        stage_hist(0).record(tid, exec_start_ns - wake_ns);
        stage_hist(1).record(tid, prev_ns - exec_start_ns);
        stage_hist(2).record(tid, end_ns - prev_ns);
        for (int i = 0; i < ntraces; ++i) {
          traces[i]->stamp(obs::TraceStage::kFlush, prev_ns, end_ns);
          if (!flushed) {
            traces[i]->stamp(obs::TraceStage::kError, end_ns, end_ns);
            traces[i]->add_flags(obs::kTraceError);
          }
          trace_close(w, traces[i], end_ns, trace_hist_ns[i]);
        }
      }
    }
    if (!flushed) return false;
    if (!within_pending_cap(w, c)) return false;  // slow-reader cap
    if (pause) c.paused = true;
    if (c.closing && !has_pending(c)) return false;
    return !peer_closed;
  }

  /// Shard a traced frame's key routes to (0 when keyless).
  uint16_t span_shard(const FrameView& f) const {
    switch (f.op()) {
      case Op::kGet:
      case Op::kRemove:
      case Op::kInsert:
      case Op::kRange:
        if (f.body_len >= 8)
          return static_cast<uint16_t>(set_->shard_index(get_i64(f.body)));
        return 0;
      default:
        return 0;
    }
  }

  /// How a frame's execution resolved: response appended now, or a
  /// chunked scan was started/queued and the response arrives later.
  enum class ExecResult : uint8_t { kDone, kStartScan };

  /// Execute one request frame; append the response to `out` (kDone), or
  /// park the connection behind a chunked scan (kStartScan).
  ExecResult execute(Worker& w, int tid, Conn& c, const FrameView& f,
                     std::vector<uint8_t>& out, RangeSnapshot& rq_out) {
    auto err = [&](Status st) {
      encode_status(out, st);
      w.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      return ExecResult::kDone;
    };
    switch (f.op()) {
      case Op::kGet: {
        if (f.body_len != 8) return err(Status::kErrMalformed);
        ValT v = 0;
        if (set_->contains(tid, get_i64(f.body), &v))
          encode_val_response(out, v);
        else
          encode_status(out, Status::kNo);
        return ExecResult::kDone;
      }
      case Op::kInsert: {
        if (f.body_len != 16) return err(Status::kErrMalformed);
        encode_status(out, set_->insert(tid, get_i64(f.body),
                                        get_i64(f.body + 8))
                               ? Status::kOk
                               : Status::kNo);
        return ExecResult::kDone;
      }
      case Op::kRemove: {
        if (f.body_len != 8) return err(Status::kErrMalformed);
        encode_status(
            out, set_->remove(tid, get_i64(f.body)) ? Status::kOk
                                                    : Status::kNo);
        return ExecResult::kDone;
      }
      case Op::kRange: {
        if (f.body_len != 16) return err(Status::kErrMalformed);
        const KeyT lo = get_i64(f.body), hi = get_i64(f.body + 8);
        // Wide scans run chunked behind the wave when a coordinated
        // snapshot path exists; the inline path keeps serving narrow
        // ranges (and every range when chunking is unavailable).
        if (chunkable(lo, hi) && !c.closing) {
          start_or_queue_scan(w, c, lo, hi);
          return ExecResult::kStartScan;
        }
        set_->range_query(tid, lo, hi, rq_out);
        encode_range_response(out,
                              rq_out.has_timestamp()
                                  ? rq_out.timestamp()
                                  : RangeSnapshot::kNoTimestamp,
                              rq_out.items());
        return ExecResult::kDone;
      }
      case Op::kTxnBegin: {
        if (c.in_txn) return err(Status::kErrTxnState);
        c.in_txn = true;
        c.txn.clear();
        encode_status(out, Status::kOk);
        return ExecResult::kDone;
      }
      case Op::kTxnOp: {
        if (!c.in_txn) return err(Status::kErrTxnState);
        if (f.body_len < 9) return err(Status::kErrMalformed);
        const Op inner = static_cast<Op>(f.body[0]);
        const size_t want = inner == Op::kInsert ? 17 : 9;
        if ((inner != Op::kGet && inner != Op::kInsert &&
             inner != Op::kRemove) ||
            f.body_len != want)
          return err(Status::kErrMalformed);
        if (c.txn.size() >= opt_.max_txn_ops) return err(Status::kErrTxnState);
        c.txn.push_back({inner, get_i64(f.body + 1),
                         inner == Op::kInsert ? get_i64(f.body + 9) : 0});
        encode_status(out, Status::kOk);
        return ExecResult::kDone;
      }
      case Op::kTxnCommit: {
        if (!c.in_txn) return err(Status::kErrTxnState);
        // The batch runs back-to-back under this worker's one session —
        // the wire analogue of db::Txn's "one dense id over every index
        // the transaction touches".
        put_u32(out, static_cast<uint32_t>(1 + 4 + 9 * c.txn.size()));
        out.push_back(static_cast<uint8_t>(Status::kOk));
        put_u32(out, static_cast<uint32_t>(c.txn.size()));
        for (const BufferedOp& op : c.txn) {
          ValT v = 0;
          bool r = false;
          switch (op.op) {
            case Op::kGet: r = set_->contains(tid, op.key, &v); break;
            case Op::kInsert: r = set_->insert(tid, op.key, op.val); break;
            case Op::kRemove: r = set_->remove(tid, op.key); break;
            default: break;
          }
          out.push_back(static_cast<uint8_t>(r ? Status::kOk : Status::kNo));
          put_i64(out, v);
        }
        c.in_txn = false;
        c.txn.clear();
        w.txns_committed.fetch_add(1, std::memory_order_relaxed);
        return ExecResult::kDone;
      }
      case Op::kTxnAbort: {
        if (!c.in_txn) return err(Status::kErrTxnState);
        c.in_txn = false;
        c.txn.clear();
        w.txns_aborted.fetch_add(1, std::memory_order_relaxed);
        encode_status(out, Status::kOk);
        return ExecResult::kDone;
      }
      case Op::kPing:
        encode_status(out, Status::kOk);
        return ExecResult::kDone;
      case Op::kStats:
        encode_text_response(out, stats_json());
        return ExecResult::kDone;
      case Op::kMetrics:
        encode_text_response(out, obs::registry().prometheus());
        return ExecResult::kDone;
      case Op::kTraceDump: {
        if (f.body_len == 8) {  // set rate + tail-commit threshold, ack
          obs::trace_sample_every().store(get_u32(f.body),
                                          std::memory_order_relaxed);
          const uint32_t us = get_u32(f.body + 4);
          obs::trace_threshold_ns().store(
              us == UINT32_MAX ? obs::kTraceThresholdOff
                               : static_cast<uint64_t>(us) * 1000,
              std::memory_order_relaxed);
          encode_status(out, Status::kOk);
          return ExecResult::kDone;
        }
        if (f.body_len != 0) return err(Status::kErrMalformed);
        encode_text_response(out, trace_dump_json());
        return ExecResult::kDone;
      }
      case Op::kTraceGet: {
        if (f.body_len != 8) return err(Status::kErrMalformed);
        obs::TraceRecord rec;
        if (find_trace(get_u64(f.body), &rec))
          encode_text_response(out, trace_record_json(rec));
        else
          encode_status(out, Status::kNo);  // never committed, or evicted
        return ExecResult::kDone;
      }
    }
    return err(Status::kErrMalformed);  // unknown opcode; framing intact
  }

  /// Normally one writev per connection per wave: leftover bytes from an
  /// earlier short write + this wave's scratch. Remainder (if any) is
  /// kept in c.pending and EPOLLOUT armed. False = fatal write error.
  ///
  /// EINTR and short writes that are NOT a kernel EAGAIN are retried in
  /// place: after either, the socket is still writable, so under EPOLLET
  /// no new EPOLLOUT edge would ever fire for the deferred bytes — they
  /// would sit in c.pending until the write-stall reaper killed a
  /// perfectly healthy connection. Only a real EAGAIN (socket genuinely
  /// unwritable — a future edge is guaranteed) defers to EPOLLOUT.
  bool flush(Worker& w, Conn& c, std::vector<uint8_t>* scratch) {
    size_t scratch_sent = 0;  // bytes of scratch handed to the kernel
    for (;;) {
      iovec iov[2];
      int iovcnt = 0;
      if (has_pending(c)) {
        iov[iovcnt].iov_base = c.pending.data() + c.pending_off;
        iov[iovcnt].iov_len = c.pending.size() - c.pending_off;
        ++iovcnt;
      }
      if (scratch != nullptr && scratch_sent < scratch->size()) {
        iov[iovcnt].iov_base = scratch->data() + scratch_sent;
        iov[iovcnt].iov_len = scratch->size() - scratch_sent;
        ++iovcnt;
      }
      if (iovcnt == 0) break;  // everything out
      const ssize_t sent = fault::writev(c.fd, iov, iovcnt);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
        break;  // genuinely unwritable; EPOLLOUT will fire
      }
      w.bytes_out.fetch_add(static_cast<uint64_t>(sent),
                            std::memory_order_relaxed);
      size_t s = static_cast<size_t>(sent);
      const size_t pend = c.pending.size() - c.pending_off;
      const size_t from_pending = s < pend ? s : pend;
      c.pending_off += from_pending;
      s -= from_pending;
      scratch_sent += s;
      if (c.pending_off >= c.pending.size()) {
        c.pending.clear();
        c.pending_off = 0;
      }
    }
    if (scratch != nullptr && scratch_sent < scratch->size())
      c.pending.insert(c.pending.end(), scratch->begin() + scratch_sent,
                       scratch->end());
    const bool want_out = has_pending(c);
    if (want_out != c.epollout) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP |
                  (want_out ? EPOLLOUT : 0u);
      ev.data.fd = c.fd;
      ::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
      c.epollout = want_out;
    }
    // Write-stall deadline: stamp when bytes first back up; clear when
    // the backlog drains. The wheel fires later and re-checks the stamp.
    if (want_out) {
      if (c.pending_since_ms == 0) {
        c.pending_since_ms = steady_ms();
        if (opt_.guard.write_stall_ms > 0)
          w.wheel.schedule(c.pending_since_ms, opt_.guard.write_stall_ms,
                           c.fd, c.gen, TimerWheel::Kind::kWriteStall);
      }
    } else {
      c.pending_since_ms = 0;
    }
    return true;
  }

  ServerOptions opt_;
  std::unique_ptr<ShardedSet> set_;
  std::unique_ptr<MaintenanceService> maint_;

  mutable std::mutex lifecycle_mu_;
  bool running_ = false;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> stop_dropped_{0};  // survives worker teardown
  // Registered by start() after workers_ is built, removed by stop()
  // before it is torn down (their callbacks iterate workers_ unlocked).
  obs::GaugeSet::Source obs_srcs_[kServerSeries];
  obs::GaugeSet::Source obs_guard_srcs_[kGuardSeries];
  obs::GaugeSet::Source obs_trace_srcs_[kTraceSeries];
};

}  // namespace bref::net
