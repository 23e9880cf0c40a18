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
//   * Sessions: each worker holds ONE dense thread id (SessionId) for
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
//   * Dispatch (net/dispatch.h): each admitted frame is decoded and run
//     against the set by dispatch(), which touches no file descriptor;
//     this file owns only the sockets around it.
//
//   * Guard layer (net/guard.h): long RANGEs run as cooperative chunked
//     scans under a second, scan-dedicated session per worker (one
//     timestamp, bounded key-budget slices behind each wave); per-wave
//     admission budgets shed excess frames with kErrOverloaded +
//     retry-after; a sweep over the worker's connections, at most every
//     kSweepMs, reaps idle connections and write stalls; pending-write
//     caps disconnect unrecoverably slow readers. Policy in
//     ServerOptions::guard; counters in ServerStats, exported to STATS
//     and METRICS through one table (Server::kCounters).
//
// Lifecycle: construct -> start() -> stop() (idempotent; the destructor
// stops). start() spawns the MaintenanceService for the backing set;
// stop() closes the listener, lets every worker execute what it already
// buffered and flush pending writes (deadline-bounded drain — stragglers
// are counted in bref_net_stop_dropped), closes all connections, joins
// the loops, and stops maintenance — under ASan this is fd- and
// session-leak free (test_net asserts ThreadRegistry::in_use() returns to
// baseline).
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
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/builtin_impls.h"
#include "api/registry.h"
#include "api/session.h"
#include "api/set_interface.h"
#include "common/cacheline.h"
#include "net/dispatch.h"
#include "net/guard.h"
#include "net/protocol.h"
#include "net/testing/faultfd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/builtin_shards.h"
#include "shard/maintenance.h"
#include "shard/sharded_set.h"

namespace bref::net {

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

/// One exported counter: the ServerStats member it fills, its key in the
/// STATS document and its METRICS series (Server::kCounters).
struct ServerCounter {
  uint64_t ServerStats::*field;
  const char* section;  // STATS object holding `key` ("" = top level)
  const char* key;
  const char* metric;
  const char* labels;
  obs::MetricKind kind;
  const char* help;
  // Across live servers; within one server, workers always sum.
  obs::GaugeSet::Agg agg = obs::GaugeSet::Agg::kSum;
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
        // Constructing the worker acquires its session ids up front, on
        // this thread, so start() fails with ThreadSlotsExhaustedError
        // instead of a dead loop: the ids are valid from any thread that
        // uses them exclusively, and this worker's loop is their only
        // user. The second id is scan-dedicated: a chunked scan holds EBR
        // pins across waves, and Ebr::pin/unpin is not reentrant per tid,
        // so point ops (worker session) and the held scan (scan session)
        // must not share one.
        auto w = std::make_unique<Worker>();
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
      workers_.clear();  // releases acquired ids, closes epoll/wake fds
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw;
    }
    // Register the obs sources only once workers_ is fully built: their
    // callbacks iterate it without the lifecycle lock (see the stats()
    // NOTE below), so registration brackets exactly the stable window —
    // stop() removes them before mutating the vector.
    for (size_t i = 0; i < std::size(kCounters); ++i)
      obs_srcs_[i] = series(i).add([this, f = kCounters[i].field] {
        return static_cast<double>(stats().*f);
      });
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
    workers_.clear();  // closes epoll/wake fds, releases session ids
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
    // Server-level (not per-worker) so it stays readable after stop()
    // tears the workers down — it is precisely a shutdown statistic.
    s.stop_dropped = stop_dropped_.load(std::memory_order_relaxed);
    for (const auto& w : workers_) {
      // A worker never writes the cells of the five fields set apart here.
      for (size_t i = 0; i < std::size(kCounters); ++i)
        s.*kCounters[i].field += w->counts[i].load(std::memory_order_relaxed);
      s.trace_committed += w->trace.committed();
      s.trace_dropped += w->trace.dropped();
      s.trace_scratch_in_use += static_cast<uint64_t>(w->tslots.in_use());
    }
    return s;
  }

  /// The STATS response body: server counters (kCounters, by section),
  /// routing counters, per-shard maintenance stats when the service runs.
  std::string stats_json() const {
    const ServerStats s = stats();
    char buf[512];
    std::string out = "{\"impl\": \"" + opt_.impl + "\", \"shards\": " +
                      std::to_string(set_->num_shards()) +
                      ", \"workers\": " + std::to_string(workers_.size());
    std::string_view section;  // "" = the top-level object
    for (const ServerCounter& c : kCounters) {
      if (section != c.section) {  // close the previous object, open this one
        out += section.empty() ? ", \"" : "}, \"";
        out += c.section;
        out += "\": {";
        section = c.section;
      } else {
        out += ", ";
      }
      out += std::string("\"") + c.key + "\": " + std::to_string(s.*c.field);
      if (c.field == &ServerStats::batches) {  // derived, beside its inputs
        std::snprintf(buf, sizeof buf, ", \"frames_per_batch\": %.2f",
                      s.batches ? static_cast<double>(s.frames) / s.batches
                                : 0.0);
        out += buf;
      }
    }
    if (!section.empty()) out += "}";
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

  // The server is dispatch()'s host (net/dispatch.h): stats_json(),
  // trace_dump_json() and find_trace() above, and these two.

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

  size_t max_txn_ops() const { return opt_.max_txn_ops; }

 private:
  using MK = obs::MetricKind;

  /// Every exported counter. stats(), STATS and the METRICS sources all
  /// read this table, in this order; stats_json() opens one object per
  /// run of equal sections, so a section's rows must stay adjacent.
  static constexpr ServerCounter kCounters[] = {
      {&ServerStats::connections, "", "connections", "bref_net_connections",
       "", MK::kGauge, "Connections currently adopted by worker loops"},
      // Sum of per-worker adoption high-waters: an upper bound on the true
      // concurrent peak, and nonzero in any post-run stats capture.
      {&ServerStats::connections_peak, "", "connections_peak",
       "bref_net_connections_peak", "", MK::kGauge,
       "High-water mark of adopted connections (max over live servers)",
       obs::GaugeSet::Agg::kMax},
      {&ServerStats::accepted, "", "accepted", "bref_net_accepted_total", "",
       MK::kCounter, "Connections accepted"},
      {&ServerStats::frames, "", "frames", "bref_net_frames_total", "",
       MK::kCounter, "Request frames executed"},
      {&ServerStats::batches, "", "batches", "bref_net_batches_total", "",
       MK::kCounter, "Epoll waves that executed at least one frame"},
      {&ServerStats::bytes_in, "", "bytes_in", "bref_net_bytes_in_total", "",
       MK::kCounter, "Request bytes read"},
      {&ServerStats::bytes_out, "", "bytes_out", "bref_net_bytes_out_total",
       "", MK::kCounter, "Response bytes written"},
      {&ServerStats::protocol_errors, "", "protocol_errors",
       "bref_net_protocol_errors_total", "", MK::kCounter,
       "Error responses sent"},
      {&ServerStats::txns_committed, "", "txns_committed",
       "bref_net_txns_committed_total", "", MK::kCounter,
       "Wire transactions committed"},
      {&ServerStats::txns_aborted, "", "txns_aborted",
       "bref_net_txns_aborted_total", "", MK::kCounter,
       "Wire transactions aborted"},
      {&ServerStats::shed, "guard", "shed", "bref_net_shed_total", "",
       MK::kCounter,
       "Request frames answered kErrOverloaded by admission control"},
      {&ServerStats::chunked_rqs, "guard", "chunked_rqs",
       "bref_net_chunked_total", "", MK::kCounter,
       "RANGE queries executed as cooperative chunked scans"},
      {&ServerStats::scan_slices, "guard", "scan_slices",
       "bref_net_scan_slices_total", "", MK::kCounter,
       "Chunk slices executed across all chunked scans"},
      {&ServerStats::reaped_idle, "guard", "reaped_idle",
       "bref_net_reaped_total", "reason=\"idle\"", MK::kCounter,
       "Connections closed by the guard layer"},
      {&ServerStats::reaped_write_stall, "guard", "reaped_write_stall",
       "bref_net_reaped_total", "reason=\"write_stall\"", MK::kCounter,
       "Connections closed by the guard layer"},
      {&ServerStats::reaped_slow_reader, "guard", "reaped_slow_reader",
       "bref_net_reaped_total", "reason=\"slow_reader\"", MK::kCounter,
       "Connections closed by the guard layer"},
      {&ServerStats::stop_dropped, "guard", "stop_dropped",
       "bref_net_stop_dropped_total", "", MK::kCounter,
       "Connections closed at stop() with undelivered response bytes"},
      {&ServerStats::overloaded, "guard", "overloaded", "bref_net_overloaded",
       "", MK::kGauge,
       "Worker loops currently shedding (admission budget exhausted)"},
      {&ServerStats::trace_committed, "trace", "committed",
       "bref_trace_committed_total", "", MK::kCounter,
       "Request traces committed to the per-worker rings (tail threshold "
       "or reservoir)"},
      {&ServerStats::trace_dropped, "trace", "dropped",
       "bref_trace_dropped_total", "", MK::kCounter,
       "Committed trace records overwritten by ring-window churn"},
      {&ServerStats::trace_scratch_exhausted, "trace", "scratch_exhausted",
       "bref_trace_scratch_exhausted_total", "", MK::kCounter,
       "Requests not traced because the worker's scratch-slot pool was full"},
      // The chaos suite asserts this returns to the number of live chunked
      // scans (0 when idle): a leaked slot means some request path forgot
      // its terminal span.
      {&ServerStats::trace_scratch_in_use, "trace", "scratch_in_use",
       "bref_trace_scratch_in_use", "", MK::kGauge,
       "Trace scratch slots currently held (live chunked scans when idle)"},
  };

  /// kCounters' row for the ServerStats member F, found at compile time
  /// (a member missing from the table fails to compile).
  template <uint64_t ServerStats::*F>
  static consteval size_t row() {
    for (size_t i = 0; i < std::size(kCounters); ++i)
      if (kCounters[i].field == F) return i;
    throw "not a kCounters field";
  }

  /// The METRICS series of kCounters[i], shared by every live server and,
  /// like the registry they live in, never freed.
  static obs::GaugeSet& series(size_t i) {
    static obs::GaugeSet* const* sets = [] {
      auto** v = new obs::GaugeSet*[std::size(kCounters)];
      for (size_t j = 0; j < std::size(kCounters); ++j) {
        const ServerCounter& c = kCounters[j];
        v[j] = new obs::GaugeSet(c.agg, c.metric, c.help, c.labels, c.kind);
      }
      return v;
    }();
    return *sets[i];
  }

  // -- per-connection state (owned by exactly one worker) ------------------
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
    TxnBuffer txn;
    // Guard state:
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
    SessionId session;
    // Scan-dedicated session: chunked scans hold EBR pins across waves,
    // and Ebr::pin/unpin is not reentrant per tid, so the held scan and
    // the wave's point ops must run under different ids.
    SessionId scan_session;
    int epoll_fd = -1;
    int wake_fd = -1;
    uint8_t index = 0;  // position in workers_ (trace span attribution)
    std::thread thread;
    // Handoff queue from the acceptor (the only cross-thread touch).
    std::mutex inbox_mu;
    std::vector<int> inbox;
    // -- loop-private state (only the worker thread touches these) ------
    std::vector<std::unique_ptr<Conn>> conns;  // indexed by fd
    uint64_t swept_ms = 0;   // last idle/write-stall sweep
    std::optional<ShardedSet::Snapshot> scan;  // active chunked scan (<= 1)
    std::vector<std::pair<KeyT, ValT>> scan_items;  // its collected slices
    int scan_fd = -1;                    // its owning connection
    uint64_t scan_start_ns = 0;          // op_hist attribution
    std::vector<int> scan_waiters;       // conns queued for the scan slot
    // One cell per kCounters row. Written by the loop, read by any STATS
    // caller: relaxed atomics.
    std::atomic<uint64_t> counts[std::size(kCounters)] = {};
    template <uint64_t ServerStats::*F>
    std::atomic<uint64_t>& cell() {
      return counts[row<F>()];
    }
    template <uint64_t ServerStats::*F>
    void add(uint64_t n = 1) {
      cell<F>().fetch_add(n, std::memory_order_relaxed);
    }
    // bref-trace (obs/trace.h): scratch slots for in-flight request
    // traces, the committed-record ring (recency window) and the slowest
    // board (all-time tail). The loop is the only writer; any worker
    // executing TRACE_DUMP/TRACE_GET reads via the slots' seqlocks.
    obs::TraceSlots tslots;
    obs::TraceRing trace;
    obs::TraceBoard board;
    uint64_t trace_seq = 0;  // loop-private server-side trace-id source

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
      // after servicing what's ready; otherwise sleep one sweep interval
      // so connection deadlines fire near their time.
      const int timeout = w.scan || !w.scan_waiters.empty() ? 0 : kSweepMs;
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
          if (stopping)
            ::close(fd);
          else
            adopt_conn(w, fd, now_ms);
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
      // connection deadlines.
      pump_scan(w, tid, scratch, rq_out, wake_ns, &budget);
      sweep(w, steady_ms());
      w.cell<&ServerStats::overloaded>().store(budget.exhausted,
                                               std::memory_order_relaxed);
    }
  }

  void adopt_conn(Worker& w, int fd, uint64_t now_ms) {
    if (static_cast<size_t>(fd) >= w.conns.size())
      w.conns.resize(static_cast<size_t>(fd) + 1);
    auto& c = w.conns[static_cast<size_t>(fd)];
    c = std::make_unique<Conn>(fd);
    c->last_activity_ms = now_ms;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    auto& live = w.cell<&ServerStats::connections>();
    const uint64_t nc = live.fetch_add(1, std::memory_order_relaxed) + 1;
    // Single writer (this loop adopts), so a plain load/store bump.
    auto& peak = w.cell<&ServerStats::connections_peak>();
    if (nc > peak.load(std::memory_order_relaxed))
      peak.store(nc, std::memory_order_relaxed);
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
    w.cell<&ServerStats::connections>().fetch_sub(1,
                                                  std::memory_order_relaxed);
  }

  // -- guard layer ---------------------------------------------------------

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
    w.add<&ServerStats::chunked_rqs>();
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
    w.add<&ServerStats::scan_slices>();
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
    w.add<&ServerStats::frames>();
    w.add<&ServerStats::batches>();
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
    w.add<&ServerStats::reaped_slow_reader>();
    return false;
  }

  /// At most every kSweepMs, reap the connections idle (no byte read)
  /// past idle_timeout_ms or with responses stuck unflushed past
  /// write_stall_ms. Paused (scan-owning) and scan-queued connections
  /// are never reaped — the server is the one delaying them.
  void sweep(Worker& w, uint64_t now_ms) {
    if (now_ms - w.swept_ms < kSweepMs) return;
    w.swept_ms = now_ms;
    const GuardOptions& g = opt_.guard;
    for (auto& cp : w.conns) {
      if (!cp || cp->paused || cp->scan_queued) continue;
      if (g.idle_timeout_ms > 0 &&
          now_ms - cp->last_activity_ms >= g.idle_timeout_ms) {
        w.add<&ServerStats::reaped_idle>();
        drop_conn(w, *cp);
      } else if (g.write_stall_ms > 0 && cp->pending_since_ms != 0 &&
                 now_ms - cp->pending_since_ms >= g.write_stall_ms) {
        w.add<&ServerStats::reaped_write_stall>();
        drop_conn(w, *cp);
      }
    }
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
      w.add<&ServerStats::trace_scratch_exhausted>();
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
        w.add<&ServerStats::bytes_in>(static_cast<uint64_t>(r));
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
        w.add<&ServerStats::protocol_errors>();
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
        w.add<&ServerStats::shed>();
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
      Outcome o;
      {
        // Park the scratch in the thread-local hook: the shard fan-out
        // (ShardedSet::Snapshot, inline or a scan's pin) stamps its spans
        // through it.
        obs::CurrentTraceScope scope(t);
        o = dispatch(*set_, tid, c.txn, f, scratch, rq_out, *this);
        if (o == Outcome::kChunk)
          start_or_queue_scan(w, c, get_i64(f.body), get_i64(f.body + 8));
      }
      if (o == Outcome::kError) w.add<&ServerStats::protocol_errors>();
      if (o == Outcome::kCommitted) w.add<&ServerStats::txns_committed>();
      if (o == Outcome::kAborted) w.add<&ServerStats::txns_aborted>();
      if (o == Outcome::kChunk) {
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
      w.add<&ServerStats::frames>(executed);
      w.add<&ServerStats::batches>();
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
      w.add<&ServerStats::bytes_out>(static_cast<uint64_t>(sent));
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
    // the backlog drains. The sweep reads the stamp.
    if (!want_out)
      c.pending_since_ms = 0;
    else if (c.pending_since_ms == 0)
      c.pending_since_ms = steady_ms();
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
  std::atomic<uint64_t> stop_dropped_{0};  // survives worker teardown
  // Registered by start() after workers_ is built, removed by stop()
  // before it is torn down (their callbacks iterate workers_ unlocked).
  obs::GaugeSet::Source obs_srcs_[std::size(kCounters)];
};

}  // namespace bref::net
