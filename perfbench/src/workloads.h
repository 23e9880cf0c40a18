#pragma once
// The two workloads. Each one: set up kSetups times (construct, prefill,
// drain maintenance; the median is setup_s; tearing down the previous
// instance is not timed), keep the last instance, drive the load, check
// every answer, audit the final state.
//
//   wire-scan        loopback Server with its defaults (Bundle-skiplist,
//                    4 shards, 2 workers, default MaintenanceOptions),
//                    GET 40 / INSERT 10 / REMOVE 10 / RANGE-50 38 /
//                    SCAN-16384 2 over 4 connections from 1 generator
//                    thread
//   embedded-update  no sockets: 2 threads, closed loop, ThreadSession on
//                    the server's 4-shard ShardedSet over Bundle-skiplist
//                    with a default MaintenanceService, U-C-RQ 50-40-10,
//                    RQ-50
//
// wire-scan spends kClosedShare of the run in a closed-loop phase (4
// connections, one request in flight on each: ops_s, p50_us, p99_us) and
// the rest in an open-loop phase at a fixed rate, about half its ops_s
// (open_loop.p50_us and .p99_us, timed from each request's due time, and
// the server's queue and flush stages). Every rate and latency is over
// all the ops of its phase.
//
// Why the end-to-end latencies come from the closed loop: on a 4-vCPU VM
// whose host takes ~10% of CPU time back in bursts of milliseconds, an
// open-loop queue charges every burst to every request that arrives
// during it, so the open-loop figures measured the host: three wire-scan
// runs read an open-loop p50 of 57, 184 and 373 us while their closed-loop
// p50 stayed within 40 to 43 us. The open-loop figures stay in the report
// and in the traced run's per-layer metrics.
//
// The traced run times the client codec (wire) or samples the reclamation
// backlog (embedded) in odd one-second windows only; the median rate of
// odd against even windows gives the tracing overhead. It reads the
// layers around each phase.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "layers.h"
#include "net/server.h"
#include "wire.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool break_check = false;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

inline constexpr int kSetups = 3;
inline constexpr double kClosedShare = 0.7;
inline constexpr int kWireConns = 4;
inline constexpr int kEmbeddedThreads = 2;

inline constexpr Mix kWireScanMix{400, 100, 100, 380, 20};
inline constexpr double kWireScanRate = 10000;  // open loop, ~ops_s / 2
inline constexpr Mix kEmbeddedMix{400, 250, 250, 100, 0};

/// CPU placement. On a box with 4 or more allowed CPUs, the work threads
/// (the server's worker loops, or embedded-update's load threads) get all
/// but the last two, the MaintenanceService the second-to-last, and the
/// load generator (or the sampling main thread) the last. Threads inherit
/// their creator's affinity, so the calling thread enters a role before
/// starting that role's threads. With fewer CPUs nothing is pinned.
///
/// Why: the default maintenance polls every 2 ms and, under any update
/// load, each of its four workers walks its whole 131k-node shard back to
/// back (about 100 passes/s, three cores' worth). Sharing CPUs with them,
/// the worker loops' latency depended on where the scheduler happened to
/// put six busy threads on four CPUs: identical wire-scan runs read a p50
/// of 45 us in one run and 850 us in the next. Placed apart, each role's
/// cost shows in its own numbers: maintenance in maint.passes_per_s and
/// bundle.depth_p99, the server in the latencies.
class Placement {
 public:
  enum Role { kWork, kMaintenance, kLoad };

  Placement() {
    CPU_ZERO(&all_);
    sched_getaffinity(0, sizeof all_, &all_);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus.push_back(c);
    on_ = cpus.size() >= 4;
    for (cpu_set_t& s : role_) CPU_ZERO(&s);
    if (!on_) return;
    const size_t n = cpus.size();
    for (size_t i = 0; i + 2 < n; ++i) CPU_SET(cpus[i], &role_[kWork]);
    CPU_SET(cpus[n - 2], &role_[kMaintenance]);
    CPU_SET(cpus[n - 1], &role_[kLoad]);
  }
  ~Placement() { sched_setaffinity(0, sizeof all_, &all_); }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  /// Move the calling thread (and the threads it starts) to `r`'s CPUs.
  void enter(Role r) const {
    if (on_) sched_setaffinity(0, sizeof role_[r], &role_[r]);
  }

 private:
  cpu_set_t all_;
  cpu_set_t role_[3];
  bool on_ = false;
};

inline std::string setups_note(const std::vector<double>& t) {
  std::string s = "median of " + std::to_string(t.size()) + " set-ups:";
  char buf[32];
  for (double x : t) {
    std::snprintf(buf, sizeof buf, " %.3f", x);
    s += buf;
  }
  return s;
}

inline std::string phase_note(const std::string& phase, uint64_t n,
                              double secs) {
  char buf[32];
  std::snprintf(buf, sizeof buf, " over %.1f s", secs);
  return phase + ", " + count_note(n) + buf;
}

/// Set up kSetups times: `teardown` drops the previous instance (not
/// timed), `make` constructs and prefills, keeping the instance, and
/// returns the drain time. Returns each set-up's seconds and leaves the
/// last drain time in `drain_s`.
template <typename Teardown, typename Make>
std::vector<double> repeat_setup(Teardown teardown, Make make,
                                 double* drain_s) {
  std::vector<double> t;
  for (int i = 0; i < kSetups; ++i) {
    teardown();
    const uint64_t t0 = now_ns();
    *drain_s = make();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return t;
}

/// An end-to-end figure: a result metric in the untraced run, a report
/// line in the traced one (whose result holds the per-layer metrics).
inline void e2e(Report& rep, bool trace, const std::string& name, double v,
                const std::string& unit, const std::string& note) {
  if (trace)
    rep.line(name, v, unit, note);
  else
    rep.e2e(name, v, unit, note);
}

/// range_p99_us and scan_p99_us (closed loop, whole phase rather than
/// windowed: a window holds too few of them): a report line in the
/// untraced run, per-layer metrics (0 where the mix has no such op) in the
/// traced one.
inline void report_tails(Report& rep, const LatencyHist& range,
                         const LatencyHist& scan, bool trace) {
  auto put = [&](const char* name, const LatencyHist& h, const char* what) {
    const std::string note =
        h.count() > 0 ? count_note(h.count())
                      : std::string("n/a: no ") + what + " in this mix";
    if (trace)
      rep.layer(name, h.quantile(0.99) / 1e3, "us", note);
    else if (h.count() > 0)
      rep.line(name, h.quantile(0.99) / 1e3, "us", note);
    else
      rep.na(name, note);
  };
  put("range_p99_us", range, "RANGE-50");
  put("scan_p99_us", scan, "SCAN");
}

inline void report_fail_pct(Report& rep, const Outcome& o) {
  rep.line("fail_pct",
           100.0 * ratio(static_cast<double>(o.failed),
                         static_cast<double>(o.attempted)),
           "%",
           std::to_string(o.failed) + " of " + std::to_string(o.attempted));
}

inline Outcome run_wire(const RunOptions& o, Report& rep, Checker& chk) {
  namespace net = bref::net;
  const std::vector<KeyT> order = prefill_order(o.seed);
  const Placement place;
  // The server runs with its defaults except that the benchmark starts
  // its MaintenanceService (same options, same target) itself, to place
  // the maintenance threads apart from the worker loops.
  net::ServerOptions so;
  so.maintenance = false;
  std::unique_ptr<net::Server> srv;
  std::unique_ptr<MaintenanceService> maint;
  double drain_s = 0;
  const std::vector<double> setups = repeat_setup(
      [&] {
        maint.reset();
        srv.reset();
      },
      [&] {
        place.enter(Placement::kWork);
        srv = std::make_unique<net::Server>(so);
        srv->start();
        place.enter(Placement::kMaintenance);
        maint = std::make_unique<MaintenanceService>(srv->set(), so.maint);
        maint->start();
        place.enter(Placement::kLoad);
        prefill(srv->set(), order);
        return drain_maintenance(srv->set(), *maint);
      },
      &drain_s);
  if (drain_s < 0) chk.fail("maintenance did not drain within 30 s");

  auto& set = dynamic_cast<ShardedSet&>(srv->set());
  uint64_t backlog_max = 0;
  bool sample = false;
  WireGen gen(srv->port(), kWireConns, kWireScanMix, stream_seed(o.seed, 2),
              chk, o.break_check, [&] {
                if (sample)
                  backlog_max = std::max(backlog_max, reclaim_backlog(set));
              });
  const uint64_t closed_s =
      std::max<uint64_t>(1, std::llround(o.seconds * kClosedShare));
  const uint64_t open_s =
      std::max<uint64_t>(1, std::llround(o.seconds) - closed_s);
  const uint64_t closed_ns = closed_s * Windows::kWidthNs;
  const uint64_t open_ns = open_s * Windows::kWidthNs;
  WireTally closed, open;
  if (o.trace) {
    gen.trace_odd_windows();
    sample = true;
  }
  const LayerSnap a = LayerSnap::take(srv.get(), set, *maint, thread_cpu_ns());
  gen.closed_loop(closed_ns, closed);
  const LayerSnap b = LayerSnap::take(srv.get(), set, *maint, thread_cpu_ns());
  gen.open_loop(kWireScanRate, open_ns, open);
  const LayerSnap c = LayerSnap::take(srv.get(), set, *maint, thread_cpu_ns());
  const double rss = peak_rss_mb();

  Outcome out;
  for (const WireTally* t : {&closed, &open}) {
    out.attempted += t->attempted;
    out.failed += t->failed;
  }
  srv->stop();
  maint->stop();
  const uint64_t before = chk.failures();
  chk.final_state(set);
  out.failed += chk.failures() - before;

  const double closed_secs = static_cast<double>(b.wall_ns - a.wall_ns) * 1e-9;
  const std::string closed_note = phase_note(
      "closed loop, " + std::to_string(kWireConns) + " conns x 1",
      closed.all.count(), closed_secs);
  const std::string open_phase =
      "open loop @ " + std::to_string(static_cast<long>(kWireScanRate)) + "/s";
  e2e(rep, o.trace, "setup_s", median(setups), "s", setups_note(setups));
  e2e(rep, o.trace, "ops_s",
      static_cast<double>(closed.completed) / closed_secs, "1/s", closed_note);
  e2e(rep, o.trace, "p50_us", closed.all.quantile(0.50) / 1e3, "us",
      closed_note);
  e2e(rep, o.trace, "p99_us", closed.all.quantile(0.99) / 1e3, "us",
      closed_note);
  e2e(rep, o.trace, "rss_mb", rss, "MB", "peak resident set");
  auto open_line = [&](const char* name, double q) {
    const double v = open.all.quantile(q) / 1e3;
    const std::string note =
        open_phase + ", " + count_note(open.all.count());
    if (o.trace)
      rep.layer(name, v, "us", note);
    else
      rep.line(name, v, "us", note);
  };
  open_line("open_loop.p50_us", 0.50);
  open_line("open_loop.p99_us", 0.99);
  report_tails(rep, closed.range, closed.scan, o.trace);
  report_fail_pct(rep, out);
  if (!o.trace) return out;

  const double even = closed.win.median_rate(0, closed_s, 2);
  const double odd = closed.win.median_rate(1, closed_s, 2);
  rep.layer("trace.overhead_pct", 100.0 * ratio(even - odd, even), "%",
            "closed loop, median rate of untraced (even) vs codec-timed (odd) "
            "1-s windows");
  rep.layer("gen.lateness_p99_us", open.lateness.quantile(0.99) / 1e3, "us",
            open_phase + ", " + count_note(open.lateness.count()));
  rep.layer("gen.cpu_ms_per_s",
            ratio(static_cast<double>(c.gen_cpu_ns - a.gen_cpu_ns) * 1e-6,
                  static_cast<double>(c.wall_ns - a.wall_ns) * 1e-9),
            "ms/s", "generator thread, spin included");
  const uint64_t encoded = closed.encoded + open.encoded;
  const uint64_t decoded = closed.decoded + open.decoded;
  rep.layer("client.encode_ns",
            ratio(static_cast<double>(closed.encode_ns + open.encode_ns),
                  static_cast<double>(encoded)),
            "ns", count_note(encoded, "frames"));
  rep.layer("client.decode_ns",
            ratio(static_cast<double>(closed.decode_ns + open.decode_ns),
                  static_cast<double>(decoded)),
            "ns", count_note(decoded, "frames"));

  auto stage = [](const LayerSnap& x, const LayerSnap& y, int i) {
    bref::obs::HistogramSnapshot h = y.stage[i];
    h -= x.stage[i];
    return h;
  };
  const auto queue = stage(b, c, 0), exec = stage(a, b, 1),
             flush = stage(b, c, 2);
  rep.layer("server.queue_p99_us", queue.quantile(0.99) / 1e3, "us",
            "open loop, " + count_note(queue.count, "batches"));
  rep.layer("server.flush_p99_us", flush.quantile(0.99) / 1e3, "us",
            "open loop, " + count_note(flush.count, "batches"));
  rep.layer("server.execute_p99_us", exec.quantile(0.99) / 1e3, "us",
            "closed loop, " + count_note(exec.count, "batches"));
  const double frames_ab =
      static_cast<double>(b.server.frames - a.server.frames);
  rep.layer("server.frames_per_batch",
            ratio(frames_ab,
                  static_cast<double>(b.server.batches - a.server.batches)),
            "frames", "closed loop");
  rep.layer("server.cpu_us_per_op",
            ratio(static_cast<double>((b.proc_cpu_ns - a.proc_cpu_ns) -
                                      (b.gen_cpu_ns - a.gen_cpu_ns)) *
                      1e-3,
                  frames_ab),
            "us",
            "closed loop, process minus generator CPU, maintenance included");
  const uint64_t frames_ac = c.server.frames - a.server.frames;
  const uint64_t chunked = c.server.chunked_rqs - a.server.chunked_rqs;
  rep.layer("server.bytes_out_per_op",
            ratio(static_cast<double>(c.server.bytes_out - a.server.bytes_out),
                  static_cast<double>(frames_ac)),
            "B", count_note(frames_ac, "frames"));
  rep.layer("server.chunked_rqs", static_cast<double>(chunked), "count");
  rep.layer("server.scan_slices_per_scan",
            ratio(static_cast<double>(c.server.scan_slices -
                                      a.server.scan_slices),
                  static_cast<double>(chunked)),
            "slices");
  rep.layer("server.shed", static_cast<double>(c.server.shed - a.server.shed),
            "count");
  report_core_layers(rep, a, c, frames_ac, closed.updates + open.updates,
                     backlog_max, drain_s);
  rep.layer("rq.keys_per_range",
            ratio(static_cast<double>(closed.range_items + open.range_items),
                  static_cast<double>(closed.ranges + open.ranges)),
            "keys", count_note(closed.ranges + open.ranges, "RANGE-50"));
  return out;
}

/// One closed-loop thread of embedded-update.
struct EmbeddedWorker {
  explicit EmbeddedWorker(uint64_t t0) : win(t0) {}
  Windows win;      // completions per second
  LatencyHist all;  // per call
  LatencyHist range;
  Checker chk;
  uint64_t ops = 0, failed = 0, updates = 0, range_items = 0, ranges = 0;
  uint64_t cpu_ns = 0;
};

inline void embedded_loop(ShardedSet& set, uint64_t seed,
                          const std::atomic<bool>& stop, EmbeddedWorker& w) {
  constexpr uint64_t kFailedNs = ~uint64_t{0};
  bref::ThreadSession s(set);
  OpGen gen(kEmbeddedMix, seed);
  bref::RangeSnapshot snap;
  const uint64_t cpu0 = thread_cpu_ns();
  while (!stop.load(std::memory_order_relaxed)) {
    const Request r = gen.next();
    bool ok = true;
    ValT v = 0;
    const uint64_t t0 = now_ns();
    switch (r.kind) {
      case Kind::kGet: {
        const bool found = s.contains(r.lo, &v);
        const uint64_t t1 = now_ns();
        ok = w.chk.get(r.lo, found, v);
        w.win.record(t1);
        w.all.record(ok ? t1 - t0 : kFailedNs);
        break;
      }
      case Kind::kInsert:
      case Kind::kRemove: {
        if (r.kind == Kind::kInsert)
          s.insert(r.lo, r.lo);
        else
          s.remove(r.lo);
        const uint64_t t1 = now_ns();
        w.win.record(t1);
        w.all.record(t1 - t0);
        ++w.updates;
        break;
      }
      default: {
        s.range_query(r.lo, r.hi, snap);
        const uint64_t t1 = now_ns();
        ok = w.chk.range(r.lo, r.hi, snap.items());
        w.win.record(t1);
        w.all.record(ok ? t1 - t0 : kFailedNs);
        w.range.record(ok ? t1 - t0 : kFailedNs);
        w.range_items += snap.size();
        ++w.ranges;
        break;
      }
    }
    ++w.ops;
    if (!ok) ++w.failed;
  }
  w.cpu_ns = thread_cpu_ns() - cpu0;
}

inline Outcome run_embedded(const RunOptions& o, Report& rep, Checker& chk) {
  const std::vector<KeyT> order = prefill_order(o.seed);
  const Placement place;
  bref::ShardOptions so;
  so.shards = kShards;
  so.key_lo = 0;
  so.key_hi = kKeys;
  so.inner = bref::SetOptions{.reclaim = true};
  std::unique_ptr<ShardedSet> set;
  std::unique_ptr<MaintenanceService> maint;
  double drain_s = 0;
  const std::vector<double> setups = repeat_setup(
      [&] {
        maint.reset();
        set.reset();
      },
      [&] {
        set = std::make_unique<ShardedSet>("Bundle-skiplist", so);
        place.enter(Placement::kMaintenance);
        maint = std::make_unique<MaintenanceService>(*set);
        maint->start();
        place.enter(Placement::kLoad);
        prefill(*set, order);
        return drain_maintenance(*set, *maint);
      },
      &drain_s);
  if (drain_s < 0) chk.fail("maintenance did not drain within 30 s");

  const uint64_t run_s = std::max<uint64_t>(1, std::llround(o.seconds));
  const uint64_t t0 = now_ns();
  std::atomic<bool> stop{false};
  std::vector<EmbeddedWorker> workers(kEmbeddedThreads, EmbeddedWorker(t0));
  std::vector<std::thread> threads;
  const LayerSnap a = LayerSnap::take(nullptr, *set, *maint, 0);
  place.enter(Placement::kWork);
  for (int i = 0; i < kEmbeddedThreads; ++i)
    threads.emplace_back(embedded_loop, std::ref(*set),
                         stream_seed(o.seed, 3 + static_cast<uint64_t>(i)),
                         std::cref(stop), std::ref(workers[i]));
  place.enter(Placement::kLoad);
  uint64_t backlog_max = 0;
  const uint64_t end = t0 + run_s * Windows::kWidthNs;
  for (uint64_t now = now_ns(); now < end; now = now_ns()) {
    if (o.trace && (now - t0) / Windows::kWidthNs % 2 == 1)
      backlog_max = std::max(backlog_max, reclaim_backlog(*set));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  Windows win(t0);
  LatencyHist all, range;
  uint64_t updates = 0, range_items = 0, ranges = 0, cpu = 0;
  Outcome out;
  for (const EmbeddedWorker& w : workers) {
    win += w.win;
    all += w.all;
    range += w.range;
    out.attempted += w.ops;
    out.failed += w.failed;
    updates += w.updates;
    range_items += w.range_items;
    ranges += w.ranges;
    cpu += w.cpu_ns;
    if (w.chk.failures() > 0)
      chk.fail("%llu failed answer checks in a load thread",
               static_cast<unsigned long long>(w.chk.failures()));
  }
  const LayerSnap b = LayerSnap::take(nullptr, *set, *maint, cpu);
  const double rss = peak_rss_mb();
  maint->stop();
  const uint64_t before = chk.failures();
  chk.final_state(*set);
  out.failed += chk.failures() - before;

  const double secs = static_cast<double>(b.wall_ns - a.wall_ns) * 1e-9;
  const std::string note = phase_note(
      "closed loop, " + std::to_string(kEmbeddedThreads) + " threads, per call",
      all.count(), secs);
  e2e(rep, o.trace, "setup_s", median(setups), "s", setups_note(setups));
  e2e(rep, o.trace, "ops_s", static_cast<double>(out.attempted) / secs, "1/s",
      note);
  e2e(rep, o.trace, "p50_us", all.quantile(0.50) / 1e3, "us", note);
  e2e(rep, o.trace, "p99_us", all.quantile(0.99) / 1e3, "us", note);
  e2e(rep, o.trace, "rss_mb", rss, "MB", "peak resident set");
  report_tails(rep, range, LatencyHist(), o.trace);
  report_fail_pct(rep, out);
  if (!o.trace) return out;

  const double even = win.median_rate(0, run_s, 2);
  const double odd = win.median_rate(1, run_s, 2);
  rep.layer("trace.overhead_pct", 100.0 * ratio(even - odd, even), "%",
            "median rate of unsampled (even) vs backlog-sampled (odd) 1-s "
            "windows");
  rep.layer("open_loop.p50_us", 0, "us", "n/a: closed loop only");
  rep.layer("open_loop.p99_us", 0, "us", "n/a: closed loop only");
  rep.layer("gen.lateness_p99_us", 0, "us", "n/a: closed loop, no schedule");
  rep.layer("gen.cpu_ms_per_s", static_cast<double>(cpu) * 1e-6 / secs,
            "ms/s", "the load threads, which also run the structure");
  rep.layer("client.encode_ns", 0, "ns", "n/a: no sockets");
  rep.layer("client.decode_ns", 0, "ns", "n/a: no sockets");
  static const char* const kNoServer[][2] = {
      {"server.queue_p99_us", "us"},
      {"server.flush_p99_us", "us"},
      {"server.execute_p99_us", "us"},
      {"server.frames_per_batch", "frames"},
      {"server.cpu_us_per_op", "us"},
      {"server.bytes_out_per_op", "B"},
      {"server.chunked_rqs", "count"},
      {"server.scan_slices_per_scan", "slices"},
      {"server.shed", "count"}};
  for (const auto& [name, unit] : kNoServer)
    rep.layer(name, 0, unit, "n/a: no server");
  report_core_layers(rep, a, b, out.attempted, updates, backlog_max, drain_s);
  rep.layer("rq.keys_per_range",
            ratio(static_cast<double>(range_items),
                  static_cast<double>(ranges)),
            "keys", count_note(ranges, "RQ-50"));
  return out;
}

}  // namespace perfbench
