// Figure 7 (this repo's extension): bref-server tail latency — an
// OPEN-LOOP traffic generator against the epoll-batched network front-end
// (src/net/server.h), reporting p50/p99/p999 response latency and achieved
// throughput per scenario.
//
// Open-loop means each connection sends on a fixed arrival schedule
// (total --rate ops/s spread evenly over --conns connections) regardless
// of whether earlier responses have come back, and latency is measured
// from the *scheduled* send time to response receipt. A server that stalls
// therefore accumulates queueing delay in the tail instead of silently
// slowing the generator down (the coordinated-omission trap of closed-loop
// drivers).
//
// Workload units are drawn per the scenario mix: point GET / INSERT /
// REMOVE, RANGE of --rqsize keys, and wire transactions (TXN_BEGIN +
// --txnops TXN_OPs + TXN_COMMIT pipelined as one unit, one latency sample
// at the commit reply). Keys are Zipf(--zipf, default 0.99) over
// [1, keyrange] — hot keys concentrate on a few shards, which is the point.
//
//   fig7_server [--conns 64] [--clients 4] [--rate 40000] [--workers 4]
//               [--shards 4] [--impl Bundle-skiplist] [--scenario all]
//               [--duration 1000] [--keyrange 65536] [--zipf 0.99]
//               [--txnops 4] [--wave-budget N] [--json [path]]
//               [--metrics-out path]
//
// Guard-layer scenarios (ISSUE 8):
//
//   --scenario overload   point mix at --rate ("overload-1x", the
//                         sustainable baseline) then at 5x --rate
//                         ("overload-5x"). Shed replies (kErrOverloaded)
//                         are counted separately and EXCLUDED from the
//                         latency histogram: the reported p99 is the
//                         p99-of-accepted, and "goodput" is the accepted
//                         rate. The acceptance gate wants shed > 0 at 5x,
//                         goodput within tolerance of the baseline, and
//                         p99-of-accepted within 3x the unloaded one.
//   --scenario scan       point mix without ("scan-off") and with
//                         ("scan-on") a background connection running
//                         whole-keyspace RANGEs back-to-back. With
//                         cooperative scan chunking the scans must not
//                         multiply the point p99 by more than ~2x.
//   --wave-budget N       sets GuardOptions::max_wave_frames (admission
//                         budget per worker wave; 0 disables shedding).
//
// Tracing scenarios (ISSUE 10):
//
//   --scenario trace      point mix with tracing fully disabled
//                         ("trace-off": no client stamps, server capture
//                         disarmed) then fully on ("trace-on": every
//                         request frame carries a trace context, server
//                         runs the default tail-biased capture policy).
//                         The gate (tools/gate.py trace) holds the p99
//                         overhead of trace-on at <= 3% at matched
//                         achieved rate.
//   --trace on|off        whether the OTHER scenarios stamp + capture
//                         (default on). Every traced run's JSON record
//                         carries "trace": {"slowest": [...]} — the 10
//                         slowest requests of the scenario with their full
//                         per-stage span timelines (from TRACE_DUMP; the
//                         all-time board guarantees the true tail is
//                         there). tools/trace2chrome converts the dump to
//                         chrome://tracing JSON.
//   --trace-every N       reservoir rate while tracing (default 128).
//   --trace-threshold-us N  commit threshold while tracing (default 1000;
//                         every request slower than this is captured).
//
// --json records one entry per scenario; "threads" is the connection
// count, extra carries the offered/achieved rates, shed/goodput, the
// mid-run live connection count, the server-side queue/execute/flush p99
// attribution (deltas of the bref_net_stage_seconds histograms over the
// scenario), and the server's own stats document (frames-per-batch shows
// how well pipelining coalesced; the "guard" object carries
// shed/chunked/reaped). --metrics-out writes the mid-run Prometheus
// scrape to a file (CI validates it with tools/promcheck).

#include <poll.h>

#include <algorithm>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timing.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"

namespace {

using namespace bref;
using namespace bref::bench;

struct Scenario {
  const char* name;
  int u_pct;    // point updates (insert/remove split evenly)
  int c_pct;    // point lookups
  int rq_pct;   // range queries
  int txn_pct;  // wire transactions
};

constexpr Scenario kPoint{"point", 20, 80, 0, 0};
constexpr Scenario kMixed{"mixed", 10, 78, 10, 2};

struct DriverConfig {
  uint16_t port = 0;
  int conns = 64;
  int clients = 4;       // driver threads; conns are split among them
  uint64_t rate = 40000; // total offered ops/s across all connections
  int duration_ms = 1000;
  KeyT key_range = 1 << 16;
  int rq_size = 50;
  int txn_ops = 4;
  double zipf_theta = 0.99;
  uint64_t seed = 1;
  Scenario mix = kMixed;
  bool trace = true;  // stamp a trace context on every request frame
};

/// One sent-but-unanswered request frame. Replies arrive in frame order
/// per connection (PROTOCOL.md), so a FIFO of these matches them.
struct Due {
  uint64_t sched_ns;  // scheduled arrival of the unit this frame belongs to
  bool sample;        // record a latency sample at this frame's reply
};

/// One connection: the client codec (a Client driven through a
/// nonblocking Pipeline) plus its open-loop schedule.
struct Conn {
  Conn(uint16_t port, uint64_t interval_ns, uint64_t first_due_ns,
       const DriverConfig& cfg, uint64_t seed)
      : client(port, net::ClientOptions{.trace = cfg.trace}),
        pipe(client),
        rng(seed),
        zipf(static_cast<uint64_t>(cfg.key_range), cfg.zipf_theta, seed ^ 77),
        interval(interval_ns),
        next_due(first_due_ns) {}

  net::Client client;
  net::Pipeline pipe;
  Xoshiro256 rng;
  ZipfGenerator zipf;
  uint64_t interval;
  uint64_t next_due;
  std::deque<Due> due;
  bool dead = false;
};

struct DriverResult {
  obs::HistogramSnapshot latency;  // ns; ACCEPTED replies only
  uint64_t frames = 0;      // request frames completed (accepted + shed)
  uint64_t shed = 0;        // kErrOverloaded replies (op not executed)
  uint64_t errors = 0;      // connection/protocol failures (expect 0)
  uint64_t stragglers = 0;  // units unanswered at the drain deadline
};

uint64_t ns_since(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now() - t0)
          .count());
}

/// Queue one workload unit's frames per the scenario mix, with its
/// latency clock starting at the *scheduled* time, not the send time.
/// Traced runs stamp a trace context onto every frame (ClientOptions::
/// trace), so the tracing-on side of the overhead gate pays the full wire
/// cost.
void schedule_unit(Conn& c, const DriverConfig& cfg, uint64_t sched_ns) {
  const Scenario& mix = cfg.mix;
  const uint64_t dice = c.rng.next_range(100);
  const KeyT k = 1 + static_cast<KeyT>(c.zipf.next());
  net::Pipeline& p = c.pipe;
  if (dice < static_cast<uint64_t>(mix.txn_pct)) {
    p.txn_begin();
    c.due.push_back({sched_ns, false});  // only the commit reply ends it
    for (int i = 0; i < cfg.txn_ops; ++i) {
      const KeyT tk = 1 + static_cast<KeyT>(c.zipf.next());
      switch (c.rng.next_range(3)) {
        case 0:
          p.txn_op(net::Op::kInsert, tk, tk);
          break;
        case 1:
          p.txn_op(net::Op::kRemove, tk);
          break;
        default:
          p.txn_op(net::Op::kGet, tk);
          break;
      }
      c.due.push_back({sched_ns, false});
    }
    p.txn_commit();
  } else if (dice < static_cast<uint64_t>(mix.txn_pct + mix.rq_pct)) {
    p.range(k, k + cfg.rq_size - 1);
  } else if (dice <
             static_cast<uint64_t>(mix.txn_pct + mix.rq_pct + mix.u_pct)) {
    if (c.rng.next_range(2) == 0)
      p.insert(k, k);
    else
      p.remove(k);
  } else {
    p.get(k);
  }
  c.due.push_back({sched_ns, true});
}

/// Send what the socket takes now if `writable`; if `readable`, read what
/// has arrived and match each whole reply against the due FIFO, recording
/// latency samples at unit-ending replies. A connection that fails (closed,
/// reset, or a reply that does not parse) is dead.
void service(Conn& c, bool writable, bool readable, Clock::time_point t0,
             DriverResult& res) {
  net::Reply reply;
  try {
    if (writable) c.pipe.send();
    if (readable) c.pipe.receive();
    while (readable && c.pipe.next(&reply)) {
      const Due d = c.due.front();
      c.due.pop_front();
      ++res.frames;
      if (reply.overloaded()) {
        // Shed by admission control: a deliberate, well-formed outcome,
        // not an error. Excluded from the histogram so p99 is
        // p99-of-accepted.
        ++res.shed;
        continue;
      }
      if (d.sample) res.latency.record(ns_since(t0) - d.sched_ns);
    }
  } catch (const net::NetError&) {
    c.dead = true;
    ++res.errors;
  }
}

/// One driver thread: owns `nconns` connections, runs their open-loop
/// schedules, and collects latency samples until every in-flight unit is
/// answered (or the drain deadline passes).
///
/// All threads finish their connect storm BEFORE the schedule clock
/// starts (`ready` barrier; its completion step stamps t0) — on a small
/// machine establishing 64 connections takes tens of milliseconds, and
/// charging that setup to the first wave's scheduled arrivals would
/// fabricate a startup tail.
template <typename Barrier>
DriverResult drive(const DriverConfig& cfg, int thread_idx, int nconns,
                   Barrier& ready, const Clock::time_point& t0_out,
                   uint64_t end_ns) {
  DriverResult res;
  // Per-connection interval so the *total* offered rate is cfg.rate.
  const uint64_t interval_ns =
      1'000'000'000ull * static_cast<uint64_t>(cfg.conns) /
      (cfg.rate > 0 ? cfg.rate : 1);
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < nconns; ++i) {
    const uint64_t seed =
        cfg.seed * 1315423911u + static_cast<uint64_t>(thread_idx) * 131 + i;
    // Stagger first arrivals across the interval so conns don't align.
    const uint64_t first =
        interval_ns * (static_cast<uint64_t>(i) + 1) / (nconns + 1);
    conns.push_back(
        std::make_unique<Conn>(cfg.port, interval_ns, first, cfg, seed));
  }
  ready.arrive_and_wait();  // completion step stamps t0_out
  const Clock::time_point t0 = t0_out;
  const uint64_t drain_deadline_ns = end_ns + 10'000'000'000ull;
  std::vector<pollfd> pfds(conns.size());
  bool scheduling = true;
  for (;;) {
    uint64_t t = ns_since(t0);
    if (scheduling && t >= end_ns) scheduling = false;
    uint64_t next_wake = ~0ull;
    bool idle = true;
    for (auto& cp : conns) {
      Conn& c = *cp;
      if (c.dead) continue;
      if (scheduling) {
        while (c.next_due <= t) {
          schedule_unit(c, cfg, c.next_due);
          c.next_due += c.interval;
        }
        next_wake = std::min(next_wake, c.next_due);
      }
      if (c.pipe.unsent() > 0) service(c, true, false, t0, res);
      if (c.pipe.unsent() > 0 || !c.due.empty()) idle = false;
    }
    if (!scheduling && idle) break;
    if (t > drain_deadline_ns) {
      for (auto& cp : conns) res.stragglers += cp->due.size();
      break;
    }
    int timeout_ms = 10;
    if (scheduling && next_wake != ~0ull) {
      t = ns_since(t0);
      // Ceil to a whole ms: a sub-ms wait must NOT truncate to a zero
      // timeout, or the generator busy-spins and starves the server on
      // small machines. Waking up to 1 ms late is honest — lateness is
      // charged to the schedule, not hidden.
      timeout_ms =
          next_wake > t
              ? static_cast<int>((next_wake - t + 999'999ull) / 1'000'000ull)
              : 0;
      if (timeout_ms > 10) timeout_ms = 10;
    }
    size_t n = 0;
    for (auto& cp : conns) {
      if (cp->dead) continue;
      pfds[n].fd = cp->client.fd();
      pfds[n].events =
          static_cast<short>(POLLIN | (cp->pipe.unsent() > 0 ? POLLOUT : 0));
      pfds[n].revents = 0;
      ++n;
    }
    if (n == 0) break;
    if (::poll(pfds.data(), n, timeout_ms) <= 0) continue;
    size_t i = 0;
    for (auto& cp : conns) {
      if (cp->dead) continue;
      const short re = pfds[i++].revents;
      service(*cp, re & POLLOUT, re & (POLLIN | POLLHUP | POLLERR), t0, res);
    }
  }
  return res;
}

/// Extract the `n` slowest records (by total_ns) from a TRACE_DUMP JSON
/// document as a JSON array, preserving each record verbatim. The dump's
/// "records" array is already ring+board deduplicated, so a brace-depth
/// scan over it is enough — no JSON parser needed for our own output.
std::string slowest_traces_json(const std::string& dump, size_t n) {
  std::vector<std::pair<uint64_t, std::string>> recs;
  size_t pos = dump.find("\"records\": [");
  if (pos == std::string::npos) return "[]";
  pos += 12;
  int depth = 0;
  size_t obj_start = 0;
  for (size_t i = pos; i < dump.size(); ++i) {
    const char ch = dump[i];
    if (ch == '{') {
      if (depth == 0) obj_start = i;
      ++depth;
    } else if (ch == '}') {
      if (depth > 0 && --depth == 0) {
        std::string obj = dump.substr(obj_start, i - obj_start + 1);
        uint64_t total = 0;
        const size_t tp = obj.find("\"total_ns\": ");
        if (tp != std::string::npos)
          total = std::strtoull(obj.c_str() + tp + 12, nullptr, 10);
        recs.emplace_back(total, std::move(obj));
      }
    } else if (ch == ']' && depth == 0) {
      break;  // end of the records array
    }
  }
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (recs.size() > n) recs.resize(n);
  std::string out = "[";
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i > 0) out += ", ";
    out += recs[i].second;
  }
  return out + "]";
}

/// Prefill every other key over the wire (pipelined) so the structure sits
/// at half occupancy, as in the paper's setup.
void prefill_wire(uint16_t port, KeyT key_range) {
  net::Client c(port);
  net::Pipeline p(c);
  for (KeyT k = 1; k <= key_range; k += 2) {
    p.insert(k, k);
    if (p.queued() >= 512) p.collect();
  }
  p.collect();
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  Config base = config_from_args(args);
  if (!args.has("--keyrange")) base.key_range = 1 << 16;
  if (!args.has("--duration")) base.duration_ms = 1000;
  if (!args.has("--zipf")) base.zipf_theta = 0.99;
  json_init(args, "fig7_server", base);

  DriverConfig cfg;
  cfg.conns = static_cast<int>(args.get_long("--conns", 64));
  cfg.clients = static_cast<int>(args.get_long("--clients", 4));
  cfg.rate = static_cast<uint64_t>(args.get_long("--rate", 40000));
  cfg.duration_ms = base.duration_ms;
  cfg.key_range = base.key_range;
  cfg.rq_size = base.rq_size;
  cfg.txn_ops = static_cast<int>(args.get_long("--txnops", 4));
  cfg.zipf_theta = base.zipf_theta;
  cfg.seed = base.seed;
  if (cfg.clients > cfg.conns) cfg.clients = cfg.conns;

  net::ServerOptions sopt;
  // A fixed --port lets a live viewer (examples/bref_top) attach to the
  // scenario server; the default ephemeral port keeps CI runs isolated.
  sopt.port = static_cast<uint16_t>(args.get_long("--port", 0));
  sopt.workers = static_cast<int>(args.get_long("--workers", 4));
  sopt.shards = static_cast<size_t>(args.get_long("--shards", 4));
  sopt.impl = args.get_str("--impl", "Bundle-skiplist");
  sopt.key_lo = 0;
  sopt.key_hi = cfg.key_range + 2;
  sopt.maintenance = !args.has("--no-maintain");
  sopt.guard.max_wave_frames = static_cast<uint32_t>(args.get_long(
      "--wave-budget", static_cast<long>(sopt.guard.max_wave_frames)));
  sopt.guard.scan_chunk_keys = static_cast<size_t>(args.get_long(
      "--scan-chunk", static_cast<long>(sopt.guard.scan_chunk_keys)));

  // A Run is one measured pass: a mix, an offered rate, and optionally a
  // background whole-keyspace scanner. The guard scenarios are pairs whose
  // second member perturbs exactly one variable (rate, or the scanner) so
  // the acceptance gates can compare like with like.
  struct Run {
    Scenario mix;
    const char* label;
    uint64_t rate;
    bool scanner;
    bool trace;
  };
  const bool trace_default = args.get_str("--trace", "on") != std::string("off");
  const uint32_t trace_every =
      static_cast<uint32_t>(args.get_long("--trace-every", 128));
  const uint32_t trace_threshold_us =
      static_cast<uint32_t>(args.get_long("--trace-threshold-us", 1000));
  const std::string which = args.get_str("--scenario", "all");
  std::vector<Run> runs;
  if (which == "point" || which == "all")
    runs.push_back({kPoint, "point", cfg.rate, false, trace_default});
  if (which == "mixed" || which == "all")
    runs.push_back({kMixed, "mixed", cfg.rate, false, trace_default});
  if (which == "overload") {
    runs.push_back({kPoint, "overload-1x", cfg.rate, false, trace_default});
    runs.push_back({kPoint, "overload-5x", cfg.rate * 5, false, trace_default});
  }
  if (which == "scan") {
    runs.push_back({kPoint, "scan-off", cfg.rate, false, trace_default});
    runs.push_back({kPoint, "scan-on", cfg.rate, true, trace_default});
  }
  if (which == "trace") {
    runs.push_back({kPoint, "trace-off", cfg.rate, false, false});
    runs.push_back({kPoint, "trace-on", cfg.rate, false, true});
  }
  if (runs.empty()) {
    std::fprintf(
        stderr,
        "unknown --scenario %s (point|mixed|all|overload|scan|trace)\n",
        which.c_str());
    return 1;
  }

  std::printf("=== Figure 7: bref-server open-loop tail latency ===\n");
  std::printf("# impl=%s shards=%zu workers=%d conns=%d clients=%d "
              "rate=%llu/s duration=%dms keyrange=%lld zipf=%.2f\n",
              sopt.impl.c_str(), sopt.shards, sopt.workers, cfg.conns,
              cfg.clients, static_cast<unsigned long long>(cfg.rate),
              cfg.duration_ms, static_cast<long long>(cfg.key_range),
              cfg.zipf_theta);
  std::printf("%12s %10s %10s %9s %9s %9s %9s %8s %6s\n", "mix",
              "offered/s", "goodput/s", "p50us", "p99us", "p999us", "maxus",
              "shed", "err");

  const std::string metrics_out = args.get_str("--metrics-out", "");
  std::string last_metrics;  // latest mid-run Prometheus scrape

  for (const Run& run : runs) {
    cfg.mix = run.mix;
    cfg.rate = run.rate;
    cfg.trace = run.trace;
    net::Server server(sopt);  // fresh server per scenario: clean stats
    server.start();
    cfg.port = server.port();
    prefill_wire(cfg.port, cfg.key_range);
    {
      // Traced runs use the configured capture policy; untraced runs
      // disarm capture entirely (reservoir 0 + no threshold) so the
      // trace-off side of the overhead gate does no clock reads at all.
      net::Client pc(cfg.port);
      if (run.trace)
        pc.trace_config(trace_every, trace_threshold_us);
      else
        pc.trace_config(0, UINT32_MAX);
    }

    // Stage-attribution brackets: the server's queue/execute/flush
    // histograms are process-global, so delta them across the scenario.
    const obs::HistogramSnapshot stage_before[3] = {
        net::stage_hist(0).snapshot(), net::stage_hist(1).snapshot(),
        net::stage_hist(2).snapshot()};

    const uint64_t end_ns =
        static_cast<uint64_t>(cfg.duration_ms) * 1'000'000ull;
    // t0 is stamped once every thread has connected (barrier completion),
    // so connect-storm time is not billed to the first scheduled arrivals.
    Clock::time_point t0{};
    std::barrier ready(cfg.clients, [&]() noexcept { t0 = now(); });
    std::vector<DriverResult> results(cfg.clients);
    std::vector<std::thread> threads;
    const int per = cfg.conns / cfg.clients;
    const int extra = cfg.conns % cfg.clients;
    for (int i = 0; i < cfg.clients; ++i) {
      const int nconns = per + (i < extra ? 1 : 0);
      threads.emplace_back([&, i, nconns] {
        results[i] = drive(cfg, i, nconns, ready, t0, end_ns);
      });
    }
    // Background scanner ("scan-on"): one connection issuing
    // whole-keyspace RANGEs for the life of the run, with a short think
    // time between scans. Back-to-back scans would re-measure raw memory
    // bandwidth (hundreds of MB/s of response traffic); the think time
    // keeps a scan in flight a sizable fraction of the run — well above
    // the 1% a p99 needs — while the gate measures what it claims to:
    // point-op latency while a chunked cooperative scan executes.
    std::atomic<bool> scan_stop{false};
    std::atomic<uint64_t> bg_scans{0};
    std::thread scanner;
    if (run.scanner) {
      scanner = std::thread([&] {
        try {
          net::Client sc(cfg.port);
          RangeSnapshot snap;
          while (!scan_stop.load(std::memory_order_relaxed)) {
            sc.range(0, cfg.key_range + 2, snap);
            bg_scans.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
          }
        } catch (const net::NetError&) {
          // Tear-down racing the last scan; the bg_scans count stands.
        }
      });
    }
    // Mid-run monitor: scrape METRICS and STATS over a connection of its
    // own while every driver connection is live — the regression check
    // for live-connection visibility (a mid-run "connections": 0 was
    // exactly the BENCH_6 bug) and the payload --metrics-out archives.
    std::string midrun_metrics, midrun_stats;
    std::thread monitor([&] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(cfg.duration_ms / 2, 1)));
      try {
        net::Client mc(cfg.port);
        midrun_metrics = mc.metrics();
        midrun_stats = mc.stats();
      } catch (const net::NetError&) {
        // A scrape failure shows up as midrun_connections: -1 below.
      }
    });
    for (auto& th : threads) th.join();
    monitor.join();
    const double elapsed = elapsed_s(t0);
    scan_stop.store(true, std::memory_order_relaxed);
    if (scanner.joinable()) scanner.join();
    if (!midrun_metrics.empty()) last_metrics = midrun_metrics;
    long midrun_conns = -1;
    const size_t cpos = midrun_stats.find("\"connections\": ");
    if (cpos != std::string::npos)
      midrun_conns = std::atol(midrun_stats.c_str() + cpos + 15);

    DriverResult total;
    for (auto& r : results) {
      total.latency += r.latency;
      total.frames += r.frames;
      total.shed += r.shed;
      total.errors += r.errors;
      total.stragglers += r.stragglers;
    }
    Measured m;
    m.ops = total.latency.count;
    m.mops = static_cast<double>(m.ops) / elapsed / 1e6;
    m.set_latencies(total.latency);

    // Per-stage server-side p99s over this scenario (µs). Their sum is a
    // lower bound on the end-to-end p99 the driver saw: the wire path is
    // queue -> execute -> flush, and the client adds schedule + network
    // delay on top.
    double stage_p99_us[3];
    for (int s = 0; s < 3; ++s) {
      obs::HistogramSnapshot d = net::stage_hist(s).snapshot();
      d -= stage_before[s];
      stage_p99_us[s] = d.quantile(0.99) / 1000.0;
    }

    const std::string server_stats = server.stats_json();
    // The 10 slowest requests of the scenario with their per-stage
    // timelines — the all-time board inside the dump guarantees the true
    // tail is present even after ring churn.
    std::string trace_slowest = "[]";
    if (run.trace) {
      try {
        net::Client tc(cfg.port);
        trace_slowest = slowest_traces_json(tc.trace_dump(), 10);
      } catch (const net::NetError&) {
        // Dump is best-effort; an empty "slowest" fails the gate loudly.
      }
    }
    server.stop();

    // shed_pct is over unit-ending replies: shed frames vs accepted
    // samples (every shed frame would have ended its unit in these mixes).
    const double shed_pct =
        total.shed + total.latency.count > 0
            ? 100.0 * static_cast<double>(total.shed) /
                  static_cast<double>(total.shed + total.latency.count)
            : 0.0;
    char mix_str[48];
    std::snprintf(mix_str, sizeof mix_str, "%s-%d-%d-%d-%d", run.label,
                  run.mix.u_pct, run.mix.c_pct, run.mix.rq_pct,
                  run.mix.txn_pct);
    std::printf("%12s %10llu %10.0f %9.1f %9.1f %9.1f %9.1f %8llu %6llu\n",
                run.label, static_cast<unsigned long long>(cfg.rate),
                m.mops * 1e6, m.p50_us, m.p99_us, m.p999_us, m.max_us,
                static_cast<unsigned long long>(total.shed),
                static_cast<unsigned long long>(total.errors +
                                                total.stragglers));
    char extra_buf[768];
    std::snprintf(
        extra_buf, sizeof extra_buf,
        "\"conns\": %d, \"clients\": %d, \"offered_rate\": %llu, "
        "\"achieved_rate\": %.0f, \"goodput_rate\": %.0f, \"shed\": %llu, "
        "\"shed_pct\": %.2f, \"bg_scans\": %llu, \"frames\": %llu, "
        "\"errors\": %llu, \"stragglers\": %llu, "
        "\"midrun_connections\": %ld, \"queue_p99_us\": %.1f, "
        "\"execute_p99_us\": %.1f, \"flush_p99_us\": %.1f, \"server\": ",
        cfg.conns, cfg.clients, static_cast<unsigned long long>(cfg.rate),
        m.mops * 1e6, m.mops * 1e6,
        static_cast<unsigned long long>(total.shed), shed_pct,
        static_cast<unsigned long long>(
            bg_scans.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(total.frames),
        static_cast<unsigned long long>(total.errors),
        static_cast<unsigned long long>(total.stragglers), midrun_conns,
        stage_p99_us[0], stage_p99_us[1], stage_p99_us[2]);
    std::string extra_json = extra_buf + server_stats;
    extra_json += ", \"trace\": {\"enabled\": ";
    extra_json += run.trace ? "true" : "false";
    extra_json += ", \"slowest\": " + trace_slowest + "}";
    JsonSink::instance().record(sopt.impl, mix_str, cfg.conns, m, extra_json);
    if (total.errors > 0) {
      std::fprintf(stderr, "fig7_server: %llu connection errors\n",
                   static_cast<unsigned long long>(total.errors));
      JsonSink::instance().flush();
      return 1;
    }
  }
  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fig7_server: cannot open %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::fwrite(last_metrics.data(), 1, last_metrics.size(), f);
    std::fclose(f);
    std::printf("# metrics: wrote %zu bytes of mid-run exposition to %s\n",
                last_metrics.size(), metrics_out.c_str());
  }
  std::printf("shape-check: achieved should track offered while p99 stays "
              "low; past saturation the open-loop tail grows without "
              "dragging the offered rate down. queue/execute/flush p99s in "
              "the JSON record attribute the server-side share of the "
              "tail.\n");
  JsonSink::instance().flush();
  return 0;
}
