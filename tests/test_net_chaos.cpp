// Chaos and degradation suite for the wire path (ISSUE 8 / net/guard.h):
//
//   * seeded syscall fault injection (net/testing/faultfd.h) under a
//     mixed loopback workload — lossless faults (EINTR, short I/O) must
//     leave semantics untouched, so the surviving RANGE snapshots feed
//     the timestamp-aware Wing–Gong linearizability check;
//   * ECONNRESET storms — op outcomes become unknowable, so the asserts
//     are survival ones: every failure is a typed NetError, the server
//     keeps answering afterwards;
//   * EMFILE at accept4 — the acceptor backs off instead of dying;
//   * graceful degradation: slow readers disconnected at the pending
//     cap, idle connections reaped, overload shed with kErrOverloaded
//     and recovered from, chunked whole-keyspace scans linearizable at
//     ONE timestamp while point ops run, stop() drain deadline-bounded;
//   * trace-slot accounting (ISSUE 10): per-request trace scratch slots
//     all return to the pool after reset storms, shed bursts, and
//     reaped-mid-scan connections — traces terminate, never leak.
//
// Seeds: BREF_CHAOS_SEED (env) re-seeds every FaultPlan, so CI can sweep
// seeds without recompiling. Faults decide deterministically per seed,
// but thread interleaving still varies — asserts are properties, never
// exact fault placements.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/client.h"
#include "net/server.h"
#include "net/testing/faultfd.h"
#include "net_batch.h"
#include "validation/wing_gong.h"

namespace {

using namespace bref;
using namespace bref::net;
using bref::net::testing::FaultPlan;
using bref::net::testing::FaultScope;

uint64_t chaos_seed() {
  const char* s = std::getenv("BREF_CHAOS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1;
}

ServerOptions small_opts(int workers = 2, size_t shards = 4) {
  ServerOptions o;
  o.workers = workers;
  o.shards = shards;
  o.key_lo = 0;
  o.key_hi = 1 << 16;
  return o;
}

/// Spin on a predicate with a deadline (stats are eventually consistent
/// with the worker loops' relaxed counters).
template <typename F>
bool eventually(F&& f, uint64_t timeout_ms = 5'000) {
  const uint64_t deadline = steady_ms() + timeout_ms;
  while (!f()) {
    if (steady_ms() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

// ---- lossless faults: semantics must survive verbatim ----------------------

TEST(Chaos, LosslessFaultsAuditLinearizable) {
  constexpr int kThreads = 6;
  ServerOptions o = small_opts(/*workers=*/3, /*shards=*/4);
  o.key_hi = 8;  // keys 1..7 spread over all four shards
  Server srv(o);
  srv.start();

  FaultPlan plan;
  plan.seed = chaos_seed();
  plan.eintr_permille = 60;
  plan.short_io_permille = 120;  // no resets: byte stream stays lossless
  FaultScope scope(plan);

  for (int burst = 0; burst < 6; ++burst) {
    std::vector<validation::ThreadLog> logs;
    for (int t = 0; t < kThreads; ++t) logs.emplace_back(t);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        Client c(srv.port());
        Xoshiro256 rng(chaos_seed() * 7919 + burst * 131 + t + 1);
        RangeSnapshot out;
        for (int i = 0; i < 4; ++i) {
          const KeyT k = 1 + static_cast<KeyT>(rng.next_range(7));
          const uint64_t t0 = validation::now_ns();
          switch (rng.next_range(4)) {
            case 0: {
              const ValT v = burst * 100 + t * 10 + i;
              const bool r = c.insert(k, v);
              logs[t].record_point(validation::OpKind::kInsert, k, v, r, t0,
                                   validation::now_ns());
              break;
            }
            case 1: {
              const bool r = c.remove(k);
              logs[t].record_point(validation::OpKind::kRemove, k, 0, r, t0,
                                   validation::now_ns());
              break;
            }
            case 2: {
              const std::optional<ValT> v = c.get(k);
              logs[t].record_point(validation::OpKind::kContains, k,
                                   v.value_or(0), v.has_value(), t0,
                                   validation::now_ns());
              break;
            }
            default: {
              c.range(1, 8, out);  // all shards -> one-timestamp path
              logs[t].record_rq(out, t0, validation::now_ns());
              break;
            }
          }
        }
      });
    }
    for (auto& th : ts) th.join();
    // Reset the keyspace between bursts so each audit is self-contained.
    validation::History h = validation::merge(logs);
    const auto verdict = validation::check_linearizable_with_ts(h);
    ASSERT_TRUE(verdict.linearizable)
        << "seed " << plan.seed << " burst " << burst << ": "
        << verdict.message;
    {
      Client c(srv.port());
      for (KeyT k = 1; k < 8; ++k) c.remove(k);
    }
  }
  // The run is only meaningful if faults actually fired.
  EXPECT_GT(scope.injector().eintr_injected() +
                scope.injector().short_io_injected(),
            0u);
  srv.stop();  // quiesce before the scope uninstalls
}

// The nonblocking Pipeline path (send/receive/next under poll(), as fig7
// drives it) under EINTR and short I/O on both ends returns the replies
// collect() gets from a fault-free server for the same batch.
TEST(Chaos, LosslessFaultsKeepNonblockingPipelineReplies) {
  std::vector<Reply> faulted, clean;
  {
    Server srv(small_opts());
    srv.start();
    Client c(srv.port());
    Pipeline p(c);
    clean = testbatch::collect_all(p, 1 << 16);
    srv.stop();
  }
  Server srv(small_opts());
  srv.start();
  {
    FaultPlan plan;
    plan.seed = chaos_seed();
    plan.eintr_permille = 60;
    plan.short_io_permille = 120;  // no resets: byte stream stays lossless
    FaultScope scope(plan);
    Client c(srv.port());
    Pipeline p(c);
    testbatch::MixedBatch b(1 << 16);
    faulted = testbatch::drive_nonblocking(c, p, b);
    EXPECT_GT(scope.injector().eintr_injected(), 0u);
    EXPECT_GT(scope.injector().short_io_injected(), 0u);
    srv.stop();  // quiesce before the scope uninstalls
  }
  testbatch::expect_same_replies(faulted, clean);
}

// ---- lossy faults: survival + typed errors ---------------------------------

TEST(Chaos, ResetStormSurvivesWithTypedErrors) {
  Server srv(small_opts());
  srv.start();
  std::atomic<uint64_t> ok{0}, net_errors{0};
  {
    FaultPlan plan;
    plan.seed = chaos_seed() + 1;
    plan.eintr_permille = 40;
    plan.short_io_permille = 80;
    plan.reset_permille = 25;  // outcomes unknowable; assert survival only
    FaultScope scope(plan);
    std::vector<std::thread> ts;
    for (int t = 0; t < 6; ++t) {
      ts.emplace_back([&, t] {
        Xoshiro256 rng(chaos_seed() * 31 + t);
        for (int i = 0; i < 60; ++i) {
          try {
            ClientOptions copt;
            copt.op_deadline_ms = 3'000;
            Client c(srv.port(), copt);
            const KeyT k = static_cast<KeyT>(rng.next_range(1 << 10));
            c.insert(k, t);
            c.get(k);
            ok.fetch_add(1, std::memory_order_relaxed);
          } catch (const NetError&) {
            net_errors.fetch_add(1, std::memory_order_relaxed);
          }
          // Anything else (std::bad_alloc, logic_error...) fails the test.
        }
      });
    }
    for (auto& th : ts) th.join();
    srv.stop();  // quiesce the server's wrapped syscalls too
  }
  // The storm must have produced both outcomes to mean anything, and the
  // server must come back clean after it.
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(net_errors.load(), 0u);
  srv.start();
  Client c(srv.port());
  EXPECT_TRUE(c.ping());
  srv.stop();
}

TEST(Chaos, EmfileAcceptBacksOffAndRecovers) {
  Server srv(small_opts());
  srv.start();
  {
    FaultPlan plan;
    plan.seed = chaos_seed() + 2;
    plan.emfile_permille = 400;  // ~40% of accepts answer EMFILE
    FaultScope scope(plan);
    int connected = 0;
    for (int i = 0; i < 12; ++i) {
      try {
        ClientOptions copt;
        copt.connect_timeout_ms = 3'000;
        Client c(srv.port(), copt);
        if (c.ping()) ++connected;
      } catch (const NetError&) {
        // An unlucky streak within the deadline is acceptable...
      }
    }
    EXPECT_GT(connected, 0);  // ...but the acceptor must not have died.
    EXPECT_GT(scope.injector().emfiles_injected(), 0u);
  }
  Client c(srv.port());
  EXPECT_TRUE(c.ping());
  srv.stop();
}

// ---- graceful degradation --------------------------------------------------

TEST(Guard, SlowReaderIsDisconnectedAtPendingCap) {
  ServerOptions o = small_opts(/*workers=*/1);
  o.guard.max_conn_pending = 64 * 1024;
  o.guard.scan_chunk_keys = 0;       // inline RANGEs: responses pile up
  o.guard.max_wave_bytes = 64 << 20; // don't shed; we want the pileup
  Server srv(o);
  srv.start();
  {
    Client w(srv.port());
    for (KeyT k = 0; k < 4000; ++k) w.insert(k, k);
  }
  // Ask for ~64KB responses, many times, and never read a byte.
  Client slow(srv.port());
  std::vector<uint8_t> reqs;
  for (int i = 0; i < 400; ++i) encode_range(reqs, 0, 4000);
  try {
    slow.write_all(reqs.data(), reqs.size());
  } catch (const NetError&) {
    // The server may reset the connection while we are still writing.
  }
  EXPECT_TRUE(eventually(
      [&] { return srv.stats().reaped_slow_reader >= 1; }))
      << srv.stats_json();
  // The server itself stays healthy for well-behaved clients.
  Client c(srv.port());
  EXPECT_TRUE(c.ping());
  srv.stop();
}

TEST(Guard, IdleConnectionsAreReaped) {
  ServerOptions o = small_opts(/*workers=*/1);
  o.guard.idle_timeout_ms = 120;
  Server srv(o);
  srv.start();
  Client idle(srv.port());
  ASSERT_TRUE(idle.ping());  // adopted and active
  EXPECT_TRUE(eventually([&] { return srv.stats().reaped_idle >= 1; }))
      << srv.stats_json();
  // The reaped client sees a typed error, not a hang.
  try {
    idle.ping();
    // A race where the FIN is still in flight can let one op through;
    // the next must fail.
    idle.ping();
    FAIL() << "expected NetError after idle reap";
  } catch (const NetError& e) {
    EXPECT_TRUE(e.kind() == NetErrorKind::kEof ||
                e.kind() == NetErrorKind::kReset ||
                e.kind() == NetErrorKind::kTimeout)
        << to_string(e.kind());
  }
  srv.stop();
}

// Responses back up behind a client that stopped reading; with no pending
// cap, only the write-stall deadline can close the connection.
TEST(Guard, WriteStalledConnectionIsReaped) {
  ServerOptions o = small_opts(/*workers=*/1);
  o.guard.write_stall_ms = 200;
  o.guard.max_conn_pending = 0;       // no slow-reader cap
  o.guard.scan_chunk_keys = 0;        // inline RANGEs: responses pile up
  o.guard.max_wave_bytes = 64 << 20;  // don't shed; we want the pileup
  Server srv(o);
  srv.start();
  {
    Client w(srv.port());
    for (KeyT k = 0; k < 4000; ++k) w.insert(k, k);
  }
  Client stalled(srv.port());
  std::vector<uint8_t> reqs;
  for (int i = 0; i < 400; ++i) encode_range(reqs, 0, 4000);
  try {
    stalled.write_all(reqs.data(), reqs.size());
  } catch (const NetError&) {
    // The server may reset the connection while we are still writing.
  }
  EXPECT_TRUE(eventually(
      [&] { return srv.stats().reaped_write_stall >= 1; }))
      << srv.stats_json();
  EXPECT_EQ(srv.stats().reaped_slow_reader, 0u);
  EXPECT_EQ(srv.stats().reaped_idle, 0u);
  Client c(srv.port());
  EXPECT_TRUE(c.ping());
  srv.stop();
}

TEST(Guard, OverloadShedsThenRecovers) {
  ServerOptions o = small_opts(/*workers=*/1);
  o.guard.max_wave_frames = 8;  // tiny budget: deep pipelines must shed
  Server srv(o);
  srv.start();

  ClientOptions copt;
  copt.overload_retries = 0;  // surface sheds; don't absorb them
  Client c(srv.port(), copt);
  Pipeline p(c);
  for (int i = 0; i < 2000; ++i) p.insert(i, i);
  const std::vector<Reply> rs = p.collect();
  ASSERT_EQ(rs.size(), 2000u);
  size_t shed = 0, served = 0;
  uint32_t hint = 0;
  for (const Reply& r : rs) {
    if (r.overloaded()) {
      ++shed;
      hint = r.retry_after_ms;
    } else {
      ++served;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_GT(hint, 0u);  // the retry-after hint made it across the wire
  EXPECT_EQ(srv.stats().shed, shed);
  EXPECT_EQ(srv.stats().protocol_errors, 0u);  // sheds are not errors

  // Recovery: with the burst gone, the sync surface (which retries
  // kErrOverloaded transparently) works and the gauge clears.
  Client c2(srv.port());
  EXPECT_TRUE(c2.insert(99'999, 1));
  EXPECT_TRUE(eventually([&] { return srv.stats().overloaded == 0; }))
      << srv.stats_json();
  srv.stop();
}

TEST(Guard, ExemptOpsAnswerDuringOverload) {
  ServerOptions o = small_opts(/*workers=*/1);
  o.guard.max_wave_frames = 4;
  Server srv(o);
  srv.start();
  ClientOptions copt;
  copt.overload_retries = 0;
  Client c(srv.port(), copt);
  // One wave: a deep burst of point ops with PING and STATS behind them.
  std::vector<uint8_t> reqs;
  for (int i = 0; i < 500; ++i) encode_insert(reqs, i, i);
  encode_ping(reqs);
  encode_stats(reqs);
  c.write_all(reqs.data(), reqs.size());
  size_t shed = 0;
  for (int i = 0; i < 500; ++i)
    if (c.read_reply(Op::kInsert).overloaded()) ++shed;
  EXPECT_GT(shed, 0u);
  // Both introspection ops behind the shed burst still answered kOk.
  EXPECT_EQ(c.read_reply(Op::kPing).status, Status::kOk);
  const Reply st = c.read_reply(Op::kStats);
  EXPECT_EQ(st.status, Status::kOk);
  EXPECT_NE(st.text.find("\"guard\""), std::string::npos);
  srv.stop();
}

// ---- chunked scans ---------------------------------------------------------

TEST(Guard, ChunkedScanReturnsExactSnapshotAtOneTimestamp) {
  ServerOptions o = small_opts(/*workers=*/1, /*shards=*/4);
  o.key_hi = 1 << 12;
  o.guard.scan_chunk_keys = 64;  // whole keyspace = many slices
  Server srv(o);
  srv.start();
  Client c(srv.port());
  size_t expected = 0;
  for (KeyT k = 1; k < (1 << 12); k += 3) {
    ASSERT_TRUE(c.insert(k, k * 2));
    ++expected;
  }
  RangeSnapshot snap;
  ASSERT_EQ(c.range(0, 1 << 12, snap), expected);
  EXPECT_TRUE(snap.has_timestamp());
  for (const auto& [k, v] : snap) EXPECT_EQ(v, k * 2);
  const ServerStats st = srv.stats();
  EXPECT_GE(st.chunked_rqs, 1u);
  EXPECT_GT(st.scan_slices, st.chunked_rqs);  // genuinely sliced
  srv.stop();
}

TEST(Guard, ChunkedScansLinearizeWithConcurrentPointOps) {
  constexpr int kMutators = 4;
  ServerOptions o = small_opts(/*workers=*/2, /*shards=*/4);
  o.key_hi = 1 << 10;
  o.guard.scan_chunk_keys = 32;
  Server srv(o);
  srv.start();

  std::vector<validation::ThreadLog> logs;
  for (int t = 0; t < kMutators + 1; ++t) logs.emplace_back(t);
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kMutators; ++t) {
    ts.emplace_back([&, t] {
      Client c(srv.port());
      Xoshiro256 rng(chaos_seed() * 17 + t + 1);
      for (int i = 0; i < 120 && !stop.load(); ++i) {
        const KeyT k = 1 + static_cast<KeyT>(rng.next_range((1 << 10) - 1));
        const uint64_t t0 = validation::now_ns();
        if (rng.next_range(2) == 0) {
          const bool r = c.insert(k, t * 1000 + i);
          logs[t].record_point(validation::OpKind::kInsert, k, t * 1000 + i,
                               r, t0, validation::now_ns());
        } else {
          const bool r = c.remove(k);
          logs[t].record_point(validation::OpKind::kRemove, k, 0, r, t0,
                               validation::now_ns());
        }
      }
    });
  }
  {
    // Whole-keyspace scans, chunked server-side, concurrent with the mix.
    Client c(srv.port());
    RangeSnapshot out;
    for (int i = 0; i < 12; ++i) {
      const uint64_t t0 = validation::now_ns();
      c.range(0, 1 << 10, out);
      EXPECT_TRUE(out.has_timestamp());  // ONE linearization point each
      logs[kMutators].record_rq(out, t0, validation::now_ns());
    }
  }
  stop.store(true);
  for (auto& th : ts) th.join();
  const auto verdict =
      validation::check_linearizable_with_ts(validation::merge(logs));
  ASSERT_TRUE(verdict.linearizable) << verdict.message;
  EXPECT_GE(srv.stats().chunked_rqs, 12u);
  srv.stop();
}

// ---- trace-slot accounting (ISSUE 10) --------------------------------------
//
// Every traced request holds a per-worker scratch slot from trace_open to
// its terminal span (flush, shed, or error/disconnect). The invariant the
// chaos suite guards: after any storm quiesces, scratch_in_use returns to
// 0 — a leaked slot means some abort path forgot to close its trace.

TEST(Trace, ScratchSlotsAllReturnAfterResetStorm) {
  if (!obs::kEnabled) GTEST_SKIP() << "trace capture compiled out (BREF_OBS=OFF)";
  Server srv(small_opts());
  srv.start();
  {
    // Commit-all policy: every request that completes must travel the
    // whole open -> stamp -> close path, maximizing slot churn.
    Client cfg(srv.port());
    ASSERT_TRUE(cfg.trace_config(0, 0));
  }
  std::atomic<uint64_t> ok{0}, net_errors{0};
  {
    FaultPlan plan;
    plan.seed = chaos_seed() + 3;
    plan.eintr_permille = 40;
    plan.short_io_permille = 80;
    plan.reset_permille = 25;  // connections die with traces mid-flight
    FaultScope scope(plan);
    std::vector<std::thread> ts;
    for (int t = 0; t < 6; ++t) {
      ts.emplace_back([&, t] {
        Xoshiro256 rng(chaos_seed() * 57 + t);
        for (int i = 0; i < 40; ++i) {
          try {
            ClientOptions copt;
            copt.op_deadline_ms = 3'000;
            copt.trace = true;  // every frame carries a trace context
            Client c(srv.port(), copt);
            const KeyT k = static_cast<KeyT>(rng.next_range(1 << 10));
            c.insert(k, t);
            c.get(k);
            RangeSnapshot out;
            c.range(0, 256, out);  // multi-shard path under faults too
            ok.fetch_add(1, std::memory_order_relaxed);
          } catch (const NetError&) {
            net_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : ts) th.join();
    EXPECT_GT(ok.load(), 0u);
    EXPECT_GT(net_errors.load(), 0u);  // resets actually tore traced conns
    // Read stats while the workers still exist — stop() tears them (and
    // their counters) down. Closure processing is async, so spin.
    EXPECT_GT(srv.stats().trace_committed, 0u) << srv.stats_json();
    EXPECT_TRUE(eventually(
        [&] { return srv.stats().trace_scratch_in_use == 0; }))
        << srv.stats_json();
    srv.stop();  // quiesce before the scope uninstalls
  }
}

TEST(Trace, ScratchSlotsAllReturnAfterShedBurst) {
  if (!obs::kEnabled) GTEST_SKIP() << "trace capture compiled out (BREF_OBS=OFF)";
  ServerOptions o = small_opts(/*workers=*/1);
  o.guard.max_wave_frames = 8;  // deep traced pipelines must shed
  Server srv(o);
  srv.start();
  {
    Client cfg(srv.port());
    ASSERT_TRUE(cfg.trace_config(0, 0));
  }
  ClientOptions copt;
  copt.overload_retries = 0;
  copt.trace = true;
  Client c(srv.port(), copt);
  Pipeline p(c);
  for (int i = 0; i < 2000; ++i) p.insert(i, i);
  const std::vector<Reply> rs = p.collect();
  ASSERT_EQ(rs.size(), 2000u);
  size_t shed = 0;
  for (const Reply& r : rs)
    if (r.overloaded()) ++shed;
  EXPECT_GT(shed, 0u);  // shed traces took the kShed terminal span
  // Quiesced: every slot back, whether its request executed or shed.
  // (Exhaustion is expected here — 2000 in-flight traced frames vs a
  // 64-slot pool — and must degrade to untraced requests, not failures.)
  EXPECT_TRUE(eventually(
      [&] { return srv.stats().trace_scratch_in_use == 0; }))
      << srv.stats_json();
  EXPECT_GT(srv.stats().trace_committed, 0u);
  srv.stop();
}

TEST(Trace, ReapedScanConnectionsFreeTraceSlots) {
  ServerOptions o = small_opts(/*workers=*/1);
  o.key_hi = 1 << 12;
  o.guard.max_conn_pending = 64 * 1024;
  o.guard.scan_chunk_keys = 64;      // traced chunked scans hold slots
  o.guard.max_wave_bytes = 64 << 20;
  Server srv(o);
  srv.start();
  {
    Client cfg(srv.port());
    ASSERT_TRUE(cfg.trace_config(0, 0));
    Client w(srv.port());
    for (KeyT k = 0; k < 4000; ++k) w.insert(k, k);
  }
  // Traced whole-keyspace RANGEs from a reader that never reads: the
  // pending cap reaps the connection while chunked scans (and their
  // trace slots) are live; drop_conn must abort them.
  Client slow(srv.port());
  std::vector<uint8_t> reqs;
  uint64_t id = 0x5105105105105100ull;
  for (int i = 0; i < 400; ++i) {
    const size_t off = reqs.size();
    encode_range(reqs, 0, 4000);
    stamp_trace_context(reqs, off, ++id);
  }
  try {
    slow.write_all(reqs.data(), reqs.size());
  } catch (const NetError&) {
  }
  EXPECT_TRUE(eventually(
      [&] { return srv.stats().reaped_slow_reader >= 1; }))
      << srv.stats_json();
  EXPECT_TRUE(eventually(
      [&] { return srv.stats().trace_scratch_in_use == 0; }))
      << srv.stats_json();
  srv.stop();
}

// ---- shutdown --------------------------------------------------------------

TEST(Guard, StopDrainIsDeadlineBounded) {
  ServerOptions o = small_opts(/*workers=*/1);
  o.guard.drain_deadline_ms = 200;
  o.guard.scan_chunk_keys = 0;
  o.guard.max_conn_pending = 0;   // let the backlog build; stop() drains it
  o.guard.max_wave_bytes = 64 << 20;
  Server srv(o);
  srv.start();
  {
    Client w(srv.port());
    for (KeyT k = 0; k < 4000; ++k) w.insert(k, k);
  }
  // A reader that never reads, with a deep response backlog pending.
  Client slow(srv.port());
  std::vector<uint8_t> reqs;
  for (int i = 0; i < 400; ++i) encode_range(reqs, 0, 4000);
  try {
    slow.write_all(reqs.data(), reqs.size());
  } catch (const NetError&) {
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t t0 = steady_ms();
  srv.stop();
  const uint64_t took = steady_ms() - t0;
  EXPECT_LT(took, 5'000u) << "stop() must be deadline-bounded";
  // The undelivered backlog is observable, not silent.
  EXPECT_GE(srv.stats().stop_dropped, 1u);
}

}  // namespace
