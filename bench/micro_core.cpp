// Micro-benchmarks (google-benchmark) for the building blocks: global
// timestamp, bundle operations at varying history depth, EBR pin/unpin,
// DCSS vs CAS, RLU and RCU read-side sections, RQ announce protocol.
// These quantify the per-operation costs the paper's design arguments rely
// on (e.g. "contains is uninstrumented", "updates pay one FAA + bundle
// prepend", "EBR-RQ-LF pays a DCSS per stamp").

#include <benchmark/benchmark.h>

#include "common/dcss.h"
#include "core/bundle.h"
#include "core/entry_pool.h"
#include "core/global_timestamp.h"
#include "core/rq_tracker.h"
#include "epoch/ebr.h"
#include "rcu/urcu.h"
#include "rlu/rlu.h"

namespace {

using namespace bref;

struct FakeNode {
  int id;
};

void BM_GlobalTs_Read(benchmark::State& state) {
  GlobalTimestamp gts;
  for (auto _ : state) benchmark::DoNotOptimize(gts.read());
}
BENCHMARK(BM_GlobalTs_Read);

void BM_GlobalTs_Advance(benchmark::State& state) {
  static GlobalTimestamp gts;  // shared across benchmark threads
  for (auto _ : state) benchmark::DoNotOptimize(gts.advance());
}
BENCHMARK(BM_GlobalTs_Advance)->Threads(1)->Threads(2)->Threads(4);

void BM_GlobalTs_RelaxedUpdateTs(benchmark::State& state) {
  GlobalTimestamp gts(50);
  for (auto _ : state) benchmark::DoNotOptimize(gts.update_ts(0));
}
BENCHMARK(BM_GlobalTs_RelaxedUpdateTs);

void BM_Bundle_PrepareFinalize(benchmark::State& state) {
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  timestamp_t ts = 0;
  for (auto _ : state) {
    auto e = b.prepare(0, &n);
    Bundle<FakeNode>::finalize(e, ++ts);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Bundle_PrepareFinalize);

void BM_Bundle_DereferenceDepth(benchmark::State& state) {
  // Dereference cost as a function of how deep the satisfying entry sits —
  // the paper's minimality argument: a pruned bundle answers at depth 1.
  const int depth = static_cast<int>(state.range(0));
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  for (int i = 1; i <= depth; ++i)
    Bundle<FakeNode>::finalize(b.prepare(0, &n), 100 + i);
  for (auto _ : state) benchmark::DoNotOptimize(b.dereference(100));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Bundle_DereferenceDepth)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The full steady-state update hot path — prepare, finalize, periodic
// prune, EBR-driven recycle — with the entry pool on vs ablated to
// new/delete. Each thread churns its own bundle (the allocator, not bundle
// contention, is what's under test); the pooled path should hold its
// throughput as threads grow while the malloc path pays the allocator on
// every entry.
void pool_on(const benchmark::State&) {
  EntryPoolRegistry::instance().set_pooling_enabled(true);
}
void pool_off(const benchmark::State&) {
  EntryPoolRegistry::instance().set_pooling_enabled(false);
}

void update_hot_path(benchmark::State& state) {
  static Ebr ebr;
  const int tid = state.thread_index();
  Bundle<FakeNode> b;
  FakeNode n{0};
  b.init(&n, 0);
  timestamp_t ts = 0;
  for (auto _ : state) {
    ebr.pin(tid);
    auto e = b.prepare(tid, &n);
    Bundle<FakeNode>::finalize(e, ++ts);
    // Bounded history, as under the background cleaner: prune everything a
    // ts-8 snapshot no longer needs, letting EBR recycle it to the pool.
    if ((ts & 15) == 0) b.reclaim_older(ts - 8, ebr, tid);
    ebr.unpin(tid);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Bundle_UpdateHotPath_Pooled(benchmark::State& state) {
  update_hot_path(state);
}
BENCHMARK(BM_Bundle_UpdateHotPath_Pooled)
    ->Setup(pool_on)
    ->Threads(1)
    ->Threads(8);

void BM_Bundle_UpdateHotPath_Malloc(benchmark::State& state) {
  update_hot_path(state);
}
BENCHMARK(BM_Bundle_UpdateHotPath_Malloc)
    ->Setup(pool_off)
    ->Teardown(pool_on)
    ->Threads(1)
    ->Threads(8);

void BM_Ebr_PinUnpin(benchmark::State& state) {
  static Ebr ebr;
  const int tid = state.thread_index();
  for (auto _ : state) {
    ebr.pin(tid);
    ebr.unpin(tid);
  }
}
BENCHMARK(BM_Ebr_PinUnpin)->Threads(1)->Threads(2)->Threads(4);

void BM_Dcss_Uncontended(benchmark::State& state) {
  DcssProvider d;
  std::atomic<uint64_t> a1{1}, a2{0};
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.dcss(0, a1, 1, a2, v, v + 1));
    ++v;
  }
}
BENCHMARK(BM_Dcss_Uncontended);

void BM_Cas_Baseline(benchmark::State& state) {
  std::atomic<uint64_t> a{0};
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare_exchange_strong(v, v + 1));
    v = a.load(std::memory_order_relaxed);
  }
}
BENCHMARK(BM_Cas_Baseline);

void BM_Urcu_ReadSection(benchmark::State& state) {
  static Urcu rcu;
  const int tid = state.thread_index();
  for (auto _ : state) {
    rcu.read_lock(tid);
    rcu.read_unlock(tid);
  }
}
BENCHMARK(BM_Urcu_ReadSection)->Threads(1)->Threads(2);

void BM_Rlu_ReadSession(benchmark::State& state) {
  static Rlu rlu;
  const int tid = state.thread_index();
  for (auto _ : state) {
    Rlu::Session s(rlu, tid);
    s.unlock();
  }
}
BENCHMARK(BM_Rlu_ReadSession)->Threads(1)->Threads(2);

void BM_RqTracker_BeginEnd(benchmark::State& state) {
  static GlobalTimestamp gts;
  static RqTracker rq;
  const int tid = state.thread_index();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rq.begin(tid, gts));
    rq.end(tid);
  }
}
BENCHMARK(BM_RqTracker_BeginEnd)->Threads(1)->Threads(2);

}  // namespace

BENCHMARK_MAIN();
