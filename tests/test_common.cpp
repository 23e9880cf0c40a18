// Unit tests for src/common: padding, locks, RNGs, registry, DCSS.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/cacheline.h"
#include "common/dcss.h"
#include "common/random.h"
#include "common/rwlock.h"
#include "common/spinlock.h"
#include "common/thread_registry.h"
#include "test_util.h"

#include <mutex>

namespace bref {
namespace {

// ---------- CachePadded ----------

TEST(CachePadded, AlignmentAndSize) {
  EXPECT_EQ(alignof(CachePadded<int>), kCacheLine);
  EXPECT_GE(sizeof(CachePadded<int>), kCacheLine);
  EXPECT_EQ(sizeof(CachePadded<char[200]>) % kCacheLine, 0u);
  CachePadded<int> arr[4];
  for (int i = 0; i < 3; ++i) {
    auto a = reinterpret_cast<uintptr_t>(&arr[i]);
    auto b = reinterpret_cast<uintptr_t>(&arr[i + 1]);
    EXPECT_GE(b - a, kCacheLine);
  }
}

TEST(CachePadded, AccessOperators) {
  CachePadded<int> p(41);
  EXPECT_EQ(*p, 41);
  *p += 1;
  EXPECT_EQ(p.value, 42);
}

// ---------- Spinlock ----------

TEST(Spinlock, MutualExclusion) {
  Spinlock lock;
  int counter = 0;
  constexpr int kIters = 20000;
  testutil::run_threads(4, [&](int) {
    for (int i = 0; i < kIters; ++i) {
      lock.lock();
      ++counter;
      lock.unlock();
    }
  });
  EXPECT_EQ(counter, 4 * kIters);
}

TEST(Spinlock, TryLock) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// ---------- RWSpinlock ----------

TEST(RWSpinlock, ReadersShareWriterExcludes) {
  RWSpinlock lock;
  std::atomic<int> readers_inside{0};
  std::atomic<int> max_readers{0};
  std::atomic<long> shared_value{0};
  std::atomic<bool> writer_inside{false};
  std::atomic<bool> violation{false};
  testutil::run_threads(4, [&](int tid) {
    for (int i = 0; i < 5000; ++i) {
      if (tid == 0) {
        lock.lock();
        if (readers_inside.load() != 0) violation = true;
        writer_inside = true;
        shared_value.fetch_add(1);
        writer_inside = false;
        lock.unlock();
      } else {
        lock.lock_shared();
        int r = readers_inside.fetch_add(1) + 1;
        int m = max_readers.load();
        while (r > m && !max_readers.compare_exchange_weak(m, r)) {
        }
        if (writer_inside.load()) violation = true;
        readers_inside.fetch_sub(1);
        lock.unlock_shared();
      }
    }
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(shared_value.load(), 5000);
  EXPECT_GE(max_readers.load(), 1);
}

// ---------- Xoshiro256 ----------

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123), c(124);
  bool all_equal_ac = true;
  for (int i = 0; i < 64; ++i) {
    uint64_t x = a.next_u64();
    EXPECT_EQ(x, b.next_u64());
    if (x != c.next_u64()) all_equal_ac = false;
  }
  EXPECT_FALSE(all_equal_ac);
}

TEST(Xoshiro, RangeBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_range(17), 17u);
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, RangeIsRoughlyUniform) {
  Xoshiro256 rng(99);
  constexpr int kBuckets = 10, kSamples = 100000;
  int hist[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) hist[rng.next_range(kBuckets)]++;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_GT(hist[b], kSamples / kBuckets / 2);
    EXPECT_LT(hist[b], kSamples / kBuckets * 2);
  }
}

// ---------- ZipfGenerator ----------

TEST(Zipf, BoundsAndSkew) {
  ZipfGenerator z(1000, 0.99, 5);
  int first = 0;
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = z.next();
    ASSERT_LT(v, 1000u);
    if (v == 0) ++first;
  }
  // Item 0 should be far hotter than uniform (50 expected under uniform).
  EXPECT_GT(first, 1000);
}

// ---------- ThreadRegistry / TidHwm ----------

TEST(ThreadRegistry, DenseUniqueIds) {
  ThreadRegistry reg;
  std::set<int> ids;
  std::mutex mu;
  testutil::run_threads(8, [&](int) {
    int id = reg.acquire();
    std::lock_guard<std::mutex> g(mu);
    ids.insert(id);
  });
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), 7);
}

TEST(ThreadRegistry, ReleaseRecyclesIds) {
  ThreadRegistry reg;
  const int a = reg.acquire();
  const int b = reg.acquire();
  EXPECT_EQ(reg.in_use(), 2);
  reg.release(a);
  EXPECT_EQ(reg.in_use(), 1);
  EXPECT_EQ(reg.acquire(), a);  // recycled, not a fresh slot
  reg.release(a);
  reg.release(b);
  EXPECT_EQ(reg.in_use(), 0);
}

TEST(TidHwm, TracksMaximum) {
  TidHwm h;
  EXPECT_EQ(h.get(), 0);
  h.note(3);
  EXPECT_EQ(h.get(), 4);
  h.note(1);
  EXPECT_EQ(h.get(), 4);
  h.note(10);
  EXPECT_EQ(h.get(), 11);
}

// ---------- DCSS ----------

TEST(Dcss, SucceedsWhenBothMatch) {
  DcssProvider d;
  std::atomic<uint64_t> a1{5}, a2{10};
  EXPECT_TRUE(d.dcss(0, a1, 5, a2, 10, 11));
  EXPECT_EQ(d.read(a2), 11u);
}

TEST(Dcss, FailsOnControlMismatch) {
  DcssProvider d;
  std::atomic<uint64_t> a1{5}, a2{10};
  EXPECT_FALSE(d.dcss(0, a1, 6, a2, 10, 11));
  EXPECT_EQ(d.read(a2), 10u);
}

TEST(Dcss, FailsOnDataMismatch) {
  DcssProvider d;
  std::atomic<uint64_t> a1{5}, a2{10};
  EXPECT_FALSE(d.dcss(0, a1, 5, a2, 9, 11));
  EXPECT_EQ(d.read(a2), 10u);
}

TEST(Dcss, SequentialReuse) {
  DcssProvider d;
  std::atomic<uint64_t> a1{0}, a2{0};
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(d.dcss(0, a1, 0, a2, i, i + 1));
  }
  EXPECT_EQ(d.read(a2), 1000u);
}

// Stress: counters advance only when the control word has the agreed value;
// a control-flipper thread forces retries and helping.
TEST(Dcss, ConcurrentStress) {
  DcssProvider d;
  std::atomic<uint64_t> control{0};
  std::atomic<uint64_t> data{0};
  constexpr int kThreads = 4;
  constexpr uint64_t kIncs = 4000;
  std::atomic<uint64_t> successes{0};
  testutil::run_threads(kThreads, [&](int tid) {
    Xoshiro256 rng(tid + 1);
    for (uint64_t i = 0; i < kIncs; ++i) {
      if (tid == 0 && i % 8 == 0) {
        control.fetch_add(1, std::memory_order_seq_cst);
        continue;
      }
      for (;;) {
        uint64_t c = control.load();
        uint64_t v = d.read(data);
        if (d.dcss(tid, control, c, data, v, v + 1)) {
          successes.fetch_add(1);
          break;
        }
      }
    }
  });
  EXPECT_EQ(d.read(data), successes.load());
}

// ---------- Backoff ----------

TEST(Backoff, PausesWithoutHanging) {
  Backoff bo(2, 16);
  for (int i = 0; i < 12; ++i) bo.pause();
  bo.reset();
  bo.pause();
  SUCCEED();
}

std::vector<uint32_t> sixteen_delays(JitteredBackoff& bo) {
  std::vector<uint32_t> d;
  for (int i = 0; i < 16; ++i) d.push_back(bo.next_ms());
  return d;
}

TEST(JitteredBackoff, UnseededBackoffsDrawTheirOwnDelays) {
  // Two retriers built back to back must not sleep in step.
  JitteredBackoff a;
  JitteredBackoff b;
  EXPECT_NE(sixteen_delays(a), sixteen_delays(b));
}

TEST(JitteredBackoff, ExplicitSeedReplaysExactly) {
  JitteredBackoff a(42);
  JitteredBackoff b(42);
  const std::vector<uint32_t> first = sixteen_delays(a);
  EXPECT_EQ(first, sixteen_delays(b));
  // Full jitter: delay i is uniform in [0, min(cap, base << i)].
  for (size_t i = 0; i < first.size(); ++i)
    EXPECT_LE(first[i], std::min<uint32_t>(128, 1u << i)) << "delay " << i;
}

}  // namespace
}  // namespace bref
