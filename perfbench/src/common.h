#pragma once
// Shared pieces of bref-bench: the seeded input generator, the latency
// recorder, the answer checker, clocks and the metric sink.
//
// Inputs. The keyspace is [0, kKeys). Every odd key is prefilled with
// value == key and is never updated; INSERT and REMOVE touch only even
// keys and always write value == key. A seeded half of the even keys is
// prefilled too: uniform inserts and removes keep the even keys half
// present, so starting there keeps the structure's size (3/4 of the
// keyspace) flat through a run instead of growing from 1/2 toward 3/4
// while it is measured. That makes every answer checkable
// without a model: an odd GET must hit, any hit must carry value == key,
// and every RANGE/SCAN reply must hold every odd key of its interval
// (snapshot completeness), ascending, in bounds, with value == key.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "api/set_interface.h"
#include "api/types.h"

namespace perfbench {

using bref::KeyT;
using bref::ValT;

inline constexpr KeyT kKeys = KeyT{1} << 20;  // the server's default key_hi
inline constexpr size_t kShards = 4;          // the server's default shards
inline constexpr KeyT kShardWidth = kKeys / static_cast<KeyT>(kShards);
inline constexpr KeyT kRangeKeys = 50;     // RANGE-50
inline constexpr KeyT kScanKeys = 16384;  // 4 slices of scan_chunk_keys

inline uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
inline uint64_t cpu_ns(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
inline uint64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }
inline uint64_t process_cpu_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }

/// Peak resident set of this process, in MB (getrusage's high-water mark).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// splitmix64: the benchmark's own generator, so its inputs depend only on
/// the seed and never on a library RNG a later change might alter.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t s_;
};

/// Derive an independent stream for one purpose of one run.
inline uint64_t stream_seed(uint64_t seed, uint64_t purpose) {
  return Rng(seed * 0x100000001b3ull + purpose).next();
}

/// Every odd key and a seeded half of the even keys, in a seeded order.
inline std::vector<KeyT> prefill_order(uint64_t seed) {
  Rng rng(stream_seed(seed, 1));
  std::vector<KeyT> keys;
  keys.reserve(static_cast<size_t>(kKeys / 4 * 3));
  for (KeyT k = 1; k < kKeys; k += 2) keys.push_back(k);
  for (KeyT k = 0; k < kKeys; k += 2)
    if (rng.below(2) == 0) keys.push_back(k);
  for (size_t i = keys.size() - 1; i > 0; --i)
    std::swap(keys[i], keys[rng.below(i + 1)]);
  return keys;
}

// -- workload ops ------------------------------------------------------------

enum class Kind : uint8_t { kGet, kInsert, kRemove, kRange, kScan };

struct Request {
  Kind kind = Kind::kGet;
  KeyT lo = 0;  // the key for point ops
  KeyT hi = 0;
};

/// An op mix in parts per thousand.
struct Mix {
  unsigned get, insert, remove, range, scan;
};

class OpGen {
 public:
  OpGen(const Mix& mix, uint64_t seed) : mix_(mix), rng_(seed) {}

  Request next() {
    const unsigned r = static_cast<unsigned>(rng_.below(1000));
    unsigned edge = mix_.get;
    if (r < edge) return {Kind::kGet, any_key(), 0};
    if (r < (edge += mix_.insert)) return {Kind::kInsert, even_key(), 0};
    if (r < (edge += mix_.remove)) return {Kind::kRemove, even_key(), 0};
    if (r < (edge += mix_.range)) {
      const KeyT lo = static_cast<KeyT>(rng_.below(kKeys - kRangeKeys + 1));
      return {Kind::kRange, lo, lo + kRangeKeys - 1};
    }
    return scan();
  }

 private:
  KeyT any_key() { return static_cast<KeyT>(rng_.below(kKeys)); }
  KeyT even_key() { return 2 * static_cast<KeyT>(rng_.below(kKeys / 2)); }

  /// Half the scans straddle a shard boundary (a coordinated multi-shard
  /// snapshot); the other half stay inside one shard.
  Request scan() {
    KeyT lo;
    if (rng_.below(2) == 0) {
      const KeyT boundary =
          kShardWidth * static_cast<KeyT>(1 + rng_.below(kShards - 1));
      lo = boundary - 1 - static_cast<KeyT>(rng_.below(kScanKeys - 1));
    } else {
      const KeyT shard = static_cast<KeyT>(rng_.below(kShards));
      lo = shard * kShardWidth +
           static_cast<KeyT>(rng_.below(kShardWidth - kScanKeys + 1));
    }
    return {Kind::kScan, lo, lo + kScanKeys - 1};
  }

  Mix mix_;
  Rng rng_;
};

// -- answer checks -----------------------------------------------------------

/// Counts answer-check violations and prints the first few.
class Checker {
 public:
  bool get(KeyT key, bool found, ValT val) {
    if (found ? val == key : (key & 1) == 0) return true;
    return fail("GET %lld: found=%d val=%lld", static_cast<long long>(key),
                found ? 1 : 0, static_cast<long long>(val));
  }

  /// Ascending, inside [lo, hi], value == key, and every odd key present.
  bool range(KeyT lo, KeyT hi,
             const std::vector<std::pair<KeyT, ValT>>& items) {
    KeyT prev = lo - 1;
    KeyT odd = 0;
    for (const auto& [k, v] : items) {
      if (k <= prev || k > hi || v != k)
        return fail("RANGE [%lld,%lld]: bad item (%lld,%lld) after %lld",
                    static_cast<long long>(lo), static_cast<long long>(hi),
                    static_cast<long long>(k), static_cast<long long>(v),
                    static_cast<long long>(prev));
      odd += k & 1;
      prev = k;
    }
    const KeyT want = (hi + 1) / 2 - lo / 2;  // odd keys in [lo, hi], lo >= 0
    if (odd == want) return true;
    return fail("RANGE [%lld,%lld]: %lld of %lld odd keys",
                static_cast<long long>(lo), static_cast<long long>(hi),
                static_cast<long long>(odd), static_cast<long long>(want));
  }

  /// Quiescent end-of-workload audit: structural invariants plus every odd
  /// key still present with value == key.
  bool final_state(const bref::AnyOrderedSet& set) {
    if (!set.check_invariants()) return fail("check_invariants() failed");
    const auto all = set.to_vector();
    KeyT odd = 0;
    for (const auto& [k, v] : all) {
      if (v != k) return fail("final state: key %lld has value %lld",
                              static_cast<long long>(k),
                              static_cast<long long>(v));
      odd += k & 1;
    }
    if (odd == kKeys / 2) return true;
    return fail("final state: %lld of %lld odd keys",
                static_cast<long long>(odd),
                static_cast<long long>(kKeys / 2));
  }

  bool fail(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  uint64_t failures() const { return failures_; }

 private:
  uint64_t failures_ = 0;
};

inline bool Checker::fail(const char* fmt, ...) {
  if (failures_++ < 5) {
    std::fprintf(stderr, "[perfbench] answer check failed: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
  }
  return false;
}

// -- latency recorder --------------------------------------------------------

/// Log-linear latency histogram over nanoseconds: exact below 2048 ns,
/// buckets 1/1024 wide (relative) above. obs::Histogram's log2 buckets
/// would put a p99 anywhere inside a 2x-wide bucket; here a percentile is
/// within 0.1% of the raw sample, at a fixed 104 KB per recorder however
/// many samples a run takes. Values past ~34 s (and failed ops, recorded
/// as the maximum) land in the top bucket.
class LatencyHist {
 public:
  LatencyHist() : counts_(kBuckets, 0) {}

  void record(uint64_t ns) {
    ++counts_[index(ns)];
    ++count_;
  }
  uint64_t count() const { return count_; }

  LatencyHist& operator+=(const LatencyHist& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    return *this;
  }

  /// Nearest-rank percentile in ns, interpolated inside its bucket so
  /// equal-looking runs still differ in their low digits. 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (seen + counts_[i] >= rank) {
        const double frac = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(counts_[i]);
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      seen += counts_[i];
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static constexpr int kSub = 10;
  static constexpr uint64_t kExact = uint64_t{2} << kSub;  // 2048
  static constexpr int kMaxShift = 24;                     // 2^35 ns
  static constexpr size_t kBuckets =
      kExact + static_cast<size_t>(kMaxShift) * (uint64_t{1} << kSub);

  static size_t index(uint64_t v) {
    if (v < kExact) return static_cast<size_t>(v);
    int shift = std::bit_width(v) - (kSub + 1);
    if (shift > kMaxShift) {
      shift = kMaxShift;
      v = (kExact << kMaxShift) - 1;
    }
    const uint64_t mant = v >> shift;  // in [2^kSub, 2^(kSub+1))
    return static_cast<size_t>(kExact +
                               static_cast<uint64_t>(shift - 1) * (1u << kSub) +
                               (mant - (uint64_t{1} << kSub)));
  }
  static uint64_t lower(size_t i) {
    if (i < kExact) return i;
    const uint64_t j = i - kExact;
    const int shift = static_cast<int>(j >> kSub) + 1;
    const uint64_t mant = (j & ((1u << kSub) - 1)) + (uint64_t{1} << kSub);
    return mant << shift;
  }
  static uint64_t width(size_t i) {
    return i < kExact ? 1 : uint64_t{1} << (((i - kExact) >> kSub) + 1);
  }

  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Completions per one-second window of a phase. The traced run times its
/// layers in odd windows only; odd against even windows give the tracing
/// overhead. Every reported rate and latency is over the whole phase.
class Windows {
 public:
  static constexpr uint64_t kWidthNs = 1'000'000'000;

  explicit Windows(uint64_t t0 = 0) : t0_(t0) {}
  void restart(uint64_t t0) {
    t0_ = t0;
    done_.clear();
  }

  /// An op that completed at `at`.
  void record(uint64_t at) {
    const size_t i = at > t0_ ? static_cast<size_t>((at - t0_) / kWidthNs) : 0;
    if (i >= done_.size()) done_.resize(i + 1);
    ++done_[i];
  }
  Windows& operator+=(const Windows& o) {
    if (done_.size() < o.done_.size()) done_.resize(o.done_.size());
    for (size_t i = 0; i < o.done_.size(); ++i) done_[i] += o.done_[i];
    return *this;
  }

  /// Median of completions per second over every `step`-th window of
  /// [begin, end) (pass only whole windows: a phase's last, partial one
  /// would read low).
  double median_rate(size_t begin, size_t end, size_t step = 1) const {
    std::vector<double> v;
    for (size_t i = begin; i < std::min(end, done_.size()); i += step)
      v.push_back(static_cast<double>(done_[i]) * 1e9 / kWidthNs);
    return median(v);
  }

 private:
  uint64_t t0_;
  std::vector<uint64_t> done_;
};

// -- metric sink -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool layer;  // per-layer (traced run) rather than end-to-end
};

/// The metrics of one run, in report order, echoed as human-readable lines.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// An end-to-end metric; `note` is printed beside it (sample count,
  /// phase) in the human-readable report.
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, false});
    line(name, value, unit, note);
  }
  /// A per-layer metric (reported by the traced run).
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
    metrics_.push_back({name, value, unit, true});
    line(name, value, unit, note);
  }
  /// A human-readable line only.
  void line(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") const {
    std::printf("[%s] %-30s %14.4f %-6s %s\n", workload_.c_str(), name.c_str(),
                value, unit.c_str(), note.c_str());
  }
  void na(const std::string& name, const std::string& why) const {
    std::printf("[%s] %-30s %14s %-6s %s\n", workload_.c_str(), name.c_str(),
                "n/a", "", why.c_str());
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::string workload_;
  std::vector<Metric> metrics_;
};

inline std::string count_note(uint64_t n, const char* what = "n") {
  return std::string(what) + "=" + std::to_string(n);
}

inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

}  // namespace perfbench
