#pragma once
// The layer ladder (traced run only): one seeded GET / INSERT / RANGE-50
// stream replayed at each layer's public entry point, outside in:
//
//   typed    TypedSession<BundleSkipListSet>   ds/, core/, epoch/
//   facade   Set::create("Bundle-skiplist")    + api/ (virtual dispatch)
//   sharded  ShardedSet over Bundle-skiplist   + shard/ (routing, arenas,
//            with the server's partition        coordinated announce)
//   wire     net::Client -> in-process Server  + net/ (codec, syscalls,
//                                                worker loop), loopback
//
// Each rung is prefilled like the workloads (every odd key and a seeded
// half of the even keys, in a seeded order) and runs without maintenance, so the rungs differ only by the layers
// they add. Each op kind is timed in blocks of calls; the result is ns per
// call (median of kLadderRounds blocks), and the delta to the rung below
// is what the added layers cost. Answers are checked like everywhere else.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "api/ordered_set.h"
#include "api/set.h"
#include "common.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

struct RungTimes {
  double get_ns = 0, insert_ns = 0, range_ns = 0;
};

/// net::Client under the session surface the other rungs use.
struct WireSession {
  bref::net::Client& c;
  std::optional<ValT> get(KeyT k) { return c.get(k); }
  bool insert(KeyT k, ValT v) { return c.insert(k, v); }
  size_t range_query(KeyT lo, KeyT hi, bref::RangeSnapshot& out) {
    return c.range(lo, hi, out);
  }
};

inline constexpr size_t kLadderGets = 20000;
inline constexpr size_t kLadderInserts = 20000;
inline constexpr size_t kLadderRanges = 5000;
inline constexpr size_t kLadderWarmup = 2000;
inline constexpr uint64_t kLadderRounds = 5;

template <typename Session>
RungTimes run_rung(Session& s, uint64_t seed, Checker& chk) {
  bref::RangeSnapshot snap;
  auto gets = [&](size_t n, uint64_t purpose) {
    Rng rng(stream_seed(seed, purpose));
    for (size_t i = 0; i < n; ++i) {
      const KeyT k = static_cast<KeyT>(rng.below(kKeys));
      const auto v = s.get(k);
      chk.get(k, v.has_value(), v.value_or(0));
    }
  };
  auto inserts = [&](size_t n, uint64_t purpose) {
    Rng rng(stream_seed(seed, purpose));
    for (size_t i = 0; i < n; ++i) {
      const KeyT k = 2 * static_cast<KeyT>(rng.below(kKeys / 2));
      s.insert(k, k);
    }
  };
  auto ranges = [&](size_t n, uint64_t purpose) {
    Rng rng(stream_seed(seed, purpose));
    for (size_t i = 0; i < n; ++i) {
      const KeyT lo = static_cast<KeyT>(rng.below(kKeys - kRangeKeys + 1));
      s.range_query(lo, lo + kRangeKeys - 1, snap);
      chk.range(lo, lo + kRangeKeys - 1, snap.items());
    }
  };
  // Median over rounds of per-call time: one descheduling or page-fault
  // burst spoils a round, not the rung.
  auto timed = [](auto&& block, size_t n, uint64_t purpose) {
    std::vector<double> per_call;
    for (uint64_t round = 0; round < kLadderRounds; ++round) {
      const uint64_t t0 = now_ns();
      block(n / kLadderRounds, purpose + 16 * round);
      per_call.push_back(static_cast<double>(now_ns() - t0) /
                         static_cast<double>(n / kLadderRounds));
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[kLadderRounds / 2];
  };
  gets(kLadderWarmup, 30);
  inserts(kLadderWarmup, 31);
  ranges(kLadderWarmup, 32);
  RungTimes r;
  r.get_ns = timed(gets, kLadderGets, 33);
  r.insert_ns = timed(inserts, kLadderInserts, 34);
  r.range_ns = timed(ranges, kLadderRanges, 35);
  return r;
}

inline void run_ladder(uint64_t seed, Report& rep, Checker& chk) {
  const std::vector<KeyT> order = prefill_order(seed);
  const bref::SetOptions opt{.reclaim = true};
  RungTimes rung[4];
  {
    auto ds = std::make_unique<bref::BundleSkipListSet>(opt.relax_threshold,
                                                        opt.reclaim);
    bref::TypedSession<bref::BundleSkipListSet> s(*ds);
    for (KeyT k : order) s.insert(k, k);
    rung[0] = run_rung(s, seed, chk);
  }
  {
    bref::Set set = bref::Set::create("Bundle-skiplist", opt);
    prefill(set.impl(), order);
    bref::ThreadSession s = set.session();
    rung[1] = run_rung(s, seed, chk);
  }
  {
    bref::ShardOptions so;
    so.shards = kShards;
    so.key_lo = 0;
    so.key_hi = kKeys;
    so.inner = opt;
    ShardedSet set("Bundle-skiplist", so);
    prefill(set, order);
    bref::ThreadSession s(set);
    rung[2] = run_rung(s, seed, chk);
  }
  {
    bref::net::ServerOptions so;
    so.maintenance = false;
    bref::net::Server srv(so);
    srv.start();
    prefill(srv.set(), order);
    bref::net::Client c(srv.port());
    WireSession s{c};
    rung[3] = run_rung(s, seed, chk);
  }
  static const char* const kRung[4] = {"typed", "facade", "sharded", "wire"};
  for (int i = 0; i < 4; ++i) {
    const std::string p = std::string("ladder.") + kRung[i] + ".";
    rep.layer(p + "get_ns", rung[i].get_ns, "ns", count_note(kLadderGets));
    rep.layer(p + "insert_ns", rung[i].insert_ns, "ns",
              count_note(kLadderInserts));
    rep.layer(p + "range50_ns", rung[i].range_ns, "ns",
              count_note(kLadderRanges));
    if (i == 0) continue;
    const std::string below = std::string("minus ") + kRung[i - 1];
    rep.layer(p + "get_delta_ns", rung[i].get_ns - rung[i - 1].get_ns, "ns",
              below);
    rep.layer(p + "insert_delta_ns", rung[i].insert_ns - rung[i - 1].insert_ns,
              "ns", below);
    rep.layer(p + "range50_delta_ns", rung[i].range_ns - rung[i - 1].range_ns,
              "ns", below);
  }
}

}  // namespace perfbench
