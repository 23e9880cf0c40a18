#pragma once
// bref::ShardedSet — range-partitioned shards with single-timestamp
// cross-shard linearizable range queries.
//
// The bundled-references insight — fix ONE global timestamp, then traverse
// every bundle at it — is not tied to a single structure. Any number of
// instances whose updates are ordered by the SAME seq_cst clock can serve
// one coordinated range query that is linearizable at a single instant:
//
//   1. announce PENDING in every overlapping shard's RqTracker;
//   2. read the shared clock ONCE — this value T is the linearization
//      instant, and the read is the query's linearization point;
//   3. publish T in every tracker, then collect each shard's range at T
//      via its bundle walk (range_query_at).
//
// ShardedSet::Snapshot is the one implementation of these steps: inline
// cross-shard queries collect it in one call, the server's chunked scans
// one slice per epoll wave.
//
// Why one fetch-free clock read linearizes K shards: every update in every
// shard increments the one shared counter at its linearization point
// (GlobalTimestamp::share_with redirects each shard's clock onto the
// coordinator's), so "state at clock value T" is a well-defined global
// instant. Each shard's bundle traversal at T returns exactly that shard's
// state at T (the paper's single-structure guarantee, whose seq_cst
// clock-ordering argument only needs the counter to be shared); the
// concatenation is therefore the whole set's state at T. Per-shard cleaner
// safety is begin()'s argument, run per tracker: a cleaner pass that
// missed our PENDING announce read its prune bound from the clock before
// we read T, so it pruned only entries no query at >= T can need.
//
// When the inner technique cannot coordinate (no shareable clock / no
// fixed-timestamp collection — anything without the coordinated_rq
// capability), multi-shard queries degrade gracefully to a per-shard merge:
// each shard's own linearizable snapshot, concatenated. That result is NOT
// a single-instant snapshot, so it carries no timestamp and the sharded
// set does not advertise linearizable_rq / rq_timestamp / coordinated_rq.
// A one-shard set never merges: it answers, stamps and advertises exactly
// as its inner set does (the server's unsharded configuration).
//
// Point operations route to the owning shard (single-shard fast path), as
// do range queries whose bounds fall inside one shard — those delegate the
// whole query, snapshot stamp included (coordinated family only; fallback
// families' per-shard clocks are not mutually comparable, so their stamps
// are stripped to match the advertised capability).
//
// ShardedSet implements AnyOrderedSet, so it sits behind the bref::Set
// facade, RAII sessions and SessionPool unchanged; builtin_shards.h
// registers the coordinated Sharded-Bundle-* configurations in the
// ImplRegistry. Background work (bundle pruning, limbo drain, epoch
// pushes) is owned by the per-shard MaintenanceService in maintenance.h.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/session.h"
#include "api/set_interface.h"
#include "common/cacheline.h"
#include "common/numa.h"
#include "common/thread_registry.h"
#include "core/entry_pool.h"
#include "core/global_timestamp.h"
#include "core/rq_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bref {

/// Construction options for a ShardedSet. The keyspace [key_lo, key_hi] is
/// split into `shards` uniform ranges; the first and last shard absorb
/// anything outside the bounds, so routing is total over KeyT.
struct ShardOptions {
  size_t shards = 4;
  KeyT key_lo = std::numeric_limits<KeyT>::min();
  KeyT key_hi = std::numeric_limits<KeyT>::max();
  /// Forwarded to every inner set (validated against the inner
  /// implementation's capabilities by the registry).
  SetOptions inner;
};

/// Range-query routing counters, as returned by ShardedSet::stats().
/// Safe to read concurrently with operations (the per-thread slots are
/// relaxed atomics); the aggregate is approximate under concurrency.
struct ShardedSetStats {
  uint64_t single_shard_rqs = 0;   // delegated whole to one shard
  uint64_t coordinated_rqs = 0;    // one shared timestamp: Snapshots
  uint64_t fallback_rqs = 0;       // multi-shard, per-shard merge
  uint64_t timestamps_acquired = 0;  // shared-clock reads by coordinated RQs
  /// Epoch pins + PENDING announces taken by inline coordinated RQs —
  /// exactly the shards each query's span overlaps, never all of them. The
  /// elision invariant is `coordinated_shards_pinned <= coordinated_rqs *
  /// nshards` with equality only for whole-keyspace scans; single-shard
  /// queries contribute ZERO (they devolve to the unsharded fast path).
  /// Sliced Snapshots (the server's chunked scans) count in
  /// coordinated_rqs and timestamps_acquired but add nothing here.
  uint64_t coordinated_shards_pinned = 0;

  ShardedSetStats& operator+=(const ShardedSetStats& o) {
    single_shard_rqs += o.single_shard_rqs;
    coordinated_rqs += o.coordinated_rqs;
    fallback_rqs += o.fallback_rqs;
    timestamps_acquired += o.timestamps_acquired;
    coordinated_shards_pinned += o.coordinated_shards_pinned;
    return *this;
  }
};

/// Cross-instance routing counters (obs, shard layer), summed over live
/// ShardedSets. Registered as counter-kind callbacks: the per-thread
/// StatSlots stay the source of truth, obs only reads stats().
inline obs::GaugeSet& sharded_routing_counter(int which) {
  static auto* single = new obs::GaugeSet(
      obs::GaugeSet::Agg::kSum, "bref_shard_rqs_total",
      "Range queries by routing decision", "route=\"single\"",
      obs::MetricKind::kCounter);
  static auto* coord = new obs::GaugeSet(
      obs::GaugeSet::Agg::kSum, "bref_shard_rqs_total",
      "Range queries by routing decision", "route=\"coordinated\"",
      obs::MetricKind::kCounter);
  static auto* fallback = new obs::GaugeSet(
      obs::GaugeSet::Agg::kSum, "bref_shard_rqs_total",
      "Range queries by routing decision", "route=\"fallback\"",
      obs::MetricKind::kCounter);
  static auto* stamps = new obs::GaugeSet(
      obs::GaugeSet::Agg::kSum, "bref_shard_timestamps_acquired_total",
      "Shared-clock reads by coordinated cross-shard range queries", "",
      obs::MetricKind::kCounter);
  switch (which) {
    case 0: return *single;
    case 1: return *coord;
    case 2: return *fallback;
    default: return *stamps;
  }
}

class ShardedSet final : public AnyOrderedSet {
 public:
  /// Build `opt.shards` inner sets of the registry implementation
  /// `inner_name` (e.g. "Bundle-skiplist"). Throws what the registry
  /// throws for unknown names / unsupported inner options. When every
  /// shard is coordinated_rq-capable, their clocks are redirected onto
  /// this set's coordination clock and cross-shard queries run the
  /// single-timestamp protocol.
  explicit ShardedSet(const std::string& inner_name,
                      const ShardOptions& opt = {})
      : inner_name_(inner_name),
        nshards_(opt.shards == 0 ? 1 : opt.shards),
        lo_b_(biased(opt.key_lo)),
        width_(std::max<uint64_t>(
            (biased(opt.key_hi) - biased(opt.key_lo)) / nshards_, 1)) {
    ImplDescriptor desc;
    if (!ImplRegistry::instance().find(inner_name, &desc))
      throw std::invalid_argument("unknown ordered-set implementation: " +
                                  inner_name);
    inner_caps_ = desc.caps;
    shards_.reserve(nshards_);
    for (size_t i = 0; i < nshards_; ++i)
      shards_.push_back(ImplRegistry::instance().create(inner_name, opt.inner));
    coordinated_ = inner_caps_.coordinated_rq;
    trackers_.resize(nshards_, nullptr);
    if (coordinated_) {
      for (size_t i = 0; i < nshards_; ++i) {
        const bool adopted = shards_[i]->adopt_clock(gts_);
        trackers_[i] = shards_[i]->rq_tracker_hook();
        coordinated_ = coordinated_ && adopted && trackers_[i] != nullptr;
      }
    }
    pools_.reserve(nshards_);
    for (size_t i = 0; i < nshards_; ++i)
      pools_.emplace_back(std::make_unique<SessionPool>(*shards_[i]));
    // One entry-pool arena per shard index, find-or-create by name so
    // every ShardedSet in the process shares "shard<i>" (arenas, like the
    // pools underneath, are process-lifetime). On multi-node machines the
    // arenas round-robin the nodes so a shard's slabs stay on one socket.
    arena_ids_.resize(nshards_, 0);
    const int nodes = numa_node_count();
    for (size_t i = 0; i < nshards_; ++i)
      arena_ids_[i] = ArenaRegistry::instance().acquire(
          "shard" + std::to_string(i),
          nodes > 1 ? static_cast<int>(i % static_cast<size_t>(nodes)) : -1);
    obs_srcs_[0] = sharded_routing_counter(0).add(
        [this] { return static_cast<double>(stats().single_shard_rqs); });
    obs_srcs_[1] = sharded_routing_counter(1).add(
        [this] { return static_cast<double>(stats().coordinated_rqs); });
    obs_srcs_[2] = sharded_routing_counter(2).add(
        [this] { return static_cast<double>(stats().fallback_rqs); });
    obs_srcs_[3] = sharded_routing_counter(3).add(
        [this] { return static_cast<double>(stats().timestamps_acquired); });
  }

  // -- point operations: single-shard fast path ---------------------------
  // Updates run under the owning shard's arena scope, so every entry/node
  // they allocate comes from (and recycles to) that shard's slabs.
  // contains() allocates nothing and skips the scope.
  bool insert(int tid, KeyT key, ValT val) override {
    const size_t s = shard_index(key);
    ArenaScope arena(arena_ids_[s]);
    return shards_[s]->insert(tid, key, val);
  }
  bool remove(int tid, KeyT key) override {
    const size_t s = shard_index(key);
    ArenaScope arena(arena_ids_[s]);
    return shards_[s]->remove(tid, key);
  }
  bool contains(int tid, KeyT key, ValT* out) override {
    return shards_[shard_index(key)]->contains(tid, key, out);
  }

  // -- range queries ------------------------------------------------------
  size_t range_query(int tid, KeyT lo, KeyT hi,
                     std::vector<std::pair<KeyT, ValT>>& out) override {
    if (nshards_ == 1) return single_shard(tid, lo, hi, out);
    out.clear();
    if (lo > hi) return 0;
    const size_t a = shard_index(lo);
    const size_t b = shard_index(hi);
    if (a == b) {
      bump(stats_[tid]->single_shard_rqs);
      return shards_[a]->range_query(tid, lo, hi, out);
    }
    if (coordinated_) {
      coordinated_collect(tid, a, b, lo, hi, out);
    } else {
      fallback_collect(tid, a, b, lo, hi, out);
    }
    return out.size();
  }

  /// Snapshot form: a coordinated multi-shard result is stamped with the
  /// single shared timestamp it linearized at; a single-shard query
  /// delegates (stamp included only when this set advertises
  /// rq_timestamp); a fallback merge is never stamped.
  size_t range_query(int tid, KeyT lo, KeyT hi, RangeSnapshot& out) override {
    if (nshards_ == 1) return single_shard(tid, lo, hi, out);
    out.reset(lo, hi);
    if (lo > hi) {
      // Trivially empty: linearizes anywhere, so stamp "now" off the
      // shared clock when we have one.
      if (coordinated_) out.set_timestamp(gts_.read());
      return 0;
    }
    const size_t a = shard_index(lo);
    const size_t b = shard_index(hi);
    if (a == b) {
      bump(stats_[tid]->single_shard_rqs);
      const size_t n = shards_[a]->range_query(tid, lo, hi, out);
      // A non-coordinated family stamps from its per-shard clock; those
      // values are not comparable across shards, so honor the advertised
      // capability and strip them.
      if (!coordinated_) out.set_timestamp(RangeSnapshot::kNoTimestamp);
      return n;
    }
    if (coordinated_) {
      out.set_timestamp(coordinated_collect(tid, a, b, lo, hi, out.buffer()));
    } else {
      fallback_collect(tid, a, b, lo, hi, out.buffer());
    }
    return out.size();
  }

  // -- quiescent introspection --------------------------------------------
  std::vector<std::pair<KeyT, ValT>> to_vector() const override {
    std::vector<std::pair<KeyT, ValT>> v;
    for (const auto& s : shards_) {
      auto part = s->to_vector();
      v.insert(v.end(), part.begin(), part.end());
    }
    return v;
  }
  size_t size_slow() const override {
    size_t n = 0;
    for (const auto& s : shards_) n += s->size_slow();
    return n;
  }
  bool check_invariants() const override {
    for (size_t i = 0; i < nshards_; ++i) {
      if (!shards_[i]->check_invariants()) return false;
      // Partition discipline: every key a shard holds routes back to it.
      for (const auto& [k, v] : shards_[i]->to_vector())
        if (shard_index(k) != i) return false;
    }
    return true;
  }

  // -- identity / capabilities --------------------------------------------
  const char* technique() const override { return "Sharded"; }
  const char* structure() const override { return inner_name_.c_str(); }
  Capabilities capabilities() const override {
    Capabilities c;
    // A multi-shard merge without coordination is not a single-instant
    // snapshot, so every RQ-atomicity claim keys on coordinated_. One
    // shard never merges: it claims exactly what its inner set does.
    const bool one = nshards_ == 1;
    c.linearizable_rq = inner_caps_.linearizable_rq && (coordinated_ || one);
    c.relaxation = inner_caps_.relaxation;
    c.reclamation = inner_caps_.reclamation;
    c.rq_timestamp = one ? inner_caps_.rq_timestamp : coordinated_;
    c.coordinated_rq = coordinated_;
    return c;
  }

  // -- maintenance (see maintenance.h for the background service) ---------
  MaintenanceWork maintain(int tid) override {
    MaintenanceWork w;
    for (auto& s : shards_) w += s->maintain(tid);
    return w;
  }
  size_t maintenance_backlog() const override {
    size_t n = 0;
    for (const auto& s : shards_) n += s->maintenance_backlog();
    return n;
  }
  /// One signal fanned out to every shard's producers (for a single
  /// worker maintaining the whole sharded set; the per-shard service
  /// attaches one signal per maintenance_targets() entry instead).
  void set_maintenance_signal(MaintenanceSignal* s) override {
    for (auto& sh : shards_) sh->set_maintenance_signal(s);
  }
  /// Per-shard maintenance targets (MaintenanceService spawns one worker
  /// per entry).
  std::vector<AnyOrderedSet*> maintenance_targets() {
    std::vector<AnyOrderedSet*> t;
    t.reserve(nshards_);
    for (auto& s : shards_) t.push_back(s.get());
    return t;
  }

  // -- shard access -------------------------------------------------------
  size_t num_shards() const noexcept { return nshards_; }
  AnyOrderedSet& shard(size_t i) { return *shards_[i]; }
  const AnyOrderedSet& shard(size_t i) const { return *shards_[i]; }
  /// A SessionPool bound to shard `i`, for callers that drive one shard
  /// directly with pooled per-OS-thread ids — the partition-aware
  /// bulk-load pattern (one loader thread per shard, each inserting only
  /// keys with shard_index(k) == i; examples/sharded_store.cpp). Writing
  /// a key to the wrong shard breaks the routing invariant
  /// check_invariants() pins, so direct shard access must respect the
  /// partition.
  SessionPool& shard_pool(size_t i) { return *pools_[i]; }
  /// The entry-pool arena shard `i`'s updates allocate under (for callers
  /// driving shards directly — bulk loaders via shard_pool(i) should wrap
  /// their inserts in ArenaScope(shard_arena(i)) to keep the placement
  /// discipline the routed path gets automatically).
  int shard_arena(size_t i) const noexcept { return arena_ids_[i]; }

  /// The shard owning `key` (total over KeyT: out-of-bounds keys clamp to
  /// the first/last shard).
  size_t shard_index(KeyT key) const noexcept {
    const uint64_t b = biased(key);
    if (b <= lo_b_) return 0;
    const uint64_t idx = (b - lo_b_) / width_;
    return idx >= nshards_ ? nshards_ - 1 : static_cast<size_t>(idx);
  }

  /// True when cross-shard queries run the single-timestamp protocol.
  bool coordinated() const noexcept { return coordinated_; }

  /// A single-timestamp snapshot of [lo, hi] (requires coordinated() and
  /// lo <= hi): the protocol of the header comment, in its batched
  /// two-phase form, taken ONCE at construction and collected in as many
  /// slices as the caller likes. Inline cross-shard queries collect it in
  /// one call (coordinated_collect); the server's chunked scans collect
  /// one bounded slice per epoll wave (net/guard.h, DESIGN.md §8).
  ///
  /// Construction runs the announce phase over shards [a, b], overlapped
  /// across shards instead of sequential pin->announce per shard:
  ///   1a. every shard's epoch-pin announce store (rq_pin_prepare — one
  ///       store each, no validation loads);
  ///   1b. every tracker's PENDING store (announce_pending_all — one
  ///       cache-line write each, back-to-back, no interleaved loads);
  ///   1c. every pin's validation (rq_pin_confirm — the announce/advance
  ///       re-read loops, all the round-trip latency in one pass).
  /// Then the ONE clock read and one publish pass.
  ///
  /// Why reordering the per-shard steps preserves §6's argument
  /// (DESIGN.md §6): both safety properties are per shard and only
  /// require shard i's pin AND its PENDING announce to precede the clock
  /// read. A concurrent cleaner observes one slot, not the batch, so
  /// interleaving shard j's stores between shard i's prepare and confirm
  /// is indistinguishable from scheduler timing under a sequential loop.
  /// The pin is established when confirm returns — before the clock read
  /// — and no shared pointer is read between prepare and confirm.
  ///
  /// range_query_at is restart-free against the held announce + pin, so
  /// slicing the walk never re-reads the clock: the concatenated slices
  /// are the set's state at timestamp(), one linearization point. A
  /// shard's announce and pin are released as soon as the walk has passed
  /// it; the destructor releases whatever an abandoned snapshot holds.
  ///
  /// The pins are EBR pins on `tid`, and Ebr::pin/unpin is not reentrant
  /// per tid: the owner must run no other operation on this set under
  /// `tid` while the snapshot is alive (server workers dedicate a second
  /// session id to scans for exactly this reason).
  class Snapshot {
   public:
    Snapshot(ShardedSet& set, int tid, KeyT lo, KeyT hi)
        : set_(set),
          tid_(tid),
          next_(set.shard_index(lo)),
          last_(set.shard_index(hi)),
          pos_(lo),
          hi_(hi) {
      assert(set.coordinated_ && lo <= hi);
      // An active request trace (thread-local, parked by the net worker
      // before execute) gets the fan-out spans; untraced callers pay one
      // thread-local load and zero clock reads.
      obs::TraceScratch* const tr = obs::current_trace();
      const uint64_t pin_t0 = tr != nullptr ? obs::trace_now_ns() : 0;
      const size_t n = last_ - next_ + 1;
      for (size_t i = next_; i <= last_; ++i)
        set.shards_[i]->rq_pin_prepare(tid);
      RqTracker::announce_pending_all(tid, &set.trackers_[next_], n);
      for (size_t i = next_; i <= last_; ++i)
        set.shards_[i]->rq_pin_confirm(tid);
      ts_ = set.gts_.read();  // the ONE timestamp acquisition
      for (size_t i = next_; i <= last_; ++i)
        set.trackers_[i]->publish(tid, ts_);
      if (tr != nullptr)
        tr->stamp(obs::TraceStage::kShardPin, pin_t0, obs::trace_now_ns(), 0,
                  static_cast<uint16_t>(n));
      auto& st = *set.stats_[tid];
      bump(st.coordinated_rqs);
      bump(st.timestamps_acquired);
    }
    ~Snapshot() {
      while (next_ <= last_) release();
    }
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// Append the next slice of [lo, hi] — at most `max_keys` keys of key
    /// space, 0 = the rest of the range — to `out`. True once the whole
    /// range is collected; every shard is released by then.
    ///
    /// Trace spans: one kShardCollect per shard when the range is taken
    /// in one call; sliced collects coalesce into one growing span
    /// (aux16 = merged collects), since one span per shard per slice
    /// would exhaust kTraceMaxSpans on a long scan.
    bool collect(size_t max_keys, std::vector<std::pair<KeyT, ValT>>& out) {
      if (next_ > last_) return true;
      KeyT slice_hi = hi_;
      if (max_keys > 0 && biased(hi_) - biased(pos_) >= max_keys)
        slice_hi = unbias(biased(pos_) + max_keys - 1);
      obs::TraceScratch* const tr = obs::current_trace();
      for (;;) {
        const size_t i = next_;
        // Last key of [lo, hi] shard i holds (shard_index is monotone).
        const KeyT part_hi =
            i == last_ ? hi_ : unbias(set_.lo_b_ + (i + 1) * set_.width_ - 1);
        const KeyT to = part_hi < slice_hi ? part_hi : slice_hi;
        const uint64_t c0 = tr != nullptr ? obs::trace_now_ns() : 0;
        set_.shards_[i]->range_query_at(tid_, ts_, pos_, to, out);
        if (to == part_hi) release();
        if (tr != nullptr) {
          if (max_keys == 0)
            tr->stamp(obs::TraceStage::kShardCollect, c0, obs::trace_now_ns(),
                      static_cast<uint8_t>(i < 255 ? i : 255), 0);
          else
            tr->stamp_coalesce(obs::TraceStage::kShardCollect, c0,
                               obs::trace_now_ns());
        }
        if (to == hi_) return true;
        pos_ = to + 1;
        if (to == slice_hi) return false;
      }
    }

    /// The shared-clock value every collected slice is read at.
    timestamp_t timestamp() const noexcept { return ts_; }

   private:
    void release() noexcept {
      set_.trackers_[next_]->end(tid_);
      set_.shards_[next_]->rq_unpin(tid_);
      ++next_;
    }

    ShardedSet& set_;
    const int tid_;
    size_t next_;        // first shard still pinned and announced in
    const size_t last_;  // last shard [lo, hi] overlaps
    KeyT pos_;           // first key not yet collected
    const KeyT hi_;
    timestamp_t ts_ = 0;
  };

  ShardedSetStats stats() const {
    ShardedSetStats t;
    for (int i = 0; i < kMaxThreads; ++i) {
      const StatSlot& s = *stats_[i];
      t.single_shard_rqs += s.single_shard_rqs.load(std::memory_order_relaxed);
      t.coordinated_rqs += s.coordinated_rqs.load(std::memory_order_relaxed);
      t.fallback_rqs += s.fallback_rqs.load(std::memory_order_relaxed);
      t.timestamps_acquired +=
          s.timestamps_acquired.load(std::memory_order_relaxed);
      t.coordinated_shards_pinned +=
          s.coordinated_shards_pinned.load(std::memory_order_relaxed);
    }
    return t;
  }

 private:
  /// Order-preserving map from KeyT to uint64_t (so partition arithmetic
  /// never overflows signed math).
  static uint64_t biased(KeyT k) noexcept {
    return static_cast<uint64_t>(k) ^ (uint64_t{1} << 63);
  }
  static KeyT unbias(uint64_t b) noexcept {
    return static_cast<KeyT>(b ^ (uint64_t{1} << 63));
  }

  /// Per-thread slot: each thread bumps only its own, so relaxed
  /// increments suffice and stats() may read concurrently.
  struct StatSlot {
    std::atomic<uint64_t> single_shard_rqs{0};
    std::atomic<uint64_t> coordinated_rqs{0};
    std::atomic<uint64_t> fallback_rqs{0};
    std::atomic<uint64_t> timestamps_acquired{0};
    std::atomic<uint64_t> coordinated_shards_pinned{0};
  };

  static void bump(std::atomic<uint64_t>& c) noexcept {
    c.fetch_add(1, std::memory_order_relaxed);
  }

  /// A cross-shard query's Snapshot, collected in one call. Returns T,
  /// the one shared-clock value every overlapping shard was read at.
  ///
  /// Elision: only shards in [a, b] — the span [lo, hi] provably overlaps
  /// under the contiguous partition (shard_index is monotone) — pay any
  /// coordination; shards outside it are never touched, and a == b never
  /// reaches here (the callers devolve single-shard queries to the
  /// unsharded fast path: zero pins, zero announces, zero shared-clock
  /// reads). coordinated_shards_pinned makes the invariant observable.
  timestamp_t coordinated_collect(int tid, size_t a, size_t b, KeyT lo,
                                  KeyT hi,
                                  std::vector<std::pair<KeyT, ValT>>& out) {
    Snapshot snap(*this, tid, lo, hi);
    snap.collect(0, out);
    stats_[tid]->coordinated_shards_pinned.fetch_add(
        b - a + 1, std::memory_order_relaxed);
    return snap.timestamp();
  }

  /// A one-shard set never merges, so every query — the lo > hi case and
  /// the inner set's own stamp included — is its only shard's answer.
  template <typename Out>
  size_t single_shard(int tid, KeyT lo, KeyT hi, Out& out) {
    bump(stats_[tid]->single_shard_rqs);
    return shards_[0]->range_query(tid, lo, hi, out);
  }

  /// Graceful degradation: each overlapping shard's own linearizable
  /// snapshot, concatenated in shard (= key) order. Atomic per shard, not
  /// across shards.
  void fallback_collect(int tid, size_t a, size_t b, KeyT lo, KeyT hi,
                        std::vector<std::pair<KeyT, ValT>>& out) {
    auto& scratch = *scratch_[tid];
    for (size_t i = a; i <= b; ++i) {
      shards_[i]->range_query(tid, lo, hi, scratch);
      out.insert(out.end(), scratch.begin(), scratch.end());
    }
    bump(stats_[tid]->fallback_rqs);
  }

  // Declared before shards_ so it outlives them (shards' redirected clocks
  // point here until destruction).
  GlobalTimestamp gts_;
  const std::string inner_name_;
  Capabilities inner_caps_;
  const size_t nshards_;
  const uint64_t lo_b_;
  const uint64_t width_;
  bool coordinated_ = false;
  std::vector<std::unique_ptr<AnyOrderedSet>> shards_;
  std::vector<RqTracker*> trackers_;
  std::vector<std::unique_ptr<SessionPool>> pools_;
  std::vector<int> arena_ids_;
  mutable CachePadded<std::vector<std::pair<KeyT, ValT>>>
      scratch_[kMaxThreads];
  mutable CachePadded<StatSlot> stats_[kMaxThreads] = {};
  // Last members: unregistered before the StatSlots they read go away.
  obs::GaugeSet::Source obs_srcs_[4];
};

}  // namespace bref
