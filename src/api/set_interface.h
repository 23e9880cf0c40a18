#pragma once
// AnyOrderedSet: the type-erased implementation interface every technique x
// structure combination is adapted onto (see registry.h for the adapter and
// the self-registering factory).
//
// This is the *implementation-facing* contract and therefore still speaks
// dense thread ids: substrates (EBR, RLU, the RQ tracker) index per-thread
// state by tid. Applications should not call it directly — bref::Set hands
// out RAII ThreadSessions that manage ids automatically (see set.h).

#include <string>
#include <utility>
#include <vector>

#include "api/capabilities.h"
#include "api/range_snapshot.h"
#include "api/types.h"
#include "core/rq_tracker.h"

namespace bref {

/// Accounting for one background maintenance pass (the shard layer's
/// MaintenanceService, src/shard/maintenance.h): bundle entries pruned,
/// EBR-RQ limbo nodes drained, whether the pass pushed reclamation epochs.
struct MaintenanceWork {
  uint64_t bundle_entries_pruned = 0;
  uint64_t limbo_flushed = 0;
  bool epochs_quiesced = false;

  uint64_t reclaimed() const {
    return bundle_entries_pruned + limbo_flushed;
  }
  MaintenanceWork& operator+=(const MaintenanceWork& o) {
    bundle_entries_pruned += o.bundle_entries_pruned;
    limbo_flushed += o.limbo_flushed;
    epochs_quiesced = epochs_quiesced || o.epochs_quiesced;
    return *this;
  }
};

class AnyOrderedSet {
 public:
  virtual ~AnyOrderedSet() = default;

  virtual bool insert(int tid, KeyT key, ValT val) = 0;
  virtual bool remove(int tid, KeyT key) = 0;
  virtual bool contains(int tid, KeyT key, ValT* out = nullptr) = 0;
  /// Fills `out` (reusing its buffer) and stamps the snapshot timestamp
  /// when the technique exposes one.
  virtual size_t range_query(int tid, KeyT lo, KeyT hi,
                             RangeSnapshot& out) = 0;

  // Quiescent introspection.
  virtual std::vector<std::pair<KeyT, ValT>> to_vector() const = 0;
  virtual size_t size_slow() const = 0;
  virtual bool check_invariants() const = 0;

  // -- shard-layer hooks (src/shard/; defaults = "not capable") -----------
  // The coordinated cross-shard range-query protocol needs three things
  // from each participating instance, all derived from the concrete type by
  // the adapter in registry.h (capability flag: coordinated_rq):
  //   1. its update clock redirected onto the coordinator's shared clock;
  //   2. its RQ announce array, so the coordinator can run the two-phase
  //      announce (PENDING everywhere -> one clock read -> publish);
  //   3. collection at that externally fixed timestamp.

  /// Redirect this instance's global timestamp onto `leader` (quiescent-
  /// only: before the structure is shared). Returns false when the
  /// technique has no shareable clock.
  virtual bool adopt_clock(GlobalTimestamp& leader) {
    (void)leader;
    return false;
  }
  /// The instance's RQ announce array; nullptr when the technique has none.
  virtual RqTracker* rq_tracker_hook() { return nullptr; }
  /// Pin this instance's reclamation epoch for a coordinated collection,
  /// in two halves so a coordinator pinning MANY instances can batch them:
  /// rq_pin_prepare on every shard (the announce stores, issued
  /// back-to-back), then rq_pin_confirm on every shard (the validation
  /// loads), and only then the shared clock read. The pin is established
  /// when rq_pin_confirm returns, and it MUST precede the clock read:
  /// epoch safety for a snapshot at T requires that any node removed
  /// after T was retired while we were already pinned (the single-
  /// structure range query gets this by pinning before rq_begin). No-ops
  /// when the instance does not reclaim.
  virtual void rq_pin_prepare(int tid) { (void)tid; }
  virtual void rq_pin_confirm(int tid) { (void)tid; }
  virtual void rq_unpin(int tid) { (void)tid; }
  /// Collect [lo, hi] at the announced snapshot timestamp `ts`, APPENDING
  /// to `out` (the coordinator concatenates shards in key order). The
  /// caller must hold an announce of `ts` in rq_tracker_hook() AND a pin
  /// confirmed before `ts` was read. Returns the number of pairs
  /// appended; 0-and-no-op when not capable.
  virtual size_t range_query_at(int tid, timestamp_t ts, KeyT lo, KeyT hi,
                                std::vector<std::pair<KeyT, ValT>>& out) {
    (void)tid, (void)ts, (void)lo, (void)hi, (void)out;
    return 0;
  }

  /// One background maintenance pass: prune dead bundle entries (only when
  /// the instance reclaims), drain stranded EBR-RQ limbo, push reclamation
  /// epochs. Safe concurrently with operations from a thread owning `tid`;
  /// default no-op for techniques with no background work.
  virtual MaintenanceWork maintain(int tid) {
    (void)tid;
    return {};
  }
  /// Nodes currently parked awaiting maintenance (EBR-RQ limbo; 0 for
  /// techniques without such a backlog). Approximate under concurrency.
  /// MaintenanceService reads it after every pass for its backlog gauge.
  virtual size_t maintenance_backlog() const { return 0; }

  // Identity.
  virtual const char* technique() const = 0;   // "Bundle", "RLU", ...
  virtual const char* structure() const = 0;   // "list", "skiplist", "citrus"
  virtual Capabilities capabilities() const = 0;
  bool linearizable_rq() const { return capabilities().linearizable_rq; }
  std::string name() const {
    return std::string(technique()) + "-" + structure();
  }
};

}  // namespace bref
