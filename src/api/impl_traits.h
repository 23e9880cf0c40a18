#pragma once
// Compile-time detection of what an implementation type can do — the single
// source of truth shared by the registry's capability derivation
// (registry.h) and the sessions' snapshot stamping (session.h).
//
// Capability inference is deliberately two-factor: the constructor must
// accept the knob AND the type must expose the matching runtime hook
// (global_timestamp() for relaxation, reclaim_enabled() for reclamation).
// Constructor shape alone is not enough — `bool` converts to any integer
// parameter, so a future `MySet(uint64_t num_shards)` would otherwise be
// classified as reclamation-capable and constructed with num_shards =
// opt.reclaim, silently building the wrong object. The hook requirement
// pins the parameter's meaning.

#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/range_snapshot.h"
#include "api/types.h"

namespace bref::detail {

/// DS's range query returns the snapshot timestamp it linearized at
/// (Capabilities::rq_timestamp): the out-vector form takes a trailing
/// `timestamp_t* ts_out` that receives the stamp.
template <typename DS, typename = void>
struct HasStampedRangeQuery : std::false_type {};
template <typename DS>
struct HasStampedRangeQuery<
    DS, std::void_t<decltype(std::declval<DS&>().range_query(
            0, KeyT{}, KeyT{},
            std::declval<std::vector<std::pair<KeyT, ValT>>&>(),
            std::declval<timestamp_t*>()))>> : std::true_type {};

template <typename DS, typename = void>
struct HasGlobalTimestamp : std::false_type {};
template <typename DS>
struct HasGlobalTimestamp<
    DS, std::void_t<decltype(std::declval<DS&>().global_timestamp())>>
    : std::true_type {};

template <typename DS, typename = void>
struct HasReclaimEnabled : std::false_type {};
template <typename DS>
struct HasReclaimEnabled<
    DS, std::void_t<decltype(std::declval<const DS&>().reclaim_enabled())>>
    : std::true_type {};

template <typename DS, typename = void>
struct HasRqTracker : std::false_type {};
template <typename DS>
struct HasRqTracker<DS,
                    std::void_t<decltype(std::declval<DS&>().rq_tracker())>>
    : std::true_type {};

template <typename DS, typename = void>
struct HasRangeQueryAt : std::false_type {};
template <typename DS>
struct HasRangeQueryAt<
    DS, std::void_t<decltype(std::declval<DS&>().range_query_at(
            0, timestamp_t{}, KeyT{}, KeyT{},
            std::declval<std::vector<std::pair<KeyT, ValT>>&>()))>>
    : std::true_type {};

/// DS can serve one coordinated multi-instance range query at a shared
/// timestamp (Capabilities::coordinated_rq): it must report snapshot
/// timestamps, own a redirectable global clock AND the RQ announce array,
/// and collect at an externally fixed timestamp. All four are required —
/// the shard layer's protocol (announce everywhere, read the shared clock
/// once, collect at that value) touches each hook.
template <typename DS>
inline constexpr bool coordinated_rq_v =
    HasRangeQueryAt<DS>::value && HasRqTracker<DS>::value &&
    HasGlobalTimestamp<DS>::value && HasStampedRangeQuery<DS>::value;

/// DS honors SetOptions::relax_threshold: takes the (relax_threshold,
/// reclaim) constructor AND owns a global timestamp to relax.
template <typename DS>
inline constexpr bool accepts_relaxation_v =
    std::is_constructible_v<DS, uint64_t, bool> &&
    HasGlobalTimestamp<DS>::value;

/// DS honors SetOptions::reclaim: constructible with the flag AND actually
/// has a reclamation path to toggle.
template <typename DS>
inline constexpr bool accepts_reclamation_v =
    (std::is_constructible_v<DS, uint64_t, bool> ||
     std::is_constructible_v<DS, bool>) &&
    HasReclaimEnabled<DS>::value;

/// Shared range-query-into-snapshot protocol: re-arm the snapshot, run the
/// query into its buffer, stamp the timestamp the same call returned when
/// the type reports one. Both the type-erased adapter and TypedSession go
/// through here so the two paths cannot diverge. A type that implements
/// the snapshot form itself (AnyOrderedSet, and through it ShardedSet,
/// whose coordinated stamp exists only on this path) owns the whole
/// protocol — call through so TypedSession<AnyOrderedSet> callers see its
/// stamping.
template <typename DS>
size_t fill_range_query(DS& ds, int tid, KeyT lo, KeyT hi,
                        RangeSnapshot& out) {
  if constexpr (requires {
                  { ds.range_query(tid, lo, hi, out) } -> std::same_as<size_t>;
                }) {
    return ds.range_query(tid, lo, hi, out);
  } else if constexpr (HasStampedRangeQuery<DS>::value) {
    timestamp_t ts = RangeSnapshot::kNoTimestamp;
    ds.range_query(tid, lo, hi, out.reset(lo, hi), &ts);
    out.set_timestamp(ts);
    return out.size();
  } else {
    ds.range_query(tid, lo, hi, out.reset(lo, hi));
    return out.size();
  }
}

}  // namespace bref::detail
