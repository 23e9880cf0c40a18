#pragma once
// Shared helpers for the test suite: thread/session harness, reference-
// model checking, and the canonical list of implementation types.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/ordered_set.h"
#include "api/range_snapshot.h"
#include "api/session.h"
#include "api/set.h"
#include "common/random.h"

namespace bref::testutil {

/// Run `fn(tid)` on `n` threads and join.
inline void run_threads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> ts;
  ts.reserve(n);
  for (int i = 0; i < n; ++i) ts.emplace_back(fn, i);
  for (auto& t : ts) t.join();
}

/// Grow a bundled skip list past its kCursorMinNodes with keys from `from`
/// up, which the test's ranges must not reach, so that its walks take more
/// than one cursor.
template <typename DS>
void add_cursor_ballast(DS& ds, KeyT from) {
  for (KeyT k = from; k < from + 2 * DS::kCursorMinNodes; ++k)
    ds.insert(0, k, k);
}

/// Run `fn(session)` on `n` threads, each with a TypedSession pinned to its
/// dense id 0..n-1 — the session-era twin of run_threads for typed suites.
template <typename DS>
void run_sessions(DS& ds, int n,
                  const std::function<void(TypedSession<DS>&)>& fn) {
  run_threads(n, [&](int tid) {
    TypedSession<DS> s(ds, tid);
    fn(s);
  });
}

/// Run `fn(session)` on `n` threads whose dense ids come from the
/// per-OS-thread SessionPool cache — the application-facing id discipline,
/// as opposed to run_sessions' hand-pinned ids. Use when a test should
/// exercise the same path real callers take; note pooled ids are recycled
/// through the global ThreadRegistry, so do not mix with hand-pinned ids
/// that could collide.
inline void run_pooled(AnyOrderedSet& set, int n,
                       const std::function<void(ThreadSession&)>& fn) {
  SessionPool pool(set);
  run_threads(n, [&](int) {
    ThreadSession s = pool.session();
    fn(s);
  });
}

/// Compare a quiescent structure against a reference map.
template <typename DS>
::testing::AssertionResult matches_model(DS& ds,
                                         const std::map<KeyT, ValT>& model) {
  auto v = ds.to_vector();
  if (v.size() != model.size())
    return ::testing::AssertionFailure()
           << "size mismatch: ds=" << v.size() << " model=" << model.size();
  auto it = model.begin();
  for (size_t i = 0; i < v.size(); ++i, ++it) {
    if (v[i].first != it->first)
      return ::testing::AssertionFailure()
             << "key mismatch at " << i << ": ds=" << v[i].first
             << " model=" << it->first;
    if (v[i].second != it->second)
      return ::testing::AssertionFailure()
             << "val mismatch at key " << v[i].first << ": ds=" << v[i].second
             << " model=" << it->second;
  }
  return ::testing::AssertionSuccess();
}

/// Result sanity: strictly sorted by key and within [lo, hi].
inline ::testing::AssertionResult sorted_in_range(
    const std::vector<std::pair<KeyT, ValT>>& v, KeyT lo, KeyT hi) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i].first < lo || v[i].first > hi)
      return ::testing::AssertionFailure()
             << "key " << v[i].first << " outside [" << lo << "," << hi << "]";
    if (i > 0 && v[i - 1].first >= v[i].first)
      return ::testing::AssertionFailure()
             << "not strictly sorted at index " << i << ": " << v[i - 1].first
             << " >= " << v[i].first;
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult sorted_in_range(const RangeSnapshot& snap,
                                                  KeyT lo, KeyT hi) {
  return sorted_in_range(snap.items(), lo, hi);
}

/// All implementations (typed-test type list). Mirrors the ImplRegistry's
/// builtin table; test_registry.cpp pins the two views against each other.
using AllSetTypes = ::testing::Types<
    BundleListSet, BundleSkipListSet, BundleCitrusSet, UnsafeListSet,
    UnsafeSkipListSet, UnsafeCitrusSet, EbrRqListSet, EbrRqSkipListSet,
    EbrRqCitrusSet, EbrRqLfListSet, EbrRqLfSkipListSet, EbrRqLfCitrusSet,
    RluListSet, RluSkipListSet, RluCitrusSet, SnapCollectorListSet,
    SnapCollectorSkipListSet, LfcaTreeSet>;

/// Names of the registered implementations with linearizable range
/// queries — derived from capability flags rather than name prefixes.
inline std::vector<std::string> linearizable_impl_names() {
  std::vector<std::string> out;
  for (const auto& d : ImplRegistry::instance().descriptors())
    if (d.caps.linearizable_rq) out.push_back(d.name);
  return out;
}

/// Implementations with linearizable range queries (Unsafe excluded).
using LinearizableSetTypes = ::testing::Types<
    BundleListSet, BundleSkipListSet, BundleCitrusSet, EbrRqListSet,
    EbrRqSkipListSet, EbrRqCitrusSet, EbrRqLfListSet, EbrRqLfSkipListSet,
    EbrRqLfCitrusSet, RluListSet, RluSkipListSet, RluCitrusSet,
    SnapCollectorListSet, SnapCollectorSkipListSet, LfcaTreeSet>;

}  // namespace bref::testutil
