#pragma once
// Named implementation types: each technique x structure combination pinned
// to a default-constructible type so typed test suites and benchmarks can
// enumerate them at compile time. `kName` follows the paper's naming:
// Bundle, Unsafe, EBR-RQ, EBR-RQ-LF, RLU (+ Snapcollector, evaluation
// extra, and LFCA, the contention-adapting tree of arXiv:1709.00722).
//
// These are the *implementation-facing* types. The public surface layers
// on top (see set.h for the full API story):
//   * registry.h      — self-registering factory; capabilities are derived
//                       from these types' constructor shapes and tags;
//   * builtin_impls.h — the one-line registration per type below;
//   * session.h       — RAII ThreadSession/TypedSession replacing the raw
//                       `int tid` convention these types still speak:
//                       bool   insert(tid, key, val)
//                       bool   remove(tid, key)
//                       bool   contains(tid, key, V* out = nullptr)
//                       size_t range_query(tid, lo, hi, vector<pair>& out)
//                       (Bundle and EBR-RQ add `timestamp_t* ts_out =
//                       nullptr`, which receives the snapshot stamp)
//                       plus quiescent introspection (to_vector /
//                       size_slow / check_invariants).

#include <cstdint>

#include "api/types.h"
#include "ds/base/citrus_tree.h"
#include "ds/base/lazy_list.h"
#include "ds/base/lazy_skiplist.h"
#include "ds/bundled/bundled_citrus.h"
#include "ds/bundled/bundled_list.h"
#include "ds/bundled/bundled_skiplist.h"
#include "ds/ebrrq/ebrrq_citrus.h"
#include "ds/ebrrq/ebrrq_list.h"
#include "ds/ebrrq/ebrrq_skiplist.h"
#include "ds/lfca/lfca_tree.h"
#include "ds/rlu/rlu_citrus.h"
#include "ds/rlu/rlu_list.h"
#include "ds/rlu/rlu_skiplist.h"
#include "ds/snapcollector/sc_list.h"
#include "ds/snapcollector/sc_skiplist.h"

namespace bref {

// KeyT/ValT live in api/types.h (shared with the facade headers).

// ---- Bundle (this paper) --------------------------------------------------
struct BundleListSet : BundledList<KeyT, ValT> {
  using BundledList::BundledList;
  static constexpr const char* kName = "Bundle";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "list";
};
struct BundleSkipListSet : BundledSkipList<KeyT, ValT> {
  using BundledSkipList::BundledSkipList;
  static constexpr const char* kName = "Bundle";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "skiplist";
};
struct BundleCitrusSet : BundledCitrus<KeyT, ValT> {
  using BundledCitrus::BundledCitrus;
  static constexpr const char* kName = "Bundle";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "citrus";
};

// ---- Unsafe reference ------------------------------------------------------
struct UnsafeListSet : LazyListUnsafe<KeyT, ValT> {
  using LazyListUnsafe::LazyListUnsafe;
  static constexpr const char* kName = "Unsafe";
  static constexpr bool kLinearizableRq = false;
  static constexpr const char* kStructure = "list";
};
struct UnsafeSkipListSet : LazySkipListUnsafe<KeyT, ValT> {
  using LazySkipListUnsafe::LazySkipListUnsafe;
  static constexpr const char* kName = "Unsafe";
  static constexpr bool kLinearizableRq = false;
  static constexpr const char* kStructure = "skiplist";
};
struct UnsafeCitrusSet : CitrusTreeUnsafe<KeyT, ValT> {
  using CitrusTreeUnsafe::CitrusTreeUnsafe;
  static constexpr const char* kName = "Unsafe";
  static constexpr bool kLinearizableRq = false;
  static constexpr const char* kStructure = "citrus";
};

// ---- EBR-RQ (Arbel-Raviv & Brown, lock-based) -------------------------------
struct EbrRqListSet : EbrRqList<KeyT, ValT> {
  EbrRqListSet() : EbrRqList(EbrRqMode::kLock) {}
  static constexpr const char* kName = "EBR-RQ";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "list";
};
struct EbrRqSkipListSet : EbrRqSkipList<KeyT, ValT> {
  EbrRqSkipListSet() : EbrRqSkipList(EbrRqMode::kLock) {}
  static constexpr const char* kName = "EBR-RQ";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "skiplist";
};
struct EbrRqCitrusSet : EbrRqCitrus<KeyT, ValT> {
  EbrRqCitrusSet() : EbrRqCitrus(EbrRqMode::kLock) {}
  static constexpr const char* kName = "EBR-RQ";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "citrus";
};

// ---- EBR-RQ-LF (lock-free timestamps via DCSS) ------------------------------
struct EbrRqLfListSet : EbrRqList<KeyT, ValT> {
  EbrRqLfListSet() : EbrRqList(EbrRqMode::kLockFree) {}
  static constexpr const char* kName = "EBR-RQ-LF";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "list";
};
struct EbrRqLfSkipListSet : EbrRqSkipList<KeyT, ValT> {
  EbrRqLfSkipListSet() : EbrRqSkipList(EbrRqMode::kLockFree) {}
  static constexpr const char* kName = "EBR-RQ-LF";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "skiplist";
};
struct EbrRqLfCitrusSet : EbrRqCitrus<KeyT, ValT> {
  EbrRqLfCitrusSet() : EbrRqCitrus(EbrRqMode::kLockFree) {}
  static constexpr const char* kName = "EBR-RQ-LF";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "citrus";
};

// ---- RLU --------------------------------------------------------------------
struct RluListSet : RluList<KeyT, ValT> {
  using RluList::RluList;
  static constexpr const char* kName = "RLU";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "list";
};
struct RluSkipListSet : RluSkipList<KeyT, ValT> {
  using RluSkipList::RluSkipList;
  static constexpr const char* kName = "RLU";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "skiplist";
};
struct RluCitrusSet : RluCitrus<KeyT, ValT> {
  using RluCitrus::RluCitrus;
  static constexpr const char* kName = "RLU";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "citrus";
};

// ---- LFCA (Winblad et al.; contention-adapting competitor) ------------------
// Its own structure kind: the technique *is* the tree, so it has no
// list/skiplist/citrus variants. Reclamation-capable (EBR retires displaced
// nodes and leaves); no relaxation knob or snapshot timestamp.
struct LfcaTreeSet : LfcaTree<KeyT, ValT> {
  using LfcaTree::LfcaTree;
  static constexpr const char* kName = "LFCA";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "tree";
};

// ---- Snapcollector (Petrank & Timnat; evaluation extra) ---------------------
struct SnapCollectorListSet : SnapCollectorList<KeyT, ValT> {
  using SnapCollectorList::SnapCollectorList;
  static constexpr const char* kName = "Snapcollector";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "list";
};
struct SnapCollectorSkipListSet : SnapCollectorSkipList<KeyT, ValT> {
  using SnapCollectorSkipList::SnapCollectorSkipList;
  static constexpr const char* kName = "Snapcollector";
  static constexpr bool kLinearizableRq = true;
  static constexpr const char* kStructure = "skiplist";
};

}  // namespace bref
