#pragma once
// RAII thread sessions — the replacement for the raw-`tid` calling
// convention.
//
// Every per-thread substrate (EBR epochs, RLU contexts, RQ announcements)
// is indexed by a dense thread id; the old API made callers thread an
// `int tid` through every operation by hand. A session binds an id to a
// set for the lifetime of a scope:
//
//   bref::Set set = bref::Set::create("Bundle-skiplist");
//   {
//     auto s = set.session();          // acquires a dense id (RAII)
//     s.insert(10, 100);
//     bref::RangeSnapshot snap = s.range_query(5, 50);
//   }                                  // id released for reuse here
//
// Two variants share the operation surface:
//   * ThreadSession  — over the type-erased AnyOrderedSet (one virtual
//     call per op), handed out by bref::Set;
//   * TypedSession<DS> — over a concrete implementation type, fully
//     inlineable; what the benchmark harness and the typed tests use so
//     the facade costs nothing on the hot path.
//
// Sessions are movable, not copyable, and must not be shared between
// threads (they stand for *this thread's* identity with the structure).
// Constructing with an explicit id (the benchmark drivers' pattern) pins
// the id and skips registry acquisition/release entirely.

#include <concepts>
#include <optional>
#include <type_traits>
#include <utility>

#include "api/impl_traits.h"
#include "api/range_snapshot.h"
#include "api/set_interface.h"
#include "api/types.h"
#include "common/thread_registry.h"

namespace bref {

/// The one RAII owner of a dense thread id from the global ThreadRegistry:
/// the default constructor acquires one (throwing ThreadSlotsExhaustedError
/// when every id is held) and the destructor releases it; the explicit-id
/// form borrows an id the caller manages and never releases it.
class SessionId {
 public:
  SessionId() : tid_(ThreadRegistry::instance().acquire()), owned_(true) {}
  explicit SessionId(int tid) : tid_(tid), owned_(false) {}
  ~SessionId() {
    if (owned_) ThreadRegistry::instance().release(tid_);
  }

  SessionId(SessionId&& other) noexcept
      : tid_(other.tid_), owned_(std::exchange(other.owned_, false)) {}
  SessionId& operator=(SessionId&& other) noexcept {
    if (this != &other) {
      if (owned_) ThreadRegistry::instance().release(tid_);
      tid_ = other.tid_;
      owned_ = std::exchange(other.owned_, false);
    }
    return *this;
  }
  SessionId(const SessionId&) = delete;
  SessionId& operator=(const SessionId&) = delete;

  int tid() const noexcept { return tid_; }

 private:
  int tid_;
  bool owned_;
};

/// Session over the type-erased interface; obtained from bref::Set.
class ThreadSession {
 public:
  /// Auto-acquire a dense id (released on destruction).
  explicit ThreadSession(AnyOrderedSet& set) : set_(&set) {}
  /// Pin an explicitly managed id (benchmarks; id is not released).
  ThreadSession(AnyOrderedSet& set, int tid) : set_(&set), id_(tid) {}

  ThreadSession(ThreadSession&&) noexcept = default;
  ThreadSession& operator=(ThreadSession&&) noexcept = default;

  bool insert(KeyT key, ValT val) { return set_->insert(id_.tid(), key, val); }
  bool remove(KeyT key) { return set_->remove(id_.tid(), key); }
  bool contains(KeyT key, ValT* out = nullptr) {
    return set_->contains(id_.tid(), key, out);
  }
  std::optional<ValT> get(KeyT key) {
    ValT v{};
    if (!set_->contains(id_.tid(), key, &v)) return std::nullopt;
    return v;
  }

  /// Fill `out`, reusing its buffer (the hot-loop form).
  size_t range_query(KeyT lo, KeyT hi, RangeSnapshot& out) {
    return set_->range_query(id_.tid(), lo, hi, out);
  }
  /// Convenience form returning a fresh snapshot.
  RangeSnapshot range_query(KeyT lo, KeyT hi) {
    RangeSnapshot snap;
    set_->range_query(id_.tid(), lo, hi, snap);
    return snap;
  }

  int tid() const noexcept { return id_.tid(); }
  AnyOrderedSet& set() const noexcept { return *set_; }

 private:
  AnyOrderedSet* set_;
  SessionId id_;
};

/// Zero-overhead session over a concrete implementation type. Mirrors
/// ThreadSession's surface; every call inlines into the underlying
/// structure's method.
template <typename DS>
class TypedSession {
 public:
  explicit TypedSession(DS& set) : set_(&set) {}
  TypedSession(DS& set, int tid) : set_(&set), id_(tid) {}

  TypedSession(TypedSession&&) noexcept = default;
  TypedSession& operator=(TypedSession&&) noexcept = default;

  bool insert(KeyT key, ValT val) { return set_->insert(id_.tid(), key, val); }
  bool remove(KeyT key) { return set_->remove(id_.tid(), key); }
  bool contains(KeyT key, ValT* out = nullptr) {
    return set_->contains(id_.tid(), key, out);
  }
  std::optional<ValT> get(KeyT key) {
    ValT v{};
    if (!set_->contains(id_.tid(), key, &v)) return std::nullopt;
    return v;
  }

  size_t range_query(KeyT lo, KeyT hi, RangeSnapshot& out) {
    return detail::fill_range_query(*set_, id_.tid(), lo, hi, out);
  }
  RangeSnapshot range_query(KeyT lo, KeyT hi) {
    RangeSnapshot snap;
    range_query(lo, hi, snap);
    return snap;
  }

  int tid() const noexcept { return id_.tid(); }
  DS& set() const noexcept { return *set_; }

 private:
  DS* set_;
  SessionId id_;
};

/// Per-thread session cache for applications that spawn short-lived
/// threads. A SessionPool hands each OS thread one cached id and releases
/// it to the global ThreadRegistry when the thread exits, so a server
/// recycling worker threads never burns through the kMaxThreads id space:
///
///   MiniKv() : index_(Set::create("Bundle-skiplist")), pool_(index_) {}
///   void put(...) { auto s = pool_.session(); s.insert(...); }
///
/// session() costs one thread_local lookup (no registry round-trip after
/// the thread's first call) because the returned session borrows the
/// cached id rather than owning it. The cache is per OS thread, not per
/// pool: two pools on the same thread share one id, which is exactly how
/// explicit-tid callers use one id across many structures. Sessions must
/// not outlive the calling thread (they borrow its id).
class SessionPool {
 public:
  explicit SessionPool(AnyOrderedSet& set) : set_(&set) {}
  /// Convenience: bind to any Set-facade-like owner exposing impl().
  template <typename SetT>
    requires requires(SetT& s) { { s.impl() } -> std::convertible_to<AnyOrderedSet&>; }
  explicit SessionPool(SetT& set) : set_(&set.impl()) {}

  /// A session on this thread's cached id; acquires the id on the
  /// thread's first call, from the global registry.
  ThreadSession session() { return ThreadSession(*set_, thread_tid()); }

  /// The calling thread's cached dense id (acquiring it if needed) —
  /// for callers that also drive explicit-tid surfaces. Throws
  /// ThreadSlotsExhaustedError on a fresh thread when the id space is
  /// exhausted; the id is released when the thread exits.
  static int thread_tid() {
    thread_local std::optional<SessionId> id;
    if (!id) id.emplace();
    return id->tid();
  }

 private:
  AnyOrderedSet* set_;
};

}  // namespace bref
