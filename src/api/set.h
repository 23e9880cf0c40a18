#pragma once
// bref::Set — the capability-aware facade over every ordered-set
// implementation in the library.
//
//   bref::Set set = bref::Set::create("Bundle-skiplist");
//   auto s = set.session();                    // RAII thread session
//   s.insert(10, 100);
//   bref::RangeSnapshot snap = s.range_query(5, 50);
//   for (auto [k, v] : snap) ...               // atomic snapshot
//   snap.timestamp();                          // when it linearized
//
// Construction goes through the ImplRegistry (registry.h): names,
// capabilities and factories are derived from the registered descriptors,
// and SetOptions an implementation cannot honor throw
// UnsupportedOptionError instead of being silently dropped.
//
// Operations go through sessions only. Code that needs the raw interface
// deliberately — benchmark drivers pinning dense ids, white-box tests —
// uses session(tid) or the impl() escape hatch.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/builtin_impls.h"
#include "api/registry.h"
#include "api/session.h"
#include "shard/builtin_shards.h"

namespace bref {

class Set {
 public:
  Set() = default;

  /// Construct by registry name ("Bundle-skiplist", "RLU-citrus", ...).
  /// Throws std::invalid_argument for unknown names and
  /// UnsupportedOptionError for options outside the implementation's
  /// capabilities.
  static Set create(const std::string& name, const SetOptions& opt = {}) {
    return Set(ImplRegistry::instance().create(name, opt));
  }

  /// Wrap an existing implementation (e.g. from a custom factory).
  explicit Set(std::unique_ptr<AnyOrderedSet> impl) : impl_(std::move(impl)) {}

  explicit operator bool() const noexcept { return impl_ != nullptr; }

  // -- sessions (the operation entry point) -------------------------------
  /// Acquire a dense thread id for the calling scope (released on session
  /// destruction). One session per thread; do not share across threads.
  ThreadSession session() { return ThreadSession(*impl_); }
  /// Pin an explicitly managed id (benchmark drivers assign 0..n-1).
  ThreadSession session(int tid) { return ThreadSession(*impl_, tid); }

  // -- identity / capabilities --------------------------------------------
  std::string name() const { return impl_->name(); }
  const char* technique() const { return impl_->technique(); }
  const char* structure() const { return impl_->structure(); }
  Capabilities capabilities() const { return impl_->capabilities(); }

  // -- quiescent introspection --------------------------------------------
  std::vector<std::pair<KeyT, ValT>> to_vector() const {
    return impl_->to_vector();
  }
  size_t size_slow() const { return impl_->size_slow(); }
  bool check_invariants() const { return impl_->check_invariants(); }

  /// Escape hatch to the type-erased implementation.
  AnyOrderedSet& impl() { return *impl_; }
  const AnyOrderedSet& impl() const { return *impl_; }

 private:
  std::unique_ptr<AnyOrderedSet> impl_;
};

}  // namespace bref
