#pragma once
// Lazy linked list with EBR-RQ / EBR-RQ-LF linearizable range queries
// (Arbel-Raviv & Brown; see rq_provider.h). The list algorithm is the same
// lazy list as ds/base; nodes additionally carry insert/delete timestamps
// and removals pass through the provider's limbo protocol.
//
// Nodes come from per-thread EntryPools (core/entry_pool.h): inserts pop
// the calling thread's slot, pruned limbo nodes flow back through
// Ebr::retire_recycle to their owner's inbox, so the steady-state update
// path performs zero heap allocations — the same discipline PR 3 gave the
// bundle entries, now applied to the competitor so the fig2/fig3/rq_latency
// comparison is allocator-for-allocator fair.

#include <cassert>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/spinlock.h"
#include "core/entry_pool.h"
#include "core/global_timestamp.h"
#include "ds/ebrrq/rq_provider.h"
#include "ds/support.h"
#include "epoch/ebr.h"

namespace bref {

template <typename K, typename V>
class EbrRqList {
 public:
  struct Node {
    K key;
    V val;
    Spinlock lock;
    std::atomic<bool> marked{false};
    std::atomic<Node*> next{nullptr};
    std::atomic<uint64_t> itime{EbrRqProvider<Node, K, V>::kInfTs};
    std::atomic<uint64_t> dtime{EbrRqProvider<Node, K, V>::kInfTs};
    // The provider's limbo chain while parked; the pool's free-list link
    // while recycled. The two uses never overlap (limbo -> EBR grace ->
    // pool), and `next` stays untouched so readers crossing a marked node
    // keep a valid successor.
    std::atomic<Node*> limbo_next{nullptr};
    const int32_t pool_tid;

    explicit Node(int32_t owner) : key{}, val{}, pool_tid(owner) {}

    // EntryPool duck-typing (see core/entry_pool.h): link + ASan poison
    // extent (key/val only — every atomic stays a live object while
    // pooled) + the EBR recycle hook.
    std::atomic<Node*>& pool_link() { return limbo_next; }
    static constexpr size_t kPoolPoisonBytes = sizeof(K) + sizeof(V);
    static void recycle(Node* n) { EntryPool<Node>::release(n); }
  };
  using Provider = EbrRqProvider<Node, K, V>;

  explicit EbrRqList(EbrRqMode mode = EbrRqMode::kLock)
      : prov_(mode, ebr_) {
    head_ = make_sentinel(key_min_sentinel<K>());
    tail_ = make_sentinel(key_max_sentinel<K>());
    head_->next.store(tail_, std::memory_order_relaxed);
  }

  ~EbrRqList() {
    // Quiescent teardown: reachable nodes go straight back to their pools
    // (limbo nodes via ~Provider, EBR-bagged ones via ~Ebr's drain).
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = n->next.load(std::memory_order_relaxed);
      Node::recycle(n);
      n = nx;
    }
  }

  EbrRqList(const EbrRqList&) = delete;
  EbrRqList& operator=(const EbrRqList&) = delete;

  bool contains(int tid, K key, V* out = nullptr) const {
    Ebr::Guard g(ebr_, tid);
    Node* curr = head_->next.load(std::memory_order_acquire);
    while (curr->key < key) curr = curr->next.load(std::memory_order_acquire);
    if (curr->key != key || curr->marked.load(std::memory_order_acquire))
      return false;
    if (out != nullptr) *out = curr->val;
    return true;
  }

  bool insert(int tid, K key, V val) {
    assert(key > key_min_sentinel<K>() && key < key_max_sentinel<K>());
    for (;;) {
      Ebr::Guard g(ebr_, tid);
      auto [pred, curr] = traverse(key);
      std::lock_guard<Spinlock> lk(pred->lock);
      if (!validate(pred, curr)) continue;
      if (curr->key == key) return false;
      Node* fresh = alloc_node(tid, key, val);
      fresh->next.store(curr, std::memory_order_relaxed);
      prov_.insert_op(tid, fresh, [&] {
        pred->next.store(fresh, std::memory_order_release);
      });
      return true;
    }
  }

  bool remove(int tid, K key) {
    for (;;) {
      Ebr::Guard g(ebr_, tid);
      auto [pred, curr] = traverse(key);
      if (curr->key != key) return false;
      std::scoped_lock lk(pred->lock, curr->lock);
      if (!validate(pred, curr) ||
          curr->marked.load(std::memory_order_acquire))
        continue;
      Node* succ = curr->next.load(std::memory_order_acquire);
      prov_.remove_op(tid, curr, [&] {
        curr->marked.store(true, std::memory_order_release);
        pred->next.store(succ, std::memory_order_release);
      });
      return true;
    }
  }

  /// `ts_out`, when given, receives the snapshot timestamp the query
  /// linearized at (surfaced as RangeSnapshot::timestamp()).
  size_t range_query(int tid, K lo, K hi, std::vector<std::pair<K, V>>& out,
                     timestamp_t* ts_out = nullptr) {
    out.clear();
    if (lo > hi) {
      // Trivially empty: linearizes anywhere, so stamp "now".
      if (ts_out != nullptr) *ts_out = prov_.now();
      return 0;
    }
    Ebr::Guard g(ebr_, tid);
    const uint64_t ts = prov_.rq_begin(tid, lo, hi);
    if (ts_out != nullptr) *ts_out = ts;
    Node* curr = head_->next.load(std::memory_order_acquire);
    while (curr->key < lo) curr = curr->next.load(std::memory_order_acquire);
    while (curr != tail_ && curr->key <= hi) {
      if (prov_.visible(curr, ts)) out.emplace_back(curr->key, curr->val);
      curr = curr->next.load(std::memory_order_acquire);
    }
    prov_.rq_reconcile(tid, ts, lo, hi, out);
    prov_.rq_end(tid);
    return out.size();
  }

  /// Drain every thread's limbo slot (nodes stranded below the prune
  /// cadence included); see Provider::flush_limbo. Returns #nodes retired.
  size_t flush_limbo(int tid) {
    Ebr::Guard g(ebr_, tid);
    return prov_.flush_limbo(tid);
  }

  uint64_t limbo_nodes_checked() const { return prov_.limbo_nodes_checked(); }

  /// Nodes currently parked in limbo across all slots (the shard layer's
  /// maintenance_backlog; approximate under concurrency).
  size_t limbo_size() const { return prov_.limbo_size(); }

  Ebr& ebr() { return ebr_; }
  Provider& provider() { return prov_; }

  std::vector<std::pair<K, V>> to_vector() const {
    std::vector<std::pair<K, V>> v;
    for (Node* n = head_->next.load(std::memory_order_acquire); n != tail_;
         n = n->next.load(std::memory_order_acquire))
      v.emplace_back(n->key, n->val);
    return v;
  }
  size_t size_slow() const { return to_vector().size(); }
  bool check_invariants() const {
    K prev = key_min_sentinel<K>();
    for (Node* n = head_->next.load(std::memory_order_acquire); n != tail_;
         n = n->next.load(std::memory_order_acquire)) {
      if (n->key <= prev) return false;
      prev = n->key;
    }
    return true;
  }

 private:
  /// Pool pop + full field reset: a recycled node carries its previous
  /// life's stamps/mark, and publication (the release store in insert_op's
  /// lin) is what orders these plain stores for readers.
  static Node* alloc_node(int tid, K key, V val) {
    Node* n = EntryPool<Node>::instance().acquire(tid);
    n->key = key;
    n->val = val;
    n->marked.store(false, std::memory_order_relaxed);
    n->next.store(nullptr, std::memory_order_relaxed);
    n->itime.store(Provider::kInfTs, std::memory_order_relaxed);
    n->dtime.store(Provider::kInfTs, std::memory_order_relaxed);
    n->limbo_next.store(nullptr, std::memory_order_relaxed);
    return n;
  }

  /// Sentinels are built on the constructing thread, whose dense id is
  /// unknown — pool free lists are single-consumer, so they must not touch
  /// a slot (cf. Bundle::init). They take the heap path and are tagged so
  /// recycle() routes them back to delete.
  static Node* make_sentinel(K key) {
    Node* n = new Node(kPoolMalloced);
    n->key = key;
    n->itime.store(0, std::memory_order_relaxed);
    return n;
  }

  std::pair<Node*, Node*> traverse(K key) const {
    Node* pred = head_;
    Node* curr = pred->next.load(std::memory_order_acquire);
    while (curr->key < key) {
      pred = curr;
      curr = curr->next.load(std::memory_order_acquire);
    }
    return {pred, curr};
  }
  bool validate(Node* pred, Node* curr) const {
    return !pred->marked.load(std::memory_order_acquire) &&
           pred->next.load(std::memory_order_acquire) == curr;
  }

  mutable Ebr ebr_;
  Provider prov_;
  Node* head_;
  Node* tail_;
};

}  // namespace bref
