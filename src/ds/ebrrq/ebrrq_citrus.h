#pragma once
// Citrus tree with EBR-RQ / EBR-RQ-LF linearizable range queries
// (Arbel-Raviv & Brown; see rq_provider.h). The two-children removal maps
// onto the provider's replace_op: the successor copy is stamped as an
// insert carrying the first victim's timestamp, both victims are stamped,
// parked in limbo, and the deferred successor unlink runs after the RCU
// grace period inside the provider's announce window.
//
// Nodes come from per-thread EntryPools (core/entry_pool.h); see
// ebrrq_list.h for the ownership story. Tags reset to 0 on reuse: a tag
// only guards revalidation within one EBR pin, and no pin can straddle a
// node's recycle (the grace period separates the lives).

#include <algorithm>
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
#include "rcu/urcu.h"

namespace bref {

template <typename K, typename V>
class EbrRqCitrus {
 public:
  struct Node {
    K key;
    V val;
    Spinlock lock;
    std::atomic<bool> marked{false};
    std::atomic<Node*> child[2];
    std::atomic<uint64_t> tag[2];
    std::atomic<uint64_t> itime{EbrRqProvider<Node, K, V>::kInfTs};
    std::atomic<uint64_t> dtime{EbrRqProvider<Node, K, V>::kInfTs};
    // Limbo chain while parked, pool free-list link while recycled (the
    // child pointers must stay walkable for pinned readers).
    std::atomic<Node*> limbo_next{nullptr};
    const int32_t pool_tid;

    explicit Node(int32_t owner) : key{}, val{}, pool_tid(owner) {
      child[0].store(nullptr, std::memory_order_relaxed);
      child[1].store(nullptr, std::memory_order_relaxed);
      tag[0].store(0, std::memory_order_relaxed);
      tag[1].store(0, std::memory_order_relaxed);
    }

    std::atomic<Node*>& pool_link() { return limbo_next; }
    static constexpr size_t kPoolPoisonBytes = sizeof(K) + sizeof(V);
    static void recycle(Node* n) { EntryPool<Node>::release(n); }
  };
  using Provider = EbrRqProvider<Node, K, V>;

  explicit EbrRqCitrus(EbrRqMode mode = EbrRqMode::kLock)
      : prov_(mode, ebr_) {
    root_ = make_sentinel(key_max_sentinel<K>());
  }

  ~EbrRqCitrus() {
    std::vector<Node*> stack{root_};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (Node* l = n->child[0].load(std::memory_order_relaxed))
        stack.push_back(l);
      if (Node* r = n->child[1].load(std::memory_order_relaxed))
        stack.push_back(r);
      Node::recycle(n);
    }
  }

  EbrRqCitrus(const EbrRqCitrus&) = delete;
  EbrRqCitrus& operator=(const EbrRqCitrus&) = delete;

  bool contains(int tid, K key, V* out = nullptr) const {
    Ebr::Guard g(ebr_, tid);
    const SearchResult r = search(tid, key);
    if (r.curr == nullptr) return false;
    if (out != nullptr) *out = r.curr->val;
    return true;
  }

  bool insert(int tid, K key, V val) {
    assert(key < key_max_sentinel<K>());
    for (;;) {
      Ebr::Guard g(ebr_, tid);
      const SearchResult r = search(tid, key);
      if (r.curr != nullptr) return false;
      std::lock_guard<Spinlock> lk(r.pred->lock);
      if (r.pred->marked.load(std::memory_order_acquire) ||
          r.pred->child[r.dir].load(std::memory_order_acquire) != nullptr ||
          r.pred->tag[r.dir].load(std::memory_order_acquire) != r.tag)
        continue;
      Node* fresh = alloc_node(tid, key, val);
      prov_.insert_op(tid, fresh, [&] {
        r.pred->child[r.dir].store(fresh, std::memory_order_release);
        r.pred->tag[r.dir].fetch_add(1, std::memory_order_relaxed);
      });
      return true;
    }
  }

  bool remove(int tid, K key) {
    for (;;) {
      Ebr::Guard g(ebr_, tid);
      const SearchResult r = search(tid, key);
      if (r.curr == nullptr) return false;
      Node* pred = r.pred;
      Node* curr = r.curr;
      const int dir = r.dir;
      std::unique_lock<Spinlock> lk_pred(pred->lock);
      std::unique_lock<Spinlock> lk_curr(curr->lock);
      if (pred->marked.load(std::memory_order_acquire) ||
          curr->marked.load(std::memory_order_acquire) ||
          pred->child[dir].load(std::memory_order_acquire) != curr)
        continue;
      Node* left = curr->child[0].load(std::memory_order_acquire);
      Node* right = curr->child[1].load(std::memory_order_acquire);
      if (left == nullptr || right == nullptr) {
        Node* splice = left != nullptr ? left : right;
        prov_.remove_op(tid, curr, [&] {
          curr->marked.store(true, std::memory_order_release);
          pred->child[dir].store(splice, std::memory_order_release);
          pred->tag[dir].fetch_add(1, std::memory_order_relaxed);
        });
        return true;
      }
      if (remove_two_children(tid, pred, curr, dir, left, right)) return true;
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
    {
      Urcu::ReadGuard rg(rcu_, tid);
      std::vector<Node*> stack;
      if (Node* t = root_->child[0].load(std::memory_order_acquire))
        stack.push_back(t);
      while (!stack.empty()) {
        Node* n = stack.back();
        stack.pop_back();
        if (n->key >= lo && n->key <= hi && prov_.visible(n, ts))
          out.emplace_back(n->key, n->val);
        if (n->key > lo)
          if (Node* l = n->child[0].load(std::memory_order_acquire))
            stack.push_back(l);
        if (n->key < hi)
          if (Node* r = n->child[1].load(std::memory_order_acquire))
            stack.push_back(r);
      }
    }
    prov_.rq_reconcile(tid, ts, lo, hi, out);
    prov_.rq_end(tid);
    return out.size();
  }

  /// Drain every thread's limbo slot; see Provider::flush_limbo.
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
    in_order(root_->child[0].load(std::memory_order_acquire), v);
    return v;
  }
  size_t size_slow() const { return to_vector().size(); }
  bool check_invariants() const {
    return check_subtree(root_->child[0].load(std::memory_order_acquire),
                         key_min_sentinel<K>(), key_max_sentinel<K>());
  }

 private:
  struct SearchResult {
    Node* pred;
    Node* curr;
    int dir;
    uint64_t tag;
  };

  /// Pool pop + full field reset (see ebrrq_list.h).
  static Node* alloc_node(int tid, K key, V val) {
    Node* n = EntryPool<Node>::instance().acquire(tid);
    n->key = key;
    n->val = val;
    n->marked.store(false, std::memory_order_relaxed);
    n->child[0].store(nullptr, std::memory_order_relaxed);
    n->child[1].store(nullptr, std::memory_order_relaxed);
    n->tag[0].store(0, std::memory_order_relaxed);
    n->tag[1].store(0, std::memory_order_relaxed);
    n->itime.store(Provider::kInfTs, std::memory_order_relaxed);
    n->dtime.store(Provider::kInfTs, std::memory_order_relaxed);
    n->limbo_next.store(nullptr, std::memory_order_relaxed);
    return n;
  }

  /// Heap path for the root sentinel (constructing thread's id unknown).
  static Node* make_sentinel(K key) {
    Node* n = new Node(kPoolMalloced);
    n->key = key;
    n->itime.store(0, std::memory_order_relaxed);
    return n;
  }

  SearchResult search(int tid, K key) const {
    Urcu::ReadGuard rg(rcu_, tid);
    Node* pred = root_;
    int dir = 0;
    uint64_t tag = pred->tag[0].load(std::memory_order_acquire);
    Node* curr = pred->child[0].load(std::memory_order_acquire);
    while (curr != nullptr && curr->key != key) {
      const int d = (key < curr->key) ? 0 : 1;
      pred = curr;
      dir = d;
      tag = pred->tag[d].load(std::memory_order_acquire);
      curr = pred->child[d].load(std::memory_order_acquire);
    }
    return {pred, curr, dir, tag};
  }

  bool remove_two_children(int tid, Node* pred, Node* curr, int dir,
                           Node* left, Node* right) {
    Node* succ_parent = curr;
    Node* succ = right;
    for (;;) {
      Node* l = succ->child[0].load(std::memory_order_acquire);
      if (l == nullptr) break;
      succ_parent = succ;
      succ = l;
    }
    std::unique_lock<Spinlock> lk_sp;
    if (succ_parent != curr)
      lk_sp = std::unique_lock<Spinlock>(succ_parent->lock);
    std::unique_lock<Spinlock> lk_succ(succ->lock);
    bool valid = !succ->marked.load(std::memory_order_acquire) &&
                 succ->child[0].load(std::memory_order_acquire) == nullptr;
    if (succ_parent != curr) {
      valid = valid && !succ_parent->marked.load(std::memory_order_acquire) &&
              succ_parent->child[0].load(std::memory_order_acquire) == succ;
    }
    if (!valid) return false;

    Node* succ_right = succ->child[1].load(std::memory_order_acquire);
    Node* copy = alloc_node(tid, succ->key, succ->val);
    const bool direct = (succ_parent == curr);
    copy->child[0].store(left, std::memory_order_relaxed);
    copy->child[1].store(direct ? succ_right : right,
                         std::memory_order_relaxed);
    prov_.replace_op(
        tid, copy, curr, succ,
        [&] {
          curr->marked.store(true, std::memory_order_release);
          succ->marked.store(true, std::memory_order_release);
          pred->child[dir].store(copy, std::memory_order_release);
          pred->tag[dir].fetch_add(1, std::memory_order_relaxed);
        },
        [&] {
          rcu_.synchronize();
          if (!direct) {
            succ_parent->child[0].store(succ_right,
                                        std::memory_order_release);
            succ_parent->tag[0].fetch_add(1, std::memory_order_relaxed);
          }
        });
    return true;
  }

  void in_order(Node* n, std::vector<std::pair<K, V>>& v) const {
    if (n == nullptr) return;
    in_order(n->child[0].load(std::memory_order_acquire), v);
    v.emplace_back(n->key, n->val);
    in_order(n->child[1].load(std::memory_order_acquire), v);
  }

  bool check_subtree(Node* n, K lo, K hi) const {
    if (n == nullptr) return true;
    if (n->key <= lo || n->key >= hi) return false;
    return check_subtree(n->child[0].load(std::memory_order_acquire), lo,
                         n->key) &&
           check_subtree(n->child[1].load(std::memory_order_acquire), n->key,
                         hi);
  }

  mutable Ebr ebr_;
  mutable Urcu rcu_;
  Provider prov_;
  Node* root_;
};

}  // namespace bref
