#pragma once
// Snapcollector-style lazy skip list — the collector technique (see
// collector.h / sc_list.h) applied to the Herlihy-Lev-Luchangco-Shavit
// optimistic skip list, extending the paper's list-only Snapcollector
// baseline to a logarithmic structure. The point-operation algorithm is
// the standard HLLS one (wait-free contains, per-node locks,
// fullyLinked/marked flags); updates execute their linearization and
// report inside the collector's shared update gate, and range queries
// publish/collect/seal/reconstruct exactly as in the list.
//
// Reclamation: none (leaky), as in sc_list; reports may reference
// physically removed nodes, which the graveyard keeps valid.

#include <bit>
#include <cassert>
#include <mutex>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/random.h"
#include "common/spinlock.h"
#include "common/thread_registry.h"
#include "ds/snapcollector/collector.h"
#include "ds/support.h"

namespace bref {

template <typename K, typename V>
class SnapCollectorSkipList {
 public:
  static constexpr int kMaxHeight = 20;

  struct Node {
    const K key;
    V val;
    const int top_level;
    Spinlock lock;
    std::atomic<bool> marked{false};
    std::atomic<bool> fully_linked{false};
    std::atomic<Node*> next[kMaxHeight];

    Node(K k, V v, int top) : key(k), val(v), top_level(top) {
      for (auto& n : next) n.store(nullptr, std::memory_order_relaxed);
    }
  };

  SnapCollectorSkipList() {
    head_ = new Node(key_min_sentinel<K>(), V{}, kMaxHeight - 1);
    tail_ = new Node(key_max_sentinel<K>(), V{}, kMaxHeight - 1);
    for (int l = 0; l < kMaxHeight; ++l)
      head_->next[l].store(tail_, std::memory_order_relaxed);
    head_->fully_linked.store(true, std::memory_order_relaxed);
    tail_->fully_linked.store(true, std::memory_order_relaxed);
    for (int i = 0; i < kMaxThreads; ++i) rngs_[i]->reseed(0xc0ffee + i);
  }

  ~SnapCollectorSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = n->next[0].load(std::memory_order_relaxed);
      delete n;
      n = nx;
    }
    for (Node* n : graveyard_) delete n;
  }

  SnapCollectorSkipList(const SnapCollectorSkipList&) = delete;
  SnapCollectorSkipList& operator=(const SnapCollectorSkipList&) = delete;

  bool contains(int tid, K key, V* out = nullptr) const {
    (void)tid;
    Node* pred = head_;
    Node* found = nullptr;
    for (int l = kMaxHeight - 1; l >= 0; --l) {
      Node* curr = pred->next[l].load(std::memory_order_acquire);
      while (curr->key < key) {
        pred = curr;
        curr = curr->next[l].load(std::memory_order_acquire);
      }
      if (curr->key == key) {
        found = curr;
        break;
      }
    }
    if (found == nullptr ||
        !found->fully_linked.load(std::memory_order_acquire) ||
        found->marked.load(std::memory_order_acquire))
      return false;
    if (out != nullptr) *out = found->val;
    return true;
  }

  bool insert(int tid, K key, V val) {
    assert(key > key_min_sentinel<K>() && key < key_max_sentinel<K>());
    const int top = random_level(tid);
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    for (;;) {
      const int lf = find(key, preds, succs);
      if (lf != -1) {
        Node* found = succs[lf];
        if (!found->marked.load(std::memory_order_acquire)) {
          while (!found->fully_linked.load(std::memory_order_acquire))
            cpu_relax();
          return false;
        }
        continue;
      }
      LockSet locks;
      bool valid = true;
      for (int l = 0; l <= top && valid; ++l) {
        locks.acquire(preds[l]);
        valid = !preds[l]->marked.load(std::memory_order_acquire) &&
                !succs[l]->marked.load(std::memory_order_acquire) &&
                preds[l]->next[l].load(std::memory_order_acquire) == succs[l];
      }
      if (!valid) continue;
      Node* fresh = new Node(key, val, top);
      for (int l = 0; l <= top; ++l)
        fresh->next[l].store(succs[l], std::memory_order_relaxed);
      {
        typename Core::UpdateWindow w(core_);
        for (int l = 0; l <= top; ++l)
          preds[l]->next[l].store(fresh, std::memory_order_release);
        // Linearization: fullyLinked, inside the report window.
        fresh->fully_linked.store(true, std::memory_order_release);
        core_.report(fresh, key, /*is_insert=*/true);
      }
      return true;
    }
  }

  bool remove(int tid, K key) {
    (void)tid;
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    for (;;) {
      const int lf = find(key, preds, succs);
      if (lf == -1) return false;
      Node* victim = succs[lf];
      if (!victim->fully_linked.load(std::memory_order_acquire) ||
          victim->top_level != lf ||
          victim->marked.load(std::memory_order_acquire))
        return false;
      LockSet locks;
      locks.acquire(victim);
      if (victim->marked.load(std::memory_order_acquire)) return false;
      const int top = victim->top_level;
      bool valid = true;
      for (int l = 0; l <= top && valid; ++l) {
        locks.acquire(preds[l]);
        valid = !preds[l]->marked.load(std::memory_order_acquire) &&
                preds[l]->next[l].load(std::memory_order_acquire) == victim;
      }
      if (!valid) continue;
      {
        typename Core::UpdateWindow w(core_);
        victim->marked.store(true, std::memory_order_release);  // linearize
        core_.report(victim, key, /*is_insert=*/false);
      }
      for (int l = top; l >= 0; --l)
        preds[l]->next[l].store(
            victim->next[l].load(std::memory_order_acquire),
            std::memory_order_release);
      {
        std::lock_guard<Spinlock> g(graveyard_lock_);
        graveyard_.push_back(victim);
      }
      return true;
    }
  }

  size_t range_query(int tid, K lo, K hi, std::vector<std::pair<K, V>>& out) {
    out.clear();
    if (lo > hi) return 0;
    typename Core::Collector col;
    col.lo = lo;
    col.hi = hi;
    core_.publish(tid, &col);
    // Phase 1: index layers route to the range; collect unmarked
    // fully-linked data-layer nodes.
    Node* pred = head_;
    for (int l = kMaxHeight - 1; l >= 0; --l) {
      Node* curr = pred->next[l].load(std::memory_order_acquire);
      while (curr->key < lo) {
        pred = curr;
        curr = curr->next[l].load(std::memory_order_acquire);
      }
    }
    // pred->next[0] is reloaded after the descent, so a key inserted
    // between pred and its old successor may lie below lo: skip it.
    Node* curr = pred->next[0].load(std::memory_order_acquire);
    while (curr->key < lo) curr = curr->next[0].load(std::memory_order_acquire);
    while (curr != tail_ && curr->key <= hi) {
      if (curr->fully_linked.load(std::memory_order_acquire) &&
          !curr->marked.load(std::memory_order_acquire))
        col.collected.push_back(curr);
      curr = curr->next[0].load(std::memory_order_acquire);
    }
    // Phase 2: seal (linearization point), then phase 3: reconstruct.
    auto reports = core_.seal(tid, col);
    Core::reconstruct(col, std::move(reports), out);
    return out.size();
  }

  // -- test-only introspection (quiescent callers) ------------------------
  std::vector<std::pair<K, V>> to_vector() const {
    std::vector<std::pair<K, V>> v;
    for (Node* n = head_->next[0].load(std::memory_order_acquire); n != tail_;
         n = n->next[0].load(std::memory_order_acquire))
      v.emplace_back(n->key, n->val);
    return v;
  }
  size_t size_slow() const { return to_vector().size(); }

  bool check_invariants() const {
    K prev = key_min_sentinel<K>();
    for (Node* n = head_->next[0].load(std::memory_order_acquire); n != tail_;
         n = n->next[0].load(std::memory_order_acquire)) {
      if (n->key <= prev) return false;
      prev = n->key;
    }
    for (int l = 1; l < kMaxHeight; ++l) {
      K p = key_min_sentinel<K>();
      for (Node* n = head_->next[l].load(std::memory_order_acquire);
           n != tail_; n = n->next[l].load(std::memory_order_acquire)) {
        if (n->key <= p && p != key_min_sentinel<K>()) return false;
        p = n->key;
        if (n->top_level < l) return false;
      }
    }
    return true;
  }

 private:
  using Core = SnapCollectorCore<Node, K>;

  class LockSet {
   public:
    void acquire(Node* n) {
      for (int i = 0; i < count_; ++i)
        if (nodes_[i] == n) return;
      n->lock.lock();
      nodes_[count_++] = n;
    }
    ~LockSet() {
      for (int i = count_ - 1; i >= 0; --i) nodes_[i]->lock.unlock();
    }

   private:
    Node* nodes_[kMaxHeight + 1];
    int count_ = 0;
  };

  int find(K key, Node** preds, Node** succs) const {
    int lf = -1;
    Node* pred = head_;
    for (int l = kMaxHeight - 1; l >= 0; --l) {
      Node* curr = pred->next[l].load(std::memory_order_acquire);
      while (curr->key < key) {
        pred = curr;
        curr = curr->next[l].load(std::memory_order_acquire);
      }
      if (lf == -1 && curr->key == key) lf = l;
      preds[l] = pred;
      succs[l] = curr;
    }
    return lf;
  }

  int random_level(int tid) {
    const uint64_t r = rngs_[tid]->next_u64();
    return std::countr_zero(r | (1ull << (kMaxHeight - 1)));
  }

  Node* head_;
  Node* tail_;
  Core core_;
  Spinlock graveyard_lock_;
  std::vector<Node*> graveyard_;
  mutable CachePadded<Xoshiro256> rngs_[kMaxThreads];
};

}  // namespace bref
