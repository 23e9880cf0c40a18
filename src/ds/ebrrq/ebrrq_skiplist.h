#pragma once
// Optimistic skip list with EBR-RQ / EBR-RQ-LF linearizable range queries
// (Arbel-Raviv & Brown; see rq_provider.h).
//
// Nodes come from per-thread EntryPools (core/entry_pool.h) exactly like
// the list's: see ebrrq_list.h. A pooled node keeps its full kMaxHeight
// link array across lives; alloc_node re-stamps top_level and relinks only
// the lanes the new life uses (readers can reach a node only through lanes
// it is linked into, so stale upper lanes are unreachable).

#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/spinlock.h"
#include "core/entry_pool.h"
#include "core/global_timestamp.h"
#include "ds/ebrrq/rq_provider.h"
#include "ds/support.h"
#include "epoch/ebr.h"

namespace bref {

template <typename K, typename V>
class EbrRqSkipList {
 public:
  static constexpr int kMaxHeight = 20;

  struct Node {
    K key;
    V val;
    int top_level;
    Spinlock lock;
    std::atomic<bool> marked{false};
    std::atomic<bool> fully_linked{false};
    std::atomic<Node*> next[kMaxHeight];
    std::atomic<uint64_t> itime{EbrRqProvider<Node, K, V>::kInfTs};
    std::atomic<uint64_t> dtime{EbrRqProvider<Node, K, V>::kInfTs};
    // Limbo chain while parked, pool free-list link while recycled (the
    // `next` lanes must stay walkable for readers crossing a marked node,
    // so the pool cannot borrow them).
    std::atomic<Node*> limbo_next{nullptr};
    const int32_t pool_tid;

    explicit Node(int32_t owner) : key{}, val{}, top_level(0), pool_tid(owner) {
      for (auto& n : next) n.store(nullptr, std::memory_order_relaxed);
    }

    std::atomic<Node*>& pool_link() { return limbo_next; }
    static constexpr size_t kPoolPoisonBytes = sizeof(K) + sizeof(V);
    static void recycle(Node* n) { EntryPool<Node>::release(n); }
  };
  using Provider = EbrRqProvider<Node, K, V>;

  explicit EbrRqSkipList(EbrRqMode mode = EbrRqMode::kLock)
      : prov_(mode, ebr_) {
    head_ = make_sentinel(key_min_sentinel<K>());
    tail_ = make_sentinel(key_max_sentinel<K>());
    for (int l = 0; l < kMaxHeight; ++l)
      head_->next[l].store(tail_, std::memory_order_relaxed);
    for (int i = 0; i < kMaxThreads; ++i) rngs_[i]->reseed(0xbeef + i);
  }

  ~EbrRqSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = n->next[0].load(std::memory_order_relaxed);
      Node::recycle(n);
      n = nx;
    }
  }

  EbrRqSkipList(const EbrRqSkipList&) = delete;
  EbrRqSkipList& operator=(const EbrRqSkipList&) = delete;

  bool contains(int tid, K key, V* out = nullptr) const {
    Ebr::Guard g(ebr_, tid);
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
      Ebr::Guard g(ebr_, tid);
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
      Node* fresh = alloc_node(tid, key, val, top);
      for (int l = 0; l <= top; ++l)
        fresh->next[l].store(succs[l], std::memory_order_relaxed);
      prov_.insert_op(tid, fresh, [&] {
        for (int l = 0; l <= top; ++l)
          preds[l]->next[l].store(fresh, std::memory_order_release);
        fresh->fully_linked.store(true, std::memory_order_release);
      });
      return true;
    }
  }

  bool remove(int tid, K key) {
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    for (;;) {
      Ebr::Guard g(ebr_, tid);
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
      prov_.remove_op(tid, victim, [&] {
        victim->marked.store(true, std::memory_order_release);
        for (int l = top; l >= 0; --l)
          preds[l]->next[l].store(
              victim->next[l].load(std::memory_order_acquire),
              std::memory_order_release);
      });
      return true;
    }
  }

  size_t range_query(int tid, K lo, K hi, std::vector<std::pair<K, V>>& out) {
    out.clear();
    if (lo > hi) {
      prov_.note_trivial_rq(tid);
      return 0;
    }
    Ebr::Guard g(ebr_, tid);
    const uint64_t ts = prov_.rq_begin(tid, lo, hi);
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    find(lo, preds, succs);
    Node* curr = succs[0];
    while (curr != tail_ && curr->key <= hi) {
      if (prov_.visible(curr, ts)) out.emplace_back(curr->key, curr->val);
      curr = curr->next[0].load(std::memory_order_acquire);
    }
    prov_.rq_reconcile(tid, ts, lo, hi, out);
    prov_.rq_end(tid);
    return out.size();
  }

  /// Snapshot timestamp the calling thread's last completed range query
  /// linearized at (surfaced as RangeSnapshot::timestamp()).
  timestamp_t last_rq_timestamp(int tid) const {
    return prov_.last_rq_timestamp(tid);
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
  /// Backlog signal, bumped per limbo park (see rq_provider.h) — preferred
  /// over the Ebr retire path because limbo_size() is this family's
  /// maintenance_backlog().
  void set_maintenance_signal(MaintenanceSignal* s) {
    prov_.set_maintenance_signal(s);
  }
  Provider& provider() { return prov_; }

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
    return true;
  }

 private:
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

  /// Pool pop + field reset (see ebrrq_list.h); lanes 0..top are stored by
  /// insert before publication, lanes above stay stale-but-unreachable.
  static Node* alloc_node(int tid, K key, V val, int top) {
    Node* n = EntryPool<Node>::instance().acquire(tid);
    n->key = key;
    n->val = val;
    n->top_level = top;
    n->marked.store(false, std::memory_order_relaxed);
    n->fully_linked.store(false, std::memory_order_relaxed);
    n->itime.store(Provider::kInfTs, std::memory_order_relaxed);
    n->dtime.store(Provider::kInfTs, std::memory_order_relaxed);
    n->limbo_next.store(nullptr, std::memory_order_relaxed);
    return n;
  }

  /// Heap path for sentinels (constructing thread's id unknown; see
  /// ebrrq_list.h).
  static Node* make_sentinel(K key) {
    Node* n = new Node(kPoolMalloced);
    n->key = key;
    n->top_level = kMaxHeight - 1;
    n->fully_linked.store(true, std::memory_order_relaxed);
    n->itime.store(0, std::memory_order_relaxed);
    return n;
  }

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

  mutable Ebr ebr_;
  Provider prov_;
  Node* head_;
  Node* tail_;
  mutable CachePadded<Xoshiro256> rngs_[kMaxThreads];
};

}  // namespace bref
