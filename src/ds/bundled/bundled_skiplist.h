#pragma once
// Bundled lazy skip list (Section 5).
//
// Base algorithm: Herlihy-Lev-Luchangco-Shavit's optimistic skip list —
// wait-free contains, per-node locks, fullyLinked/marked flags. Only the
// bottom (data) layer carries bundles; index layers keep plain pointers and
// are used by range queries merely to reach the node preceding the range
// (the paper's key optimization).
//
// Linearization points: insert = setting fullyLinked; remove = setting
// marked. Both are book-ended by bundle preparation/finalization via
// linearize_update (Algorithm 1). Unlike HLLS, remove marks the victim
// *after* acquiring and validating all predecessor locks so the
// predecessor's bundle entry can carry the linearization timestamp; lock
// acquisition remains globally ordered by descending key, so the change
// cannot deadlock.

#include <bit>
#include <cassert>
#include <new>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/spinlock.h"
#include "core/bundle.h"
#include "core/global_timestamp.h"
#include "core/rq_tracker.h"
#include "ds/support.h"
#include "epoch/ebr.h"

namespace bref {

template <typename K, typename V>
class BundledSkipList {
 public:
  static constexpr int kMaxHeight = 20;

  /// A 32-byte header followed by exactly top_level + 1 tower links, so
  /// next(0) sits at offset 32. The header leads with what one data-layer
  /// hop reads (key, val, bundle head), so a hop touches one node line
  /// (DESIGN.md §11). Nodes are pooled blocks of exactly that size, one
  /// size class per height, from EntryPool (core/entry_pool.h): the pool
  /// constructs a block once, create() reinitializes it, destroy() hands
  /// it back to its owner's slot. The constructor and destructor are
  /// private, so a plain `new` or `delete` does not compile.
  struct Node {
    K key;
    V val;
    Bundle<Node> bundle;         // history of next(0) only (data layer)
    const int32_t pool_tid;      // owner slot's tid, or kPoolMalloced
    const uint8_t top_level;     // levels 0..top_level are linked
    Spinlock lock;
    std::atomic<bool> marked{false};
    std::atomic<bool> fully_linked{false};

    std::atomic<Node*>& next(int l) {
      assert(l >= 0 && l <= top_level);
      return tower()[l];
    }

    /// A node of height top + 1 from thread `tid`'s pool slot. Its links
    /// are unspecified: insert stores every one before publication.
    static Node* create(int tid, K key, V val, int top) {
      return init(EntryPool<Node>::instance().acquire(tid, top), key, val);
    }

    /// Sentinels are built on the constructing thread, whose dense id is
    /// unknown, so like Bundle::init they take the tagged heap path. Every
    /// link starts null.
    static Node* create_sentinel(K key) {
      return init(EntryPool<Node>::acquire_unpooled(kMaxHeight - 1), key,
                  V{});
    }

    /// Recycle the bundle's chain, then return the block to its owner's
    /// slot (or the heap, for sentinels and the malloc bypass).
    static void destroy(Node* n) {
      n->bundle.clear();
      EntryPool<Node>::release(n);
    }

    // EntryPool duck typing: one size class per height; the free-list link
    // is next(0), unused once EBR's grace period has passed; key, val and
    // the bundle head are ASan-poisoned while pooled.
    static constexpr int kPoolClasses = kMaxHeight;
    static constexpr size_t pool_block_bytes(int cls) {
      return sizeof(Node) + sizeof(std::atomic<Node*>) * (cls + 1);
    }
    static constexpr size_t kPoolPoisonBytes =
        sizeof(K) + sizeof(V) + sizeof(Bundle<Node>);
    int pool_class() const { return top_level; }
    std::atomic<Node*>& pool_link() { return next(0); }

   private:
    friend class EntryPool<Node>;

    Node(int32_t owner, int top)
        : key{}, val{}, pool_tid(owner), top_level(static_cast<uint8_t>(top)) {
      static_assert(sizeof(Node) % alignof(std::atomic<Node*>) == 0);
      for (int l = 0; l <= top; ++l)
        ::new (&tower()[l]) std::atomic<Node*>(nullptr);
    }
    ~Node() = default;  // tower links are trivially destructible

    static Node* init(Node* n, K key, V val) {
      n->key = key;
      n->val = val;
      n->marked.store(false, std::memory_order_relaxed);
      n->fully_linked.store(false, std::memory_order_relaxed);
      return n;
    }

    std::atomic<Node*>* tower() {
      return reinterpret_cast<std::atomic<Node*>*>(this + 1);
    }
  };

  explicit BundledSkipList(uint64_t relax_threshold = 1, bool reclaim = false)
      : gts_(relax_threshold), reclaim_(reclaim) {
    head_ = Node::create_sentinel(key_min_sentinel<K>());
    tail_ = Node::create_sentinel(key_max_sentinel<K>());
    for (int l = 0; l < kMaxHeight; ++l)
      head_->next(l).store(tail_, std::memory_order_relaxed);
    head_->fully_linked.store(true, std::memory_order_relaxed);
    tail_->fully_linked.store(true, std::memory_order_relaxed);
    head_->bundle.init(tail_, 0);
    tail_->bundle.init(nullptr, 0);
    for (int i = 0; i < kMaxThreads; ++i) rngs_[i]->reseed(0x5eed + i);
  }

  ~BundledSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = n->next(0).load(std::memory_order_relaxed);
      Node::destroy(n);
      n = nx;
    }
  }

  BundledSkipList(const BundledSkipList&) = delete;
  BundledSkipList& operator=(const BundledSkipList&) = delete;

  /// Wait-free lookup; never touches bundles (Section 3.4).
  bool contains(int tid, K key, V* out = nullptr) const {
    OptEbrGuard g(ebr_, tid, reclaim_);
    Node* pred = head_;
    Node* found = nullptr;
    for (int l = kMaxHeight - 1; l >= 0; --l) {
      Node* curr = pred->next(l).load(std::memory_order_acquire);
      while (curr->key < key) {
        pred = curr;
        curr = curr->next(l).load(std::memory_order_acquire);
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
      OptEbrGuard g(ebr_, tid, reclaim_);
      const int lf = find(key, preds, succs);
      if (lf != -1) {
        Node* found = succs[lf];
        if (!found->marked.load(std::memory_order_acquire)) {
          // Key present (wait until its insert linearizes, as in HLLS).
          while (!found->fully_linked.load(std::memory_order_acquire))
            cpu_relax();
          return false;
        }
        continue;  // being removed; retry
      }
      LockSet locks;
      bool valid = true;
      for (int l = 0; l <= top && valid; ++l) {
        locks.acquire(preds[l]);
        valid = !preds[l]->marked.load(std::memory_order_acquire) &&
                !succs[l]->marked.load(std::memory_order_acquire) &&
                preds[l]->next(l).load(std::memory_order_acquire) == succs[l];
      }
      if (!valid) continue;  // locks released by LockSet dtor
      Node* fresh = Node::create(tid, key, val, top);
      for (int l = 0; l <= top; ++l)
        fresh->next(l).store(succs[l], std::memory_order_relaxed);
      linearize_update<Node>(
          gts_, tid, {{&fresh->bundle, succs[0]}, {&preds[0]->bundle, fresh}},
          [&] {
            for (int l = 0; l <= top; ++l)
              preds[l]->next(l).store(fresh, std::memory_order_release);
            fresh->fully_linked.store(true, std::memory_order_release);
          });
      return true;
    }
  }

  bool remove(int tid, K key) {
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    for (;;) {
      OptEbrGuard g(ebr_, tid, reclaim_);
      const int lf = find(key, preds, succs);
      if (lf == -1) return false;
      Node* victim = succs[lf];
      if (!victim->fully_linked.load(std::memory_order_acquire) ||
          victim->top_level != lf ||
          victim->marked.load(std::memory_order_acquire))
        return false;
      LockSet locks;
      locks.acquire(victim);
      if (victim->marked.load(std::memory_order_acquire))
        return false;  // lost the race to another remover
      const int top = victim->top_level;
      bool valid = true;
      for (int l = 0; l <= top && valid; ++l) {
        locks.acquire(preds[l]);
        valid = !preds[l]->marked.load(std::memory_order_acquire) &&
                preds[l]->next(l).load(std::memory_order_acquire) == victim;
      }
      if (!valid) continue;
      Node* succ0 = victim->next(0).load(std::memory_order_acquire);
      linearize_update<Node>(
          gts_, tid, {{&preds[0]->bundle, succ0}},
          [&] { victim->marked.store(true, std::memory_order_release); });
      for (int l = top; l >= 0; --l)
        preds[l]->next(l).store(victim->next(l).load(std::memory_order_acquire),
                                std::memory_order_release);
      ebr_.retire(tid, victim,
                  [](void* p) { Node::destroy(static_cast<Node*>(p)); });
      return true;
    }
  }

  /// Linearizable range query: index layers route to the data-layer node
  /// preceding the range; from there the walk uses bundles only. If that
  /// node postdates the snapshot, the query restarts at a newer timestamp.
  size_t range_query(int tid, K lo, K hi, std::vector<std::pair<K, V>>& out) {
    out.clear();
    if (lo > hi) {
      // Trivially empty: linearizes anywhere, so stamp "now".
      *last_rq_ts_[tid] = gts_.read();
      return 0;
    }
    OptEbrGuard g(ebr_, tid, reclaim_);
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    *last_rq_ts_[tid] = rq_.snapshot(tid, gts_, [&](timestamp_t ts) {
      find(lo, preds, succs);
      return walk(preds[0], ts, lo, hi, out);
    });
    return out.size();
  }

  /// Snapshot timestamp the calling thread's last completed range query
  /// linearized at (surfaced as RangeSnapshot::timestamp()).
  timestamp_t last_rq_timestamp(int tid) const { return *last_rq_ts_[tid]; }

  /// Ablation of the index-assisted entry (Section 5): reach the range by
  /// walking the data layer through bundles from the head sentinel,
  /// ignoring the index layers entirely. Returns the identical snapshot;
  /// quantifies what the index-layer routing saves (O(n) bundle hops vs
  /// O(log n) plain-pointer hops to the range).
  size_t range_query_from_start(int tid, K lo, K hi,
                                std::vector<std::pair<K, V>>& out) {
    out.clear();
    if (lo > hi) {
      // Trivially empty: linearizes anywhere, so stamp "now".
      *last_rq_ts_[tid] = gts_.read();
      return 0;
    }
    OptEbrGuard g(ebr_, tid, reclaim_);
    *last_rq_ts_[tid] = rq_.snapshot(tid, gts_, [&](timestamp_t ts) {
      return walk(head_, ts, lo, hi, out);
    });
    return out.size();
  }

  /// Collect [lo, hi] at the externally fixed snapshot timestamp `ts`,
  /// APPENDING to `out` — the coordinated cross-shard protocol (see
  /// bundled_list.h for the full caller contract: tracker announce AND,
  /// when reclaiming, an EBR pin, both established before `ts` was read).
  /// Index layers route to the data-layer node preceding the range as
  /// usual; if the walk from that node fails (it postdates ts), re-enter
  /// through the head sentinel's bundle rather than restarting at a newer
  /// timestamp (there is none to take).
  size_t range_query_at(int tid, timestamp_t ts, K lo, K hi,
                        std::vector<std::pair<K, V>>& out) {
    (void)tid;
    if (lo > hi) return 0;
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    const size_t base = out.size();
    RqTracker::collect_at([&] {
      find(lo, preds, succs);  // preds[0]: data-layer node with key < lo
      return walk(preds[0], ts, lo, hi, out) || walk(head_, ts, lo, hi, out);
    });
    return out.size() - base;
  }

  // -- cleaner hook -------------------------------------------------------
  size_t prune_bundles(int tid) {
    const timestamp_t oldest = rq_.oldest_active(gts_);
    size_t n = 0;
    Ebr::Guard g(ebr_, tid);
    Node* curr = head_;
    while (curr != nullptr) {
      n += curr->bundle.reclaim_older(oldest, ebr_, tid);
      curr = curr->next(0).load(std::memory_order_acquire);
    }
    return n;
  }

  // -- substrate access ---------------------------------------------------
  GlobalTimestamp& global_timestamp() { return gts_; }
  RqTracker& rq_tracker() { return rq_; }
  Ebr& ebr() { return ebr_; }
  bool reclaim_enabled() const { return reclaim_; }

  // -- test-only introspection (quiescent callers) --------------------------
  std::vector<std::pair<K, V>> to_vector() const {
    std::vector<std::pair<K, V>> v;
    for (Node* n = head_->next(0).load(std::memory_order_acquire); n != tail_;
         n = n->next(0).load(std::memory_order_acquire))
      v.emplace_back(n->key, n->val);
    return v;
  }

  size_t size_slow() const { return to_vector().size(); }

  bool check_invariants() const {
    // Sorted data layer; every level-l chain is a subsequence of level l-1;
    // bundle heads match newest level-0 pointers; bundle entry chains are
    // timestamp-ordered newest-first.
    K prev = key_min_sentinel<K>();
    for (Node* n = head_; n != tail_;
         n = n->next(0).load(std::memory_order_acquire)) {
      if (n != head_) {
        if (n->key <= prev) return false;
        prev = n->key;
      }
      if (n->bundle.newest() != n->next(0).load(std::memory_order_acquire))
        return false;
      auto entries = n->bundle.snapshot_entries();
      for (size_t i = 1; i < entries.size(); ++i)
        if (entries[i - 1].first < entries[i].first) return false;
    }
    for (int l = 1; l < kMaxHeight; ++l) {
      K p = key_min_sentinel<K>();
      for (Node* n = head_->next(l).load(std::memory_order_acquire); n != tail_;
           n = n->next(l).load(std::memory_order_acquire)) {
        if (n->key <= p && p != key_min_sentinel<K>()) return false;
        p = n->key;
        if (n->top_level < l) return false;
      }
    }
    return true;
  }

  size_t total_bundle_entries() const {
    size_t n = 0;
    for (Node* c = head_; c != nullptr;
         c = c->next(0).load(std::memory_order_acquire))
      n += c->bundle.size();
    return n;
  }

 private:
  /// RAII holder for the per-operation lock set; deduplicates repeated
  /// nodes (a pred can serve several levels) and releases on destruction.
  class LockSet {
   public:
    void acquire(Node* n) {
      if (count_ > 0 && nodes_[count_ - 1] == n) return;
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

  /// One data-layer hop at snapshot `ts`. The prefetch of the newest
  /// successor is only a hint — that node is usually the snapshot's
  /// successor too, so its line is in flight while the bundle entry is
  /// fetched — and the result comes from the bundle alone (DESIGN.md §11).
  static BundleDeref<Node> hop(Node* curr, timestamp_t ts) {
    __builtin_prefetch(curr->next(0).load(std::memory_order_relaxed));
    return curr->bundle.dereference(ts);
  }

  /// The bundle walk (Algorithm 3, phases 2-3), the only code that reads
  /// the data layer at a snapshot: from `from`, the head sentinel or a node
  /// preceding the range, hop() at `ts` past every key below `lo`, then
  /// append every node up to `hi` to `out`. `from` itself is never
  /// appended. Returns false, with `out` as it was, when a hop finds no
  /// entry <= ts: that link postdates the snapshot.
  bool walk(Node* from, timestamp_t ts, K lo, K hi,
            std::vector<std::pair<K, V>>& out) const {
    const size_t base = out.size();
    for (Node* curr = from;;) {
      auto d = hop(curr, ts);
      if (!d.found) {
        out.resize(base);
        return false;
      }
      curr = d.ptr;
      if (curr == tail_ || curr->key > hi) return true;
      if (curr->key >= lo) out.emplace_back(curr->key, curr->val);
    }
  }

  int find(K key, Node** preds, Node** succs) const {
    int lf = -1;
    Node* pred = head_;
    for (int l = kMaxHeight - 1; l >= 0; --l) {
      Node* curr = pred->next(l).load(std::memory_order_acquire);
      while (curr->key < key) {
        pred = curr;
        curr = curr->next(l).load(std::memory_order_acquire);
      }
      if (lf == -1 && curr->key == key) lf = l;
      preds[l] = pred;
      succs[l] = curr;
    }
    return lf;
  }

  int random_level(int tid) {
    const uint64_t r = rngs_[tid]->next_u64();
    const int lvl = std::countr_zero(r | (1ull << (kMaxHeight - 1)));
    return lvl;
  }

  GlobalTimestamp gts_;
  RqTracker rq_;
  mutable Ebr ebr_;
  const bool reclaim_;
  Node* head_;
  Node* tail_;
  mutable CachePadded<Xoshiro256> rngs_[kMaxThreads];
  CachePadded<timestamp_t> last_rq_ts_[kMaxThreads] = {};
};

}  // namespace bref
