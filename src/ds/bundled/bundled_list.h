#pragma once
// Bundled lazy sorted linked list (Section 4).
//
// Base algorithm: Heller et al.'s lazy list — wait-free contains, per-node
// spinlocks for updates, logical deletion via a marked flag. Bundling
// replaces the next pointer with a bundled reference: the newest pointer
// (`next`) plus a Bundle recording the pointer's history (Listing 2). Range
// queries fix a snapshot timestamp, traverse optimistically (newest
// pointers) up to the node preceding the range, then walk exclusively
// through bundles so they visit exactly the nodes belonging to the snapshot
// (the minimality property).
//
// Memory: physically removed nodes are parked in EBR; with reclamation
// enabled (`reclaim=true`) they are freed after a grace period, otherwise
// at destruction (the paper's leaky benchmark mode).

#include <cassert>
#include <mutex>
#include <utility>
#include <vector>

#include "common/spinlock.h"
#include "core/bundle.h"
#include "core/global_timestamp.h"
#include "core/rq_tracker.h"
#include "ds/support.h"
#include "epoch/ebr.h"

namespace bref {

template <typename K, typename V>
class BundledList {
 public:
  struct Node {
    const K key;
    V val;
    Spinlock lock;
    std::atomic<bool> marked{false};
    std::atomic<Node*> next{nullptr};  // newestNextPtr (Listing 2)
    Bundle<Node> bundle;               // nextPtrBundle

    Node(K k, V v) : key(k), val(v) {}
  };

  explicit BundledList(uint64_t relax_threshold = 1, bool reclaim = false)
      : gts_(relax_threshold), reclaim_(reclaim) {
    head_ = new Node(key_min_sentinel<K>(), V{});
    tail_ = new Node(key_max_sentinel<K>(), V{});
    head_->next.store(tail_, std::memory_order_relaxed);
    head_->bundle.init(tail_, 0);  // Figure 1: initial link at timestamp 0
    tail_->bundle.init(nullptr, 0);
  }

  ~BundledList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = n->next.load(std::memory_order_relaxed);
      delete n;
      n = nx;
    }
    // Removed nodes parked in EBR bags are freed by ~Ebr().
  }

  BundledList(const BundledList&) = delete;
  BundledList& operator=(const BundledList&) = delete;

  /// Wait-free; identical to the unbundled lazy list (Section 3.4).
  bool contains(int tid, K key, V* out = nullptr) const {
    OptEbrGuard g(ebr_, tid, reclaim_);
    Node* curr = head_->next.load(std::memory_order_acquire);
    while (curr->key < key) curr = curr->next.load(std::memory_order_acquire);
    if (curr->key != key || curr->marked.load(std::memory_order_acquire))
      return false;
    if (out != nullptr) *out = curr->val;
    return true;
  }

  /// Algorithm 4. Only the predecessor is locked (the lazy-list
  /// optimization the pending-entry wait exists to support).
  bool insert(int tid, K key, V val) {
    assert(key > key_min_sentinel<K>() && key < key_max_sentinel<K>());
    for (;;) {
      OptEbrGuard g(ebr_, tid, reclaim_);
      auto [pred, curr] = traverse(key);
      std::lock_guard<Spinlock> lk(pred->lock);
      if (!validate_links(pred, curr)) continue;
      if (curr->key == key) return false;
      Node* fresh = new Node(key, val);
      fresh->next.store(curr, std::memory_order_relaxed);
      // Two bundles change: the new node's (-> curr) and the predecessor's
      // (-> fresh); the linearization point is swinging pred->next.
      linearize_update<Node>(
          gts_, tid, {{&fresh->bundle, curr}, {&pred->bundle, fresh}},
          [&] { pred->next.store(fresh, std::memory_order_release); });
      return true;
    }
  }

  bool remove(int tid, K key) {
    for (;;) {
      OptEbrGuard g(ebr_, tid, reclaim_);
      auto [pred, curr] = traverse(key);
      if (curr->key != key) return false;
      std::scoped_lock lk(pred->lock, curr->lock);
      if (!validate_links(pred, curr) ||
          curr->marked.load(std::memory_order_acquire))
        continue;
      Node* succ = curr->next.load(std::memory_order_acquire);
      // Linearization is the logical delete; pred's bundle records the
      // post-removal link with the same timestamp because the physical
      // unlink shares this critical section (Section 4). The removed
      // node's own bundle is left untouched.
      linearize_update<Node>(
          gts_, tid, {{&pred->bundle, succ}},
          [&] { curr->marked.store(true, std::memory_order_release); });
      pred->next.store(succ, std::memory_order_release);
      ebr_.retire(tid, curr);
      return true;
    }
  }

  /// Linearizable range query (Algorithm 3): inclusive [lo, hi]. Enters
  /// at the optimistic seek (newest pointers) to the node preceding the
  /// range; if that node was inserted after the snapshot, its bundle has no
  /// entry <= ts and the query restarts at a newer timestamp.
  size_t range_query(int tid, K lo, K hi, std::vector<std::pair<K, V>>& out) {
    out.clear();
    if (lo > hi) {
      // Trivially empty: linearizes anywhere, so stamp "now".
      *last_rq_ts_[tid] = gts_.read();
      return 0;
    }
    OptEbrGuard g(ebr_, tid, reclaim_);
    *last_rq_ts_[tid] = rq_.snapshot(tid, gts_, [&](timestamp_t ts) {
      return walk(traverse(lo).first, ts, lo, hi, out);
    });
    return out.size();
  }

  /// Snapshot timestamp the calling thread's last completed range query
  /// linearized at (surfaced as RangeSnapshot::timestamp()).
  timestamp_t last_rq_timestamp(int tid) const { return *last_rq_ts_[tid]; }

  /// Ablation of the paper's entry-path optimization (Section 4): enter the
  /// range walking strictly through bundles from the head sentinel instead
  /// of the optimistic newest-pointer traversal. Returns the identical
  /// snapshot; every pre-range hop costs a bundle dereference, which is
  /// what bench/ablation_entry_path quantifies.
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
  /// APPENDING to `out` — the shard layer's coordinated cross-shard range
  /// query (src/shard/sharded_set.h; capability: coordinated_rq). Caller
  /// preconditions, both established BEFORE `ts` was read off the shared
  /// clock: (1) an announce of `ts` in rq_tracker() — it fences the
  /// cleaner (any prune concurrent with it used a bound <= ts, so every
  /// node live at ts keeps an entry satisfying ts); (2) when reclaiming,
  /// an EBR pin on ebr() — a node removed after ts was then retired while
  /// the caller was pinned, so the walk cannot touch freed memory (the
  /// single-structure range_query gets both orderings by pinning and
  /// announcing before it reads the clock). Unlike range_query there is
  /// no newer timestamp to restart to: if the walk from the optimistic
  /// pre-seek fails (the pred was inserted after ts), we re-enter through
  /// the head sentinel's bundle (whose timestamp-0 entry always satisfies
  /// an announced ts) instead.
  size_t range_query_at(int tid, timestamp_t ts, K lo, K hi,
                        std::vector<std::pair<K, V>>& out) {
    (void)tid;
    if (lo > hi) return 0;
    const size_t base = out.size();
    RqTracker::collect_at([&] {
      return walk(traverse(lo).first, ts, lo, hi, out) ||
             walk(head_, ts, lo, hi, out);
    });
    return out.size() - base;
  }

  // -- cleaner hook (supplementary B) ------------------------------------
  /// Prune bundle entries no active range query can need. Returns the
  /// number of entries retired. `tid` must be a dedicated cleaner slot.
  size_t prune_bundles(int tid) {
    const timestamp_t oldest = rq_.oldest_active(gts_);
    size_t n = 0;
    Ebr::Guard g(ebr_, tid);
    Node* curr = head_;
    while (curr != nullptr) {
      n += curr->bundle.reclaim_older(oldest, ebr_, tid);
      curr = curr->next.load(std::memory_order_acquire);
    }
    return n;
  }

  // -- substrate access (benches, cleaner thread) -------------------------
  GlobalTimestamp& global_timestamp() { return gts_; }
  RqTracker& rq_tracker() { return rq_; }
  Ebr& ebr() { return ebr_; }
  bool reclaim_enabled() const { return reclaim_; }

  /// Counters for this node type's bundle-entry pool (shared by every
  /// instance over the same K/V; see core/entry_pool.h).
  EntryPoolStats entry_pool_stats() const {
    return EntryPool<BundleEntry<Node>>::instance().stats();
  }
  /// Pooled vs malloc ablation toggle; flip only while quiescent.
  static void set_entry_pooling(bool on) {
    EntryPool<BundleEntry<Node>>::instance().set_pooling_enabled(on);
  }

  // -- test-only introspection (quiescent callers) ------------------------
  std::vector<std::pair<K, V>> to_vector() const {
    std::vector<std::pair<K, V>> v;
    for (Node* n = head_->next.load(std::memory_order_acquire); n != tail_;
         n = n->next.load(std::memory_order_acquire))
      v.emplace_back(n->key, n->val);
    return v;
  }

  size_t size_slow() const { return to_vector().size(); }

  /// Structural invariants: strictly sorted live chain, bundle heads match
  /// newest pointers, bundle timestamps strictly ordered.
  bool check_invariants() const {
    K prev = key_min_sentinel<K>();
    for (Node* n = head_; n != tail_;
         n = n->next.load(std::memory_order_acquire)) {
      if (n != head_ && n->key <= prev) return false;
      if (n != head_) prev = n->key;
      if (n->bundle.newest() != n->next.load(std::memory_order_acquire))
        return false;
      auto entries = n->bundle.snapshot_entries();
      for (size_t i = 1; i < entries.size(); ++i)
        if (entries[i - 1].first < entries[i].first) return false;
    }
    return true;
  }

  size_t total_bundle_entries() const {
    size_t n = 0;
    for (Node* c = head_; c != nullptr;
         c = c->next.load(std::memory_order_acquire))
      n += c->bundle.size();
    return n;
  }

 private:
  std::pair<Node*, Node*> traverse(K key) const {
    Node* pred = head_;
    Node* curr = pred->next.load(std::memory_order_acquire);
    while (curr->key < key) {
      pred = curr;
      curr = curr->next.load(std::memory_order_acquire);
    }
    return {pred, curr};
  }

  /// The bundle walk (Algorithm 3, phases 2-3), the only code that reads
  /// the list at a snapshot: from `from`, the head sentinel or a node
  /// preceding the range, hop bundles at `ts` past every key below `lo`,
  /// then append every node up to `hi` to `out`. `from` itself is never
  /// appended. Returns false, with `out` as it was, when a hop finds no
  /// entry <= ts: that link postdates the snapshot.
  bool walk(Node* from, timestamp_t ts, K lo, K hi,
            std::vector<std::pair<K, V>>& out) const {
    const size_t base = out.size();
    for (Node* curr = from;;) {
      auto d = curr->bundle.dereference(ts);
      if (!d.found) {
        out.resize(base);
        return false;
      }
      curr = d.ptr;
      if (curr == tail_ || curr->key > hi) return true;
      if (curr->key >= lo) out.emplace_back(curr->key, curr->val);
    }
  }

  bool validate_links(Node* pred, Node* curr) const {
    return !pred->marked.load(std::memory_order_acquire) &&
           pred->next.load(std::memory_order_acquire) == curr;
  }

  GlobalTimestamp gts_;
  RqTracker rq_;
  mutable Ebr ebr_;
  const bool reclaim_;
  Node* head_;
  Node* tail_;
  CachePadded<timestamp_t> last_rq_ts_[kMaxThreads] = {};
};

}  // namespace bref
