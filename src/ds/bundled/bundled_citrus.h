#pragma once
// Bundled Citrus tree (Section 6).
//
// Base algorithm: the Citrus unbalanced internal BST (Arbel & Attiya,
// PODC'14) — traversals inside wait-free RCU read-side sections,
// fine-grained per-node locks with marked-flag validation, and the classic
// copy-the-successor removal for two-children nodes, with synchronize_rcu()
// before unlinking the moved successor. Every child link is a bundled
// reference (newest pointer + bundle).
//
// Bundles changed per operation:
//   insert:              pred.child[dir] -> new, new.left -> null,
//                        new.right -> null
//   remove (0/1 child):  pred.child[dir] -> spliced child
//   remove (2 children, succParent != curr):
//                        pred.child[dir] -> copy, copy.left -> curr.left,
//                        copy.right -> curr.right,
//                        succParent.left -> succ.right
//   remove (2 children, succParent == curr, i.e. succ == curr.right):
//                        pred.child[dir] -> copy, copy.left -> curr.left,
//                        copy.right -> succ.right
//
// Paper deviation (DESIGN.md §1): the paper says the successor's parent's
// bundle is "updated to be null"; we record the physically-correct splice
// (succ.right), which equals null exactly when the successor is a leaf —
// a literal null would orphan the successor's right subtree in snapshots.
//
// Range-query entry (DESIGN.md §1): we descend from the root *via bundles*
// rather than optimistically. In a tree, an optimistic descent can be
// routed by a copy node installed after the snapshot and miss keys that
// were since removed; under a total key order (list, skip list) the paper's
// optimistic entry is safe, here it is not.

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "common/spinlock.h"
#include "core/bundle.h"
#include "core/global_timestamp.h"
#include "core/rq_tracker.h"
#include "ds/support.h"
#include "epoch/ebr.h"
#include "rcu/urcu.h"

namespace bref {

template <typename K, typename V>
class BundledCitrus {
 public:
  struct Node {
    const K key;
    V val;
    Spinlock lock;
    std::atomic<bool> marked{false};
    std::atomic<Node*> child[2];   // newest pointers; 0 = left, 1 = right
    std::atomic<uint64_t> tag[2];  // bumped on every child store; guards
                                   // null-child validation against ABA
    Bundle<Node> bundles[2];

    Node(K k, V v) : key(k), val(v) {
      child[0].store(nullptr, std::memory_order_relaxed);
      child[1].store(nullptr, std::memory_order_relaxed);
      tag[0].store(0, std::memory_order_relaxed);
      tag[1].store(0, std::memory_order_relaxed);
    }
  };

  explicit BundledCitrus(uint64_t relax_threshold = 1, bool reclaim = false)
      : gts_(relax_threshold), reclaim_(reclaim) {
    root_ = new Node(key_max_sentinel<K>(), V{});
    root_->bundles[0].init(nullptr, 0);
    root_->bundles[1].init(nullptr, 0);
  }

  ~BundledCitrus() {
    std::vector<Node*> stack{root_};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (Node* l = n->child[0].load(std::memory_order_relaxed))
        stack.push_back(l);
      if (Node* r = n->child[1].load(std::memory_order_relaxed))
        stack.push_back(r);
      delete n;
    }
  }

  BundledCitrus(const BundledCitrus&) = delete;
  BundledCitrus& operator=(const BundledCitrus&) = delete;

  bool contains(int tid, K key, V* out = nullptr) const {
    OptEbrGuard g(ebr_, tid, reclaim_);
    const SearchResult r = search(tid, key);
    if (r.curr == nullptr) return false;
    if (out != nullptr) *out = r.curr->val;
    return true;
  }

  bool insert(int tid, K key, V val) {
    assert(key < key_max_sentinel<K>());
    for (;;) {
      OptEbrGuard g(ebr_, tid, reclaim_);
      const SearchResult r = search(tid, key);
      if (r.curr != nullptr) return false;
      std::lock_guard<Spinlock> lk(r.pred->lock);
      if (r.pred->marked.load(std::memory_order_acquire) ||
          r.pred->child[r.dir].load(std::memory_order_acquire) != nullptr ||
          r.pred->tag[r.dir].load(std::memory_order_acquire) != r.tag)
        continue;
      Node* fresh = new Node(key, val);
      linearize_update<Node>(
          gts_, pruner_, tid,
          {{&r.pred->bundles[r.dir], fresh},
           {&fresh->bundles[0], nullptr},
           {&fresh->bundles[1], nullptr}},
          [&] {
            r.pred->child[r.dir].store(fresh, std::memory_order_release);
            r.pred->tag[r.dir].fetch_add(1, std::memory_order_relaxed);
          });
      return true;
    }
  }

  bool remove(int tid, K key) {
    for (;;) {
      OptEbrGuard g(ebr_, tid, reclaim_);
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
        remove_simple(tid, pred, curr, dir, left != nullptr ? left : right);
        return true;
      }
      if (remove_two_children(tid, pred, curr, dir, left, right)) return true;
      // Successor validation failed: release and retry.
    }
  }

  /// Linearizable range query over [lo, hi]; result sorted by key.
  /// Collected by range_query_at at the timestamp this call announces;
  /// `ts_out`, when given, receives that timestamp (surfaced as
  /// RangeSnapshot::timestamp()).
  size_t range_query(int tid, K lo, K hi, std::vector<std::pair<K, V>>& out,
                     timestamp_t* ts_out = nullptr) {
    out.clear();
    OptEbrGuard g(ebr_, tid, reclaim_);
    const timestamp_t stamp = rq_.snapshot(tid, gts_, [&](timestamp_t ts) {
      range_query_at(tid, ts, lo, hi, out);
    });
    if (ts_out != nullptr) *ts_out = stamp;
    return out.size();
  }

  /// Collect [lo, hi] at the externally fixed snapshot timestamp `ts`,
  /// APPENDING to `out` — range_query's collection and the coordinated
  /// cross-shard protocol (see bundled_list.h for the full caller
  /// contract: tracker announce AND, when reclaiming, an EBR pin, both
  /// established before `ts` was read). The descent is bundle-only from
  /// the root sentinel, whose version always satisfies an announced ts.
  size_t range_query_at(int tid, timestamp_t ts, K lo, K hi,
                        std::vector<std::pair<K, V>>& out) {
    (void)tid;
    const size_t base = out.size();
    walk(ts, lo, hi, out);
    return out.size() - base;
  }

  // -- maintenance hook (see bundled_list.h) ------------------------------
  size_t prune_bundles(int tid) {
    return pruner_.sweep(tid, [&](auto&& cut) {
      std::vector<Node*> stack{root_};
      while (!stack.empty()) {
        Node* node = stack.back();
        stack.pop_back();
        cut(node->bundles[0]);
        cut(node->bundles[1]);
        if (Node* l = node->child[0].load(std::memory_order_acquire))
          stack.push_back(l);
        if (Node* r = node->child[1].load(std::memory_order_acquire))
          stack.push_back(r);
      }
    });
  }

  // -- substrate access ---------------------------------------------------
  GlobalTimestamp& global_timestamp() { return gts_; }
  RqTracker& rq_tracker() { return rq_; }
  Ebr& ebr() { return ebr_; }
  bool reclaim_enabled() const { return reclaim_; }

  // -- test-only introspection (quiescent callers) --------------------------
  std::vector<std::pair<K, V>> to_vector() const {
    std::vector<std::pair<K, V>> v;
    in_order(root_->child[0].load(std::memory_order_acquire), v);
    return v;
  }

  size_t size_slow() const { return to_vector().size(); }

  bool check_invariants() const {
    // BST order with interval bounds; bundles' newest links match the
    // children.
    return check_subtree(root_->child[0].load(std::memory_order_acquire),
                         key_min_sentinel<K>(), key_max_sentinel<K>()) &&
           root_->bundles[0].newest() ==
               root_->child[0].load(std::memory_order_acquire);
  }

  size_t total_bundle_entries() const {
    size_t n = root_->bundles[0].size() + root_->bundles[1].size();
    std::vector<Node*> stack;
    if (Node* t = root_->child[0].load(std::memory_order_acquire))
      stack.push_back(t);
    while (!stack.empty()) {
      Node* node = stack.back();
      stack.pop_back();
      n += node->bundles[0].size() + node->bundles[1].size();
      if (Node* l = node->child[0].load(std::memory_order_acquire))
        stack.push_back(l);
      if (Node* r = node->child[1].load(std::memory_order_acquire))
        stack.push_back(r);
    }
    return n;
  }

 private:
  struct SearchResult {
    Node* pred;
    Node* curr;  // null if key absent
    int dir;     // curr == pred->child[dir]
    uint64_t tag;
  };

  /// Wait-free traversal inside an RCU read-side critical section. Tags are
  /// read before children so a stale (tag, child) pair always fails
  /// validation rather than silently passing.
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

  /// The bundle walk, the only code that reads the tree at a snapshot:
  /// descend via bundles at `ts` from the root sentinel to the root of the
  /// smallest subtree covering [lo, hi], collect that subtree's in-range
  /// keys depth-first into `out`, then sort what was appended. The root
  /// sentinel is the entry rule's whole path here (DESIGN.md §1, §4). A
  /// link past it always has a version <= ts under the announce contract;
  /// if one did not, the walk would take it as null.
  void walk(timestamp_t ts, K lo, K hi,
            std::vector<std::pair<K, V>>& out) const {
    auto child = [ts](const Node* n, int dir) {
      const auto d = n->bundles[dir].dereference(ts);
      assert(d.found && "a link postdates ts: not announced?");
      return d.ptr;
    };
    Node* m = child(root_, 0);
    while (m != nullptr && (m->key < lo || m->key > hi))
      m = child(m, m->key < lo ? 1 : 0);
    if (m == nullptr) return;
    const size_t base = out.size();
    std::vector<Node*> stack{m};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (n->key >= lo && n->key <= hi) out.emplace_back(n->key, n->val);
      // A subtree can intersect the range only on the range's side of n.
      Node* const l = n->key > lo ? child(n, 0) : nullptr;
      Node* const r = n->key < hi ? child(n, 1) : nullptr;
      if (l != nullptr) stack.push_back(l);
      if (r != nullptr) stack.push_back(r);
    }
    std::sort(out.begin() + static_cast<ptrdiff_t>(base), out.end());
  }

  void remove_simple(int tid, Node* pred, Node* curr, int dir, Node* splice) {
    linearize_update<Node>(
        gts_, pruner_, tid, {{&pred->bundles[dir], splice}},
        [&] {
          curr->marked.store(true, std::memory_order_release);
          pred->child[dir].store(splice, std::memory_order_release);
          pred->tag[dir].fetch_add(1, std::memory_order_relaxed);
        });
    ebr_.retire(tid, curr);
  }

  /// Two-children removal; caller holds pred and curr locks and has
  /// validated them. Returns false if successor validation failed.
  bool remove_two_children(int tid, Node* pred, Node* curr, int dir,
                           Node* left, Node* right) {
    // Locate the successor (leftmost node of the right subtree). The walk
    // runs over newest pointers; EBR pinning keeps the nodes alive and the
    // post-lock validation catches concurrent restructuring.
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
    Node* copy = new Node(succ->key, succ->val);
    if (succ_parent == curr) {
      // succ == curr->right: the copy replaces both curr and succ.
      copy->child[0].store(left, std::memory_order_relaxed);
      copy->child[1].store(succ_right, std::memory_order_relaxed);
      linearize_update<Node>(
          gts_, pruner_, tid,
          {{&pred->bundles[dir], copy},
           {&copy->bundles[0], left},
           {&copy->bundles[1], succ_right}},
          [&] {
            curr->marked.store(true, std::memory_order_release);
            succ->marked.store(true, std::memory_order_release);
            pred->child[dir].store(copy, std::memory_order_release);
            pred->tag[dir].fetch_add(1, std::memory_order_relaxed);
          });
      rcu_.synchronize();  // readers routed through curr/succ finish
    } else {
      copy->child[0].store(left, std::memory_order_relaxed);
      copy->child[1].store(right, std::memory_order_relaxed);
      linearize_update<Node>(
          gts_, pruner_, tid,
          {{&pred->bundles[dir], copy},
           {&copy->bundles[0], left},
           {&copy->bundles[1], right},
           {&succ_parent->bundles[0], succ_right}},
          [&] {
            curr->marked.store(true, std::memory_order_release);
            succ->marked.store(true, std::memory_order_release);
            pred->child[dir].store(copy, std::memory_order_release);
            pred->tag[dir].fetch_add(1, std::memory_order_relaxed);
          });
      // Wait for readers that may be en route to the successor's old
      // position, then physically unlink it (Citrus's RCU step).
      rcu_.synchronize();
      succ_parent->child[0].store(succ_right, std::memory_order_release);
      succ_parent->tag[0].fetch_add(1, std::memory_order_relaxed);
    }
    ebr_.retire(tid, curr);
    ebr_.retire(tid, succ);
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
    Node* l = n->child[0].load(std::memory_order_acquire);
    Node* r = n->child[1].load(std::memory_order_acquire);
    if (n->bundles[0].newest() != l || n->bundles[1].newest() != r)
      return false;
    // Both child bundles' entry chains must be timestamp-ordered
    // newest-first.
    for (int c = 0; c < 2; ++c) {
      auto entries = n->bundles[c].snapshot_entries();
      for (size_t i = 1; i < entries.size(); ++i)
        if (entries[i - 1].first < entries[i].first) return false;
    }
    return check_subtree(l, lo, n->key) && check_subtree(r, n->key, hi);
  }

  GlobalTimestamp gts_;
  RqTracker rq_;
  mutable Ebr ebr_;
  mutable Urcu rcu_;
  const bool reclaim_;
  BundlePruner pruner_{gts_, rq_, ebr_, reclaim_};
  Node* root_;
};

}  // namespace bref
