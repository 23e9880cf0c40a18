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

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <type_traits>
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
  /// Most cursors one snapshot walk advances at once (walk(), DESIGN.md
  /// §4 and §11).
  static constexpr int kMaxCursors = 8;
  /// Fewest nodes, as the count of tall nodes estimates them, at which a
  /// walk takes more than one cursor (plan()). Below it the nodes (64 B on
  /// average) fit in a 2 MiB core cache, a hop costs about 10 ns, and a
  /// later cursor's seek and staging cost more than its overlapped misses
  /// save on ranges of 50-100 keys (DESIGN.md §4).
  static constexpr int64_t kCursorMinNodes = int64_t{1} << 15;

  /// A 48-byte header followed by exactly top_level + 1 tower links, so
  /// next(0) sits at offset 48. The header leads with what one data-layer
  /// hop reads (key, val, the bundle's inline stamp and pointer: bytes 0
  /// to 32), so a hop whose snapshot takes the newest version touches one
  /// node line and no bundle entry (DESIGN.md §11). Nodes are pooled
  /// blocks of exactly that size, one size class per height, from
  /// EntryPool (core/entry_pool.h): the pool constructs a block once,
  /// create() reinitializes it, destroy() hands it back to its owner's
  /// slot. The constructor and destructor are private, so a plain `new` or
  /// `delete` does not compile.
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
    /// unknown, so they take the tagged heap path. Every link starts null.
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
    // the bundle (inline pair and chain root) are ASan-poisoned while
    // pooled.
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
          gts_, pruner_, tid,
          {{&fresh->bundle, succs[0]}, {&preds[0]->bundle, fresh}},
          [&] {
            for (int l = 0; l <= top; ++l)
              preds[l]->next(l).store(fresh, std::memory_order_release);
            fresh->fully_linked.store(true, std::memory_order_release);
          });
      if (top >= kTallLevel) tall_->fetch_add(1, std::memory_order_relaxed);
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
          gts_, pruner_, tid, {{&preds[0]->bundle, succ0}},
          [&] { victim->marked.store(true, std::memory_order_release); });
      if (top >= kTallLevel) tall_->fetch_sub(1, std::memory_order_relaxed);
      for (int l = top; l >= 0; --l)
        preds[l]->next(l).store(victim->next(l).load(std::memory_order_acquire),
                                std::memory_order_release);
      ebr_.retire(tid, victim,
                  [](void* p) { Node::destroy(static_cast<Node*>(p)); });
      return true;
    }
  }

  /// Linearizable range query: inclusive [lo, hi], collected by
  /// range_query_at at the timestamp this call announces. `ts_out`, when
  /// given, receives that timestamp (surfaced as RangeSnapshot::timestamp()).
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

  /// Ablation of the index-assisted entry (Section 5): reach the range by
  /// walking the data layer through bundles from the head sentinel with
  /// one cursor, ignoring the index layers entirely. Returns the identical
  /// snapshot; quantifies what the index-layer routing saves (O(n) bundle
  /// hops vs O(log n) plain-pointer hops to the range).
  size_t range_query_from_start(int tid, K lo, K hi,
                                std::vector<std::pair<K, V>>& out,
                                timestamp_t* ts_out = nullptr) {
    out.clear();
    OptEbrGuard g(ebr_, tid, reclaim_);
    const timestamp_t stamp = rq_.snapshot(tid, gts_, [&](timestamp_t ts) {
      walk({nullptr, head_, 0, 1}, ts, lo, hi, out);
    });
    if (ts_out != nullptr) *ts_out = stamp;
    return out.size();
  }

  /// Collect [lo, hi] at the externally fixed snapshot timestamp `ts`,
  /// APPENDING to `out` — range_query's collection and the coordinated
  /// cross-shard protocol (see bundled_list.h for the full caller
  /// contract: tracker announce AND, when reclaiming, an EBR pin, both
  /// established before `ts` was read). Index layers route to the range;
  /// cursor 0 enters at the first node of that seek, from the data layer
  /// up, with a version <= ts (the head sentinel at the latest), and the
  /// later cursors seek on from it (walk(), DESIGN.md §4).
  size_t range_query_at(int tid, timestamp_t ts, K lo, K hi,
                        std::vector<std::pair<K, V>>& out) {
    (void)tid;
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    const size_t base = out.size();
    find(lo, preds, succs);  // preds[0]: data-layer node with key < lo
    walk(plan(preds, succs, lo, hi), ts, lo, hi, out);
    return out.size() - base;
  }

  // -- maintenance hook (see bundled_list.h) ------------------------------
  size_t prune_bundles(int tid) {
    return pruner_.sweep(tid, [&](auto&& cut) {
      for (Node* c = head_; c != nullptr;
           c = c->next(0).load(std::memory_order_acquire))
        cut(c->bundle);
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
    for (Node* n = head_->next(0).load(std::memory_order_acquire); n != tail_;
         n = n->next(0).load(std::memory_order_acquire))
      v.emplace_back(n->key, n->val);
    return v;
  }

  size_t size_slow() const { return to_vector().size(); }

  /// Cursors a range query over [lo, hi] would walk with now.
  int cursor_count(K lo, K hi) const {
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    find(lo, preds, succs);
    return plan(preds, succs, lo, hi).n;
  }

  /// First key of cursor i's sub-range when `n` cursors split [lo, hi] by
  /// key width: cursor i collects [cursor_start(i), cursor_start(i + 1) -
  /// 1], and the last one up to hi.
  static K cursor_start(K lo, K hi, int i, int n) {
    static_assert(std::is_integral_v<K>, "cursors split keys by width");
    using U = std::make_unsigned_t<K>;
    const U step = (static_cast<U>(hi) - static_cast<U>(lo)) / U(n);
    return static_cast<K>(static_cast<U>(lo) + step * U(i));
  }

  bool check_invariants() const {
    // Sorted data layer; every level-l chain is a subsequence of level l-1;
    // bundles' newest links match level-0 pointers; bundle versions are
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

  /// Where a walk starts and how many cursors it advances (walk()).
  struct Plan {
    Node* const* seek;  // the seek for lo's preds, or null: the head alone
    Node* finger;       // the seek's preds[top]: later cursors seek on from it
    int top;            // the finger's level
    int n;              // cursors, 1 to kMaxCursors
  };

  /// The plan for [lo, hi] from the seek for lo. `top` is the highest level
  /// whose successor of lo is still <= hi, so the range holds about 2^top
  /// nodes, and a cursor pays for its seek from 16 nodes on: 2^top / 16
  /// cursors, at least 1 and at most kMaxCursors, and no more than one per
  /// 16 keys of width, so an empty or short range keeps one cursor and no
  /// extra seek. A list smaller than kCursorMinNodes keeps one cursor
  /// whatever the range. In a quiescent list a successor's key grows with
  /// its level, so the scan climbs from level 0 and stops at the first one
  /// past hi. Under updates the count is an estimate; every preds[l] is
  /// below lo, so any `top` gives a valid finger.
  Plan plan(Node* const* preds, Node* const* succs, K lo, K hi) const {
    int top = 0;
    while (top + 1 < kMaxHeight && succs[top + 1] != tail_ &&
           succs[top + 1]->key <= hi)
      ++top;
    if (top < 5 || tall_->load(std::memory_order_relaxed) <
                       (kCursorMinNodes >> kTallLevel))
      return {preds, preds[top], top, 1};
    using U = std::make_unsigned_t<K>;
    const U width = static_cast<U>(hi) - static_cast<U>(lo);
    const U by_tower = std::min<U>(U{1} << (top - 4), kMaxCursors);
    return {preds, preds[top], top,
            static_cast<int>(std::min<U>(by_tower, width / 16 + 1))};
  }

  using Items = std::vector<std::pair<K, V>>;

  /// Staging for cursors 1 to kMaxCursors - 1, per thread. It keeps its
  /// capacity between walks, up to kStageKeep pairs a cursor.
  static Items* stage() {
    thread_local Items s[kMaxCursors - 1];
    return s;
  }
  static constexpr size_t kStageKeep = size_t{1} << 12;

  /// The snapshot walk (Algorithm 3, phases 2-3), the only code that reads
  /// the data layer at a snapshot. `p.n` cursors split [lo, hi] by key
  /// width (cursor_start()). Cursor 0 enters by the entry rule (climb());
  /// cursor i > 0 seeks its first key on from the seek for lo (find() from
  /// `p.finger` on level `p.top`) and enters at the data-layer node
  /// preceding it, or is dropped when that node postdates the snapshot:
  /// the cursor before it then runs on through its sub-range. Every entry
  /// dereferences its node's bundle at `ts`, so an entry node is never
  /// appended. The cursors then advance round-robin, one hop each: a hop
  /// skips keys below the cursor's sub-range, appends the rest of it and
  /// prefetches the node its dereference returned, so up to n misses are
  /// in flight at once (DESIGN.md §11). A hop past an entry always finds a
  /// version <= ts under the announce contract; if one did not, its cursor
  /// would stop there. Cursor 0 appends to `out`; the others stage in
  /// per-thread buffers (stage()) that `out` takes in order at the end. A
  /// hop whose snapshot takes the newest version reads only the node's
  /// first 32 bytes (DESIGN.md §11).
  void walk(const Plan& p, timestamp_t ts, K lo, K hi, Items& out) const {
    struct Cursor {
      Node* at;  // next node to visit (prefetched); null once done
      K first;   // the cursor collects [first, last]
      K last;
      Items* dest;
    };
    Cursor cur[kMaxCursors];
    cur[0] = {climb(p.seek, ts), lo, hi, &out};
    __builtin_prefetch(cur[0].at);
    Items* const staged = p.n > 1 ? stage() : nullptr;
    int used = 1;
    for (int i = 1; i < p.n; ++i) {
      const K first = cursor_start(lo, hi, i, p.n);
      Node* preds[kMaxHeight];
      Node* succs[kMaxHeight];
      find(first, preds, succs, p.finger, p.top);
      const auto d = preds[0]->bundle.dereference(ts);
      if (!d.found) continue;  // dropped: the cursor before runs on
      __builtin_prefetch(d.ptr);
      cur[used - 1].last = first - 1;
      staged[used - 1].clear();
      cur[used] = {d.ptr, first, hi, &staged[used - 1]};
      ++used;
    }
    // One hop of `c`; false once the cursor is done.
    auto hop = [&](Cursor& c) {
      Node* const x = c.at;
      if (x == tail_ || x->key > c.last) return false;
      if (x->key >= c.first) c.dest->emplace_back(x->key, x->val);
      const auto d = x->bundle.dereference(ts);
      assert(d.found && "a link past the entry postdates ts: not announced?");
      __builtin_prefetch(d.ptr);
      c.at = d.ptr;
      return d.found;
    };
    // Cursor 0 advances from a local, so a one-cursor walk's chain of hops
    // stays in registers; the later cursors advance in the array.
    Cursor c0 = cur[0];
    for (int live = used; live > 0;) {
      if (c0.at != nullptr && !hop(c0)) {
        c0.at = nullptr;
        --live;
      }
      for (Cursor* c = cur + 1; c != cur + used; ++c) {
        if (c->at != nullptr && !hop(*c)) {
          c->at = nullptr;
          --live;
        }
      }
    }
    for (int i = 0; i + 1 < used; ++i) {
      out.insert(out.end(), staged[i].begin(), staged[i].end());
      if (staged[i].capacity() > kStageKeep) staged[i] = Items();
    }
  }

  /// Cursor 0's first node, by the entry rule (DESIGN.md §4): the
  /// successor at `ts` of the first node of the seek for lo, from the data
  /// layer up, whose bundle has a version <= ts. The seek ran after the
  /// clock read, so a node on it postdates ts only if it was inserted
  /// since. The head sentinel ends the path (with no seek it is the whole
  /// path), and its version always satisfies an announced ts; if it did
  /// not, the cursor would visit nothing.
  Node* climb(Node* const* seek, timestamp_t ts) const {
    for (int l = 0; seek != nullptr && l < kMaxHeight; ++l)
      if (const auto d = seek[l]->bundle.dereference(ts); d.found) return d.ptr;
    const auto d = head_->bundle.dereference(ts);
    assert(d.found && "the head sentinel postdates ts: not announced?");
    return d.found ? d.ptr : tail_;
  }

  int find(K key, Node** preds, Node** succs) const {
    return find(key, preds, succs, head_, kMaxHeight - 1);
  }

  /// The seek for `key` from `pred`, a node below `key` on level `top`:
  /// fills preds and succs on levels top to 0 and returns the highest of
  /// them holding `key`, or -1.
  int find(K key, Node** preds, Node** succs, Node* pred, int top) const {
    int lf = -1;
    for (int l = top; l >= 0; --l) {
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
  BundlePruner pruner_{gts_, rq_, ebr_, reclaim_};
  Node* head_;
  Node* tail_;
  /// Nodes of height above kTallLevel, one in 2^kTallLevel: insert and
  /// remove count them, so the count times 2^kTallLevel estimates the
  /// list's size for plan(). On its own line: it changes on one update in
  /// 2^kTallLevel, and every operation reads head_.
  static constexpr int kTallLevel = 8;
  CachePadded<std::atomic<int64_t>> tall_;
  mutable CachePadded<Xoshiro256> rngs_[kMaxThreads];
};

}  // namespace bref
