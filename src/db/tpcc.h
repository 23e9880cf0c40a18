#pragma once
// MiniDB: an in-memory database substrate standing in for DBx1000 in the
// paper's Figure 4 experiment (see DESIGN.md §1). Tables are preallocated
// row stores; the four *ordered* indexes that TPC-C's transactions exercise
// (order, new-order, order-line, customer-by-name) are instantiated with
// any of this library's range-queryable sets. The benchmark metric is
// index operations per second, mirroring the paper's "throughput of index
// operations" measurement.
//
// Transaction profiles (paper mix: NEW_ORDER 50%, PAYMENT 45%, DELIVERY 5%):
//   NEW_ORDER  - allocates the district's next o_id, inserts into the
//                order, new-order and order-line indexes, updates stock.
//   PAYMENT    - 60%: customer lookup by last name via a range query on
//                the customer-name index; 40%: by id; updates balances.
//   DELIVERY   - range query over the last 100 new-order entries of a
//                district to find the oldest undelivered order, removes
//                it, marks the order delivered and sums its order lines
//                via an order-line range query.
//
// Beyond the paper's three profiles, the remaining two TPC-C transactions
// are implemented so the full spec mix (45/43/4/4/4) can be driven via
// run_full_mix_txn (fig4_tpcc --fullmix); both are read-only and range-
// query heavy, which stresses the techniques under test further:
//   ORDER_STATUS - customer by name (60%) or id, then the customer's most
//                  recent order from a range query over the district's
//                  last 100 orders, then its order lines.
//   STOCK_LEVEL  - order lines of the district's last 20 orders via one
//                  range query; counts distinct items under a threshold.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/cacheline.h"
#include "common/random.h"
#include "common/spinlock.h"
#include "common/thread_registry.h"
#include "db/tpcc_gen.h"

namespace bref::db {

/// Per-transaction RAII session bundle — the sessions-era replacement for
/// MiniDB's raw-tid calling convention (the last big raw-tid consumer in
/// the repo). ONE dense thread id covers every index the transaction
/// touches (the per-thread substrates — EBR epochs, RQ announcements —
/// are per *structure*, so one id is exactly right across all five), and
/// the bundle releases it at commit()/abort() or scope exit:
///
///   { auto txn = db.begin_txn(); db.run_mixed_txn(txn, rng, st); }
///
/// MiniDB applies index effects eagerly (no undo log), so commit and
/// abort are equivalent: both end the bundle and free the id for reuse.
/// Benchmark drivers pinning dense ids 0..n-1 use begin_txn(tid), which
/// borrows the id without touching the global ThreadRegistry.
class Txn {
 public:
  /// Auto-acquire a dense id from the global ThreadRegistry (released by
  /// commit/abort/destruction).
  Txn() : id_(std::in_place) {}
  /// Pin an explicitly managed id (benchmark drivers; never released).
  explicit Txn(int tid) : id_(std::in_place, tid) {}

  Txn(Txn&&) noexcept = default;
  Txn& operator=(Txn&&) noexcept = default;

  int tid() const noexcept {
    assert(id_.has_value() && "transaction already finished");
    return id_->tid();
  }
  bool open() const noexcept { return id_.has_value(); }
  void commit() noexcept { id_.reset(); }
  void abort() noexcept { id_.reset(); }

 private:
  std::optional<bref::SessionId> id_;
};

struct TpccScale {
  int warehouses = 2;
  int customers_per_district = 300;
  int initial_orders_per_district = 100;
};

struct CustomerRow {
  int w_id, d_id, c_id;
  uint32_t name_id;
  std::atomic<int64_t> balance{-1000};  // cents
  std::atomic<int64_t> ytd_payment{1000};
  std::atomic<int64_t> payment_cnt{1};
};

struct DistrictRow {
  int w_id = 0;
  int d_id = 0;
  std::atomic<int64_t> ytd{0};
  std::atomic<int64_t> next_o_id{1};
};

struct OrderRow {
  int w_id, d_id;
  int64_t o_id;
  int c_id;
  int ol_cnt;
  std::atomic<int> carrier_id{0};  // 0 = undelivered
};

struct OrderLineRow {
  int64_t o_id;
  int ol_number;
  int i_id;
  int quantity;
  int64_t amount;  // cents
};

struct StockRow {
  std::atomic<int64_t> quantity{100};
  std::atomic<int64_t> ytd{0};
};

/// Per-thread transaction + index-operation counters.
struct TpccStats {
  uint64_t txn_new_order = 0;
  uint64_t txn_payment = 0;
  uint64_t txn_delivery = 0;
  uint64_t txn_order_status = 0;
  uint64_t txn_stock_level = 0;
  uint64_t index_ops = 0;
  uint64_t delivered_orders = 0;
  uint64_t payment_name_misses = 0;
  uint64_t low_stock_seen = 0;
};

/// Index must provide insert/remove/contains/range_query with the library's
/// uniform signature (KeyT=int64_t, ValT=int64_t; values hold row pointers).
template <typename Index>
class TpccDb {
 public:
  explicit TpccDb(const TpccScale& scale) : scale_(scale) {
    const int W = scale_.warehouses;
    districts_ =
        std::make_unique<DistrictRow[]>(W * kDistrictsPerWarehouse);
    stock_ = std::make_unique<StockRow[]>(static_cast<size_t>(W) * kMaxItems);
    item_price_.resize(kMaxItems);
    Xoshiro256 rng(4242);
    for (int i = 0; i < kMaxItems; ++i)
      item_price_[i] = 100 + static_cast<int64_t>(rng.next_range(9900));
    load(rng);
  }

  // ---- transactions -----------------------------------------------------

  /// Open a per-transaction session bundle (see Txn above). The no-arg
  /// form acquires a dense id from the global ThreadRegistry; the pinned
  /// form borrows an explicitly managed `tid` (benchmark drivers).
  Txn begin_txn() { return Txn(); }
  Txn begin_txn(int tid) { return Txn(tid); }

  void run_new_order(Txn& txn, Xoshiro256& rng, TpccStats& st) {
    const int tid = txn.tid();
    const int w = static_cast<int>(rng.next_range(scale_.warehouses));
    const int d = static_cast<int>(rng.next_range(kDistrictsPerWarehouse));
    const int c =
        static_cast<int>(nurand(rng, 1023, 0, scale_.customers_per_district - 1));
    DistrictRow& dist = district(w, d);
    const int64_t o_id =
        dist.next_o_id.fetch_add(1, std::memory_order_relaxed);
    const int ol_cnt = 5 + static_cast<int>(rng.next_range(11));

    auto* order = new OrderRow{w, d, o_id, c, ol_cnt, {}};
    orders_.append(tid, order);
    order_index.insert(tid, order_key(w, d, o_id),
                       reinterpret_cast<int64_t>(order));
    neworder_index.insert(tid, order_key(w, d, o_id), o_id);
    st.index_ops += 2;
    for (int ol = 0; ol < ol_cnt; ++ol) {
      const int item =
          static_cast<int>(nurand(rng, 8191, 0, kMaxItems - 1));
      const int qty = 1 + static_cast<int>(rng.next_range(10));
      auto* line = new OrderLineRow{o_id, ol, item, qty,
                                    qty * item_price_[item]};
      orderlines_.append(tid, line);
      orderline_index.insert(tid, orderline_key(w, d, o_id, ol),
                             reinterpret_cast<int64_t>(line));
      st.index_ops += 1;
      StockRow& s = stock(w, item);
      s.quantity.fetch_sub(qty, std::memory_order_relaxed);
      s.ytd.fetch_add(qty, std::memory_order_relaxed);
    }
    st.txn_new_order++;
  }

  void run_payment(Txn& txn, Xoshiro256& rng, TpccStats& st) {
    const int tid = txn.tid();
    const int w = static_cast<int>(rng.next_range(scale_.warehouses));
    const int d = static_cast<int>(rng.next_range(kDistrictsPerWarehouse));
    const int64_t amount = 100 + static_cast<int64_t>(rng.next_range(49900));
    CustomerRow* cust = nullptr;
    if (rng.next_range(100) < 60) {
      // By last name: range query over the (w, d, name) prefix, pick the
      // middle match (TPC-C clause 2.5.2.2).
      const uint32_t name = lastname_id(random_lastname_num(rng));
      rq_buf_[tid]->clear();
      auto& out = *rq_buf_[tid];
      customer_name_index.range_query(
          tid, customer_name_key(w, d, name, 0),
          customer_name_key(w, d, name, (1 << 24) - 1), out);
      st.index_ops += 1;
      if (!out.empty())
        cust = reinterpret_cast<CustomerRow*>(out[out.size() / 2].second);
      else
        st.payment_name_misses++;
    } else {
      const int c = static_cast<int>(
          nurand(rng, 1023, 0, scale_.customers_per_district - 1));
      int64_t row = 0;
      if (customer_index.contains(tid, customer_key(w, d, c),
                                  reinterpret_cast<int64_t*>(&row)))
        cust = reinterpret_cast<CustomerRow*>(row);
      st.index_ops += 1;
    }
    if (cust != nullptr) {
      cust->balance.fetch_sub(amount, std::memory_order_relaxed);
      cust->ytd_payment.fetch_add(amount, std::memory_order_relaxed);
      cust->payment_cnt.fetch_add(1, std::memory_order_relaxed);
      district(w, d).ytd.fetch_add(amount, std::memory_order_relaxed);
    }
    st.txn_payment++;
  }

  void run_delivery(Txn& txn, Xoshiro256& rng, TpccStats& st) {
    const int tid = txn.tid();
    const int w = static_cast<int>(rng.next_range(scale_.warehouses));
    for (int d = 0; d < kDistrictsPerWarehouse; ++d) {
      const int64_t next =
          district(w, d).next_o_id.load(std::memory_order_relaxed);
      const int64_t lo_o = next > 100 ? next - 100 : 1;
      rq_buf_[tid]->clear();
      auto& out = *rq_buf_[tid];
      // "The range query selects the oldest order in the last 100 orders."
      neworder_index.range_query(tid, order_key(w, d, lo_o),
                                 order_key(w, d, next), out);
      st.index_ops += 1;
      if (out.empty()) continue;
      const int64_t oldest_key = out.front().first;
      // Delete so no other DELIVERY can deliver the same order.
      if (!neworder_index.remove(tid, oldest_key)) continue;  // raced: skip
      st.index_ops += 1;
      int64_t row = 0;
      if (order_index.contains(tid, oldest_key,
                               reinterpret_cast<int64_t*>(&row))) {
        auto* order = reinterpret_cast<OrderRow*>(row);
        order->carrier_id.store(1 + static_cast<int>(rng.next_range(10)),
                                std::memory_order_relaxed);
        // Sum the order's lines via the order-line index.
        rq_buf_[tid]->clear();
        orderline_index.range_query(
            tid, orderline_key(w, d, order->o_id, 0),
            orderline_key(w, d, order->o_id, 15), out);
        st.index_ops += 2;
        int64_t total = 0;
        for (const auto& [k, v] : out)
          total += reinterpret_cast<OrderLineRow*>(v)->amount;
        (void)total;
        st.delivered_orders++;
      }
    }
    st.txn_delivery++;
  }

  /// ORDER_STATUS (TPC-C 2.6, read-only): locate the customer, find their
  /// most recent order among the district's last 100, read its lines.
  void run_order_status(Txn& txn, Xoshiro256& rng, TpccStats& st) {
    const int tid = txn.tid();
    const int w = static_cast<int>(rng.next_range(scale_.warehouses));
    const int d = static_cast<int>(rng.next_range(kDistrictsPerWarehouse));
    CustomerRow* cust = nullptr;
    if (rng.next_range(100) < 60) {
      const uint32_t name = lastname_id(random_lastname_num(rng));
      rq_buf_[tid]->clear();
      auto& out = *rq_buf_[tid];
      customer_name_index.range_query(
          tid, customer_name_key(w, d, name, 0),
          customer_name_key(w, d, name, (1 << 24) - 1), out);
      st.index_ops += 1;
      if (!out.empty())
        cust = reinterpret_cast<CustomerRow*>(out[out.size() / 2].second);
    } else {
      const int c = static_cast<int>(
          nurand(rng, 1023, 0, scale_.customers_per_district - 1));
      int64_t row = 0;
      if (customer_index.contains(tid, customer_key(w, d, c),
                                  reinterpret_cast<int64_t*>(&row)))
        cust = reinterpret_cast<CustomerRow*>(row);
      st.index_ops += 1;
    }
    if (cust != nullptr) {
      // Most recent order of this customer within the last 100 orders of
      // the district (newest-first scan of the range-query snapshot).
      const int64_t next =
          district(w, d).next_o_id.load(std::memory_order_relaxed);
      const int64_t lo_o = next > 100 ? next - 100 : 1;
      rq_buf_[tid]->clear();
      auto& out = *rq_buf_[tid];
      order_index.range_query(tid, order_key(w, d, lo_o),
                              order_key(w, d, next), out);
      st.index_ops += 1;
      const OrderRow* latest = nullptr;
      for (auto it = out.rbegin(); it != out.rend(); ++it) {
        const auto* o = reinterpret_cast<const OrderRow*>(it->second);
        if (o->c_id == cust->c_id) {
          latest = o;
          break;
        }
      }
      if (latest != nullptr) {
        rq_buf_[tid]->clear();
        orderline_index.range_query(
            tid, orderline_key(w, d, latest->o_id, 0),
            orderline_key(w, d, latest->o_id, 15), out);
        st.index_ops += 1;
        int64_t total = 0;
        for (const auto& [k, v] : out)
          total += reinterpret_cast<OrderLineRow*>(v)->amount;
        (void)total;
      }
    }
    st.txn_order_status++;
  }

  /// STOCK_LEVEL (TPC-C 2.8, read-only): one range query spanning the
  /// order lines of the district's last 20 orders, then stock probes for
  /// the distinct items, counting those under the threshold.
  void run_stock_level(Txn& txn, Xoshiro256& rng, TpccStats& st) {
    const int tid = txn.tid();
    const int w = static_cast<int>(rng.next_range(scale_.warehouses));
    const int d = static_cast<int>(rng.next_range(kDistrictsPerWarehouse));
    const int64_t threshold = 10 + static_cast<int64_t>(rng.next_range(11));
    const int64_t next =
        district(w, d).next_o_id.load(std::memory_order_relaxed);
    const int64_t lo_o = next > 20 ? next - 20 : 1;
    rq_buf_[tid]->clear();
    auto& out = *rq_buf_[tid];
    // The order-line key space is contiguous per (w, d, o_id, ol), so one
    // range query covers all lines of the last 20 orders — the atomic
    // snapshot is exactly what the consistency condition 3.3.2.1 needs.
    orderline_index.range_query(tid, orderline_key(w, d, lo_o, 0),
                                orderline_key(w, d, next, 0), out);
    st.index_ops += 1;
    // Count distinct low-stock items (small scratch set; ol item ids are
    // bounded by kMaxItems).
    scratch_items_[tid]->clear();
    auto& seen = *scratch_items_[tid];
    uint64_t low = 0;
    for (const auto& [k, v] : out) {
      const auto* line = reinterpret_cast<const OrderLineRow*>(v);
      if (std::find(seen.begin(), seen.end(), line->i_id) != seen.end())
        continue;
      seen.push_back(line->i_id);
      if (stock(w, line->i_id).quantity.load(std::memory_order_relaxed) <
          threshold)
        ++low;
    }
    st.low_stock_seen += low;
    st.txn_stock_level++;
  }

  /// One transaction drawn from the paper's mix.
  void run_mixed_txn(Txn& txn, Xoshiro256& rng, TpccStats& st) {
    const uint64_t dice = rng.next_range(100);
    if (dice < 50)
      run_new_order(txn, rng, st);
    else if (dice < 95)
      run_payment(txn, rng, st);
    else
      run_delivery(txn, rng, st);
  }

  /// One transaction drawn from the full TPC-C spec mix (5.2.3):
  /// NEW_ORDER 45%, PAYMENT 43%, ORDER_STATUS 4%, DELIVERY 4%,
  /// STOCK_LEVEL 4%.
  void run_full_mix_txn(Txn& txn, Xoshiro256& rng, TpccStats& st) {
    const uint64_t dice = rng.next_range(100);
    if (dice < 45)
      run_new_order(txn, rng, st);
    else if (dice < 88)
      run_payment(txn, rng, st);
    else if (dice < 92)
      run_order_status(txn, rng, st);
    else if (dice < 96)
      run_delivery(txn, rng, st);
    else
      run_stock_level(txn, rng, st);
  }

  // ---- introspection (tests) ---------------------------------------------
  DistrictRow& district(int w, int d) {
    return districts_[w * kDistrictsPerWarehouse + d];
  }
  StockRow& stock(int w, int i) {
    return stock_[static_cast<size_t>(w) * kMaxItems + i];
  }
  size_t undelivered_count(Txn& txn) {
    const int tid = txn.tid();
    std::vector<std::pair<int64_t, int64_t>> out;
    size_t n = 0;
    for (int w = 0; w < scale_.warehouses; ++w)
      for (int d = 0; d < kDistrictsPerWarehouse; ++d) {
        neworder_index.range_query(tid, order_key(w, d, 0),
                                   order_key(w, d, (1ll << 31)), out);
        n += out.size();
      }
    return n;
  }
  const TpccScale& scale() const { return scale_; }

  // Ordered indexes under test (public so benches can introspect).
  Index order_index;
  Index neworder_index;
  Index orderline_index;
  Index customer_index;
  Index customer_name_index;

 private:
  /// Append-only per-thread row arenas (rows are never freed mid-run).
  template <typename Row>
  class Arena {
   public:
    ~Arena() {
      for (auto& v : shards_)
        for (Row* r : v.value) delete r;
    }
    void append(int tid, Row* r) { shards_[tid].value.push_back(r); }

   private:
    CachePadded<std::vector<Row*>> shards_[kMaxThreads];
  };

  void load(Xoshiro256& rng) {
    const int tid = 0;
    for (int w = 0; w < scale_.warehouses; ++w) {
      for (int d = 0; d < kDistrictsPerWarehouse; ++d) {
        DistrictRow& dist = district(w, d);
        dist.w_id = w;
        dist.d_id = d;
        for (int c = 0; c < scale_.customers_per_district; ++c) {
          auto* cust = new CustomerRow;
          cust->w_id = w;
          cust->d_id = d;
          cust->c_id = c;
          // TPC-C: the first 1000 customers cycle through all last names.
          cust->name_id =
              lastname_id(c < 1000 ? c : random_lastname_num(rng));
          customers_.append(tid, cust);
          customer_index.insert(tid, customer_key(w, d, c),
                                reinterpret_cast<int64_t>(cust));
          customer_name_index.insert(
              tid, customer_name_key(w, d, cust->name_id, c),
              reinterpret_cast<int64_t>(cust));
        }
        for (int o = 0; o < scale_.initial_orders_per_district; ++o) {
          const int64_t o_id =
              dist.next_o_id.fetch_add(1, std::memory_order_relaxed);
          auto* order = new OrderRow{
              w, d, o_id,
              static_cast<int>(rng.next_range(scale_.customers_per_district)),
              5, {}};
          orders_.append(tid, order);
          order_index.insert(tid, order_key(w, d, o_id),
                             reinterpret_cast<int64_t>(order));
          neworder_index.insert(tid, order_key(w, d, o_id), o_id);
          for (int ol = 0; ol < order->ol_cnt; ++ol) {
            auto* line = new OrderLineRow{o_id, ol, ol, 1, 100};
            orderlines_.append(tid, line);
            orderline_index.insert(tid, orderline_key(w, d, o_id, ol),
                                   reinterpret_cast<int64_t>(line));
          }
        }
      }
    }
  }

  TpccScale scale_;
  std::unique_ptr<DistrictRow[]> districts_;
  std::unique_ptr<StockRow[]> stock_;
  std::vector<int64_t> item_price_;
  Arena<CustomerRow> customers_;
  Arena<OrderRow> orders_;
  Arena<OrderLineRow> orderlines_;
  CachePadded<std::vector<std::pair<int64_t, int64_t>>> rq_buf_[kMaxThreads];
  CachePadded<std::vector<int>> scratch_items_[kMaxThreads];
};

}  // namespace bref::db
