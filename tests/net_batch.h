#pragma once
// A mixed pipelined batch for the net suites, and a driver that runs one
// through Pipeline's nonblocking calls under poll() — the event-loop path
// bench/fig7_server.cpp drives.

#include <gtest/gtest.h>
#include <poll.h>

#include <vector>

#include "common/random.h"
#include "net/client.h"

namespace bref::net::testbatch {

/// Insert every key of [1, 4096] (value 3k), so that the batch's RANGEs
/// come back full: RANGE-50 replies of ~800 bytes and a whole-keyspace
/// reply of ~64 KiB, which no single recv holds with its neighbours, so
/// replies arrive split across reads.
inline void prefill(Pipeline& p) {
  for (KeyT k = 1; k <= 4096; ++k) p.insert(k, 3 * k);
  p.collect();
}

/// The same 2,006-frame batch every time, queued in slices: GET, INSERT,
/// REMOVE and RANGE-50 over keys [1, 4096], with one transaction and one
/// RANGE over [0, keyspace_hi] (wide enough to run as a chunked scan) in
/// between.
class MixedBatch {
 public:
  explicit MixedBatch(KeyT keyspace_hi) : hi_(keyspace_hi) {}

  bool done() const { return step_ == 2000; }

  /// Queue the next `n` steps of the batch (fewer at its end).
  void queue(Pipeline& p, int n) {
    for (; n > 0 && !done(); --n, ++step_) {
      if (step_ == 700) {
        p.txn_begin();
        p.txn_op(Op::kInsert, 5, 55);
        p.txn_op(Op::kRemove, 7);
        p.txn_op(Op::kGet, 9);
        p.txn_commit();
      }
      if (step_ == 1400) p.range(0, hi_);
      const KeyT k = 1 + static_cast<KeyT>(rng_.next_range(4096));
      switch (rng_.next_range(4)) {
        case 0: p.get(k); break;
        case 1: p.insert(k, 3 * k); break;
        case 2: p.remove(k); break;
        default: p.range(k, k + 49); break;
      }
    }
  }

 private:
  Xoshiro256 rng_{2022};
  KeyT hi_;
  int step_ = 0;
};

/// prefill(), then run the batch through send(), receive() and next(),
/// waiting only in poll() and queueing 64 steps per turn, so sends,
/// replies and new frames interleave as in fig7's open loop. Returns
/// early (short) if poll() sees nothing for 10 s.
inline std::vector<Reply> drive_nonblocking(Client& c, Pipeline& p,
                                            MixedBatch& b) {
  prefill(p);
  std::vector<Reply> out;
  for (Reply r; !b.done() || p.queued() > 0;) {
    b.queue(p, 64);
    p.send();
    pollfd pfd{c.fd(),
               static_cast<short>(POLLIN | (p.unsent() > 0 ? POLLOUT : 0)),
               0};
    if (::poll(&pfd, 1, 10'000) <= 0) break;
    if (pfd.revents & POLLOUT) p.send();
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) p.receive();
    while (p.next(&r)) out.push_back(r);
  }
  return out;
}

/// prefill(), then the whole batch through collect().
inline std::vector<Reply> collect_all(Pipeline& p, KeyT keyspace_hi) {
  prefill(p);
  MixedBatch b(keyspace_hi);
  b.queue(p, 2000);
  return p.collect();
}

/// Same replies in the same order: status, value, timestamp, RANGE items
/// and per-op transaction outcomes.
inline void expect_same_replies(const std::vector<Reply>& got,
                                const std::vector<Reply>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, want[i].status) << "reply " << i;
    EXPECT_EQ(got[i].val, want[i].val) << "reply " << i;
    EXPECT_EQ(got[i].ts, want[i].ts) << "reply " << i;
    EXPECT_EQ(got[i].items, want[i].items) << "reply " << i;
    ASSERT_EQ(got[i].txn.size(), want[i].txn.size()) << "reply " << i;
    for (size_t j = 0; j < got[i].txn.size(); ++j) {
      EXPECT_EQ(got[i].txn[j].status, want[i].txn[j].status) << "reply " << i;
      EXPECT_EQ(got[i].txn[j].val, want[i].txn[j].val) << "reply " << i;
    }
  }
}

}  // namespace bref::net::testbatch
