// The network front-end suite: wire-protocol round trips, partial/short
// reads, pipelined batches, malformed/oversized frame handling, the
// connection:session mapping (many connections must not consume
// ThreadRegistry slots), shutdown hygiene (no leaked fds or sessions),
// transaction semantics, and the acceptance audit — a concurrent mixed
// workload over loopback whose RANGE snapshots (server-stamped
// timestamps) pass the timestamp-aware Wing–Gong linearizability check.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/thread_registry.h"
#include "net/client.h"
#include "net/server.h"
#include "net_batch.h"
#include "obs/prom_validate.h"
#include "validation/wing_gong.h"

namespace {

using namespace bref;
using namespace bref::net;

ServerOptions small_opts(int workers = 2, size_t shards = 4) {
  ServerOptions o;
  o.workers = workers;
  o.shards = shards;
  o.key_lo = 0;
  o.key_hi = 1 << 16;
  return o;
}

/// A loopback listener nobody serves; `*port` gets its port.
int listen_loopback(uint16_t* port) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof addr;
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen);
  *port = ntohs(addr.sin_port);
  return lfd;
}

size_t open_fds() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

// ---- protocol: encode/split/decode ----------------------------------------

TEST(Protocol, RequestFramesRoundTrip) {
  std::vector<uint8_t> b;
  encode_get(b, 42);
  encode_insert(b, -7, 1234567890123456789LL);
  encode_remove(b, 99);
  encode_range(b, 10, 20);
  encode_txn_begin(b);
  encode_txn_op(b, Op::kInsert, 5, 50);
  encode_txn_op(b, Op::kRemove, 6);
  encode_txn_commit(b);
  encode_txn_abort(b);
  encode_ping(b);
  encode_stats(b);

  size_t off = 0, advance = 0;
  FrameView f;
  auto next = [&] {
    EXPECT_EQ(split_frame(b.data(), b.size(), off, kDefaultMaxFrame, &f,
                          &advance),
              SplitResult::kFrame);
    off += advance;
  };
  next();
  EXPECT_EQ(f.op(), Op::kGet);
  EXPECT_EQ(get_i64(f.body), 42);
  next();
  EXPECT_EQ(f.op(), Op::kInsert);
  EXPECT_EQ(get_i64(f.body), -7);
  EXPECT_EQ(get_i64(f.body + 8), 1234567890123456789LL);
  next();
  EXPECT_EQ(f.op(), Op::kRemove);
  next();
  EXPECT_EQ(f.op(), Op::kRange);
  EXPECT_EQ(get_i64(f.body), 10);
  EXPECT_EQ(get_i64(f.body + 8), 20);
  next();
  EXPECT_EQ(f.op(), Op::kTxnBegin);
  EXPECT_EQ(f.body_len, 0u);
  next();
  EXPECT_EQ(f.op(), Op::kTxnOp);
  EXPECT_EQ(static_cast<Op>(f.body[0]), Op::kInsert);
  EXPECT_EQ(get_i64(f.body + 1), 5);
  EXPECT_EQ(get_i64(f.body + 9), 50);
  next();
  EXPECT_EQ(f.op(), Op::kTxnOp);
  EXPECT_EQ(static_cast<Op>(f.body[0]), Op::kRemove);
  next();
  EXPECT_EQ(f.op(), Op::kTxnCommit);
  next();
  EXPECT_EQ(f.op(), Op::kTxnAbort);
  next();
  EXPECT_EQ(f.op(), Op::kPing);
  next();
  EXPECT_EQ(f.op(), Op::kStats);
  EXPECT_EQ(off, b.size());
}

TEST(Protocol, ResponseDecodeRoundTrip) {
  std::vector<uint8_t> b;
  encode_val_response(b, 77);
  encode_range_response(b, 123,
                        {{1, 10}, {2, 20}, {3, 30}});
  encode_status(b, Status::kNo);
  encode_text_response(b, "{\"x\": 1}");

  size_t off = 0, advance = 0;
  FrameView f;
  Reply r;
  ASSERT_EQ(split_frame(b.data(), b.size(), off, kDefaultMaxFrame, &f,
                        &advance),
            SplitResult::kFrame);
  off += advance;
  ASSERT_TRUE(decode_reply(Op::kGet, f, &r));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.val, 77);

  ASSERT_EQ(split_frame(b.data(), b.size(), off, kDefaultMaxFrame, &f,
                        &advance),
            SplitResult::kFrame);
  off += advance;
  ASSERT_TRUE(decode_reply(Op::kRange, f, &r));
  EXPECT_EQ(r.ts, 123u);
  ASSERT_EQ(r.items.size(), 3u);
  EXPECT_EQ(r.items[1], (std::pair<KeyT, ValT>{2, 20}));

  ASSERT_EQ(split_frame(b.data(), b.size(), off, kDefaultMaxFrame, &f,
                        &advance),
            SplitResult::kFrame);
  off += advance;
  ASSERT_TRUE(decode_reply(Op::kRemove, f, &r));
  EXPECT_EQ(r.status, Status::kNo);

  ASSERT_EQ(split_frame(b.data(), b.size(), off, kDefaultMaxFrame, &f,
                        &advance),
            SplitResult::kFrame);
  off += advance;
  ASSERT_TRUE(decode_reply(Op::kStats, f, &r));
  EXPECT_EQ(r.text, "{\"x\": 1}");
}

// A frame delivered one byte at a time parses exactly once, at the final
// byte — the short-read path every TCP consumer must survive.
TEST(Protocol, PartialFramesNeedMoreUntilComplete) {
  std::vector<uint8_t> full;
  encode_insert(full, 11, 22);
  FrameView f;
  size_t advance = 0;
  for (size_t n = 0; n < full.size(); ++n)
    EXPECT_EQ(split_frame(full.data(), n, 0, kDefaultMaxFrame, &f, &advance),
              SplitResult::kNeedMore)
        << "prefix of " << n << " bytes";
  EXPECT_EQ(split_frame(full.data(), full.size(), 0, kDefaultMaxFrame, &f,
                        &advance),
            SplitResult::kFrame);
  EXPECT_EQ(advance, full.size());
}

TEST(Protocol, PoisonedFramingDetected) {
  // Declared length over the cap.
  std::vector<uint8_t> b;
  put_u32(b, kDefaultMaxFrame + 1);
  b.resize(b.size() + 8, 0);
  FrameView f;
  size_t advance = 0;
  EXPECT_EQ(split_frame(b.data(), b.size(), 0, kDefaultMaxFrame, &f,
                        &advance),
            SplitResult::kOversized);
  // Declared length zero (no opcode byte).
  b.clear();
  put_u32(b, 0);
  EXPECT_EQ(split_frame(b.data(), b.size(), 0, kDefaultMaxFrame, &f,
                        &advance),
            SplitResult::kBadLength);
}

// ---- dispatch: every opcode in-process, no socket --------------------------

// Stands in for the server: the dispatcher asks its host only for limits
// and introspection bodies.
struct StubHost {
  size_t max_txn_ops() const { return 2; }
  bool chunkable(KeyT lo, KeyT hi) const { return hi - lo >= 1000; }
  std::string stats_json() const { return "{\"stub\": 1}"; }
  std::string trace_dump_json() const { return "{\"records\": []}"; }
  bool find_trace(uint64_t id, obs::TraceRecord* out) const {
    if (id != 77) return false;
    *out = obs::TraceRecord{};
    out->trace_id = id;
    return true;
  }
};

class Dispatch : public ::testing::Test {
 protected:
  /// Dispatch one frame; unless it asked for a chunked scan, it must
  /// have appended exactly one well-formed reply, decoded into `*r`.
  Outcome run(uint8_t op, const std::vector<uint8_t>& body,
              Reply* r = nullptr) {
    FrameView f;
    f.tag = op;
    f.body = body.data();
    f.body_len = body.size();
    std::vector<uint8_t> out;
    const Outcome o = dispatch(set, session.tid(), txn, f, out, rq, host);
    Reply reply;
    if (o == Outcome::kChunk) {
      EXPECT_TRUE(out.empty());
    } else {
      FrameView rf;
      size_t advance = 0;
      EXPECT_EQ(split_frame(out.data(), out.size(), 0, kDefaultMaxFrame, &rf,
                            &advance),
                SplitResult::kFrame);
      EXPECT_EQ(advance, out.size());
      EXPECT_TRUE(decode_reply(static_cast<Op>(op), rf, &reply));
    }
    if (r != nullptr) *r = reply;
    return o;
  }
  Status status(Op op, const std::vector<uint8_t>& body) {
    Reply r;
    run(static_cast<uint8_t>(op), body, &r);
    return r.status;
  }
  static std::vector<uint8_t> txn_op(Op inner, size_t len) {
    std::vector<uint8_t> b(len, 0);
    if (len > 0) b[0] = static_cast<uint8_t>(inner);
    return b;
  }

  ShardedSet set{"Bundle-skiplist", ShardOptions{}};
  SessionGuard session;
  TxnBuffer txn;
  RangeSnapshot rq;
  StubHost host;
};

TEST_F(Dispatch, EveryOpcodeEnforcesItsBodySize) {
  ASSERT_TRUE(session.acquired());
  // An 8-byte TRACE_DUMP sets the process-wide capture policy; put it back.
  const uint32_t every = obs::trace_sample_every().load();
  const uint64_t threshold = obs::trace_threshold_ns().load();
  const std::vector<std::pair<Op, std::vector<size_t>>> sized = {
      {Op::kGet, {8}},        {Op::kInsert, {16}},   {Op::kRemove, {8}},
      {Op::kRange, {16}},     {Op::kTraceGet, {8}},  {Op::kTraceDump, {0, 8}}};
  for (const auto& [op, valid] : sized) {
    for (size_t len = 0; len <= 24; ++len) {
      const bool ok =
          std::find(valid.begin(), valid.end(), len) != valid.end();
      Reply r;
      const Outcome o = run(static_cast<uint8_t>(op),
                            std::vector<uint8_t>(len, 0), &r);
      EXPECT_EQ(o, ok ? Outcome::kOk : Outcome::kError)
          << op_name(static_cast<uint8_t>(op)) << " body " << len;
      if (!ok) {
        EXPECT_EQ(r.status, Status::kErrMalformed);
      }
    }
  }
  obs::trace_sample_every().store(every);
  obs::trace_threshold_ns().store(threshold);
  // Ops PROTOCOL.md lists without a body accept and ignore any body.
  const std::vector<uint8_t> junk(5, 0xab);
  EXPECT_EQ(status(Op::kPing, junk), Status::kOk);
  EXPECT_EQ(status(Op::kStats, junk), Status::kOk);
  EXPECT_EQ(status(Op::kMetrics, junk), Status::kOk);
  EXPECT_EQ(status(Op::kTxnBegin, junk), Status::kOk);
  EXPECT_EQ(run(static_cast<uint8_t>(Op::kTxnAbort), junk),
            Outcome::kAborted);
  ASSERT_EQ(status(Op::kTxnBegin, junk), Status::kOk);
  EXPECT_EQ(run(static_cast<uint8_t>(Op::kTxnCommit), junk),
            Outcome::kCommitted);
  // Unknown opcodes: malformed, framing intact.
  for (const uint8_t op : {0, 14, 200}) {
    Reply r;
    EXPECT_EQ(run(op, {}, &r), Outcome::kError);
    EXPECT_EQ(r.status, Status::kErrMalformed);
  }
}

TEST_F(Dispatch, TxnOpChecksStateInnerOpAndCap) {
  ASSERT_TRUE(session.acquired());
  // Outside a transaction every TXN op but BEGIN is a state error.
  EXPECT_EQ(status(Op::kTxnOp, txn_op(Op::kGet, 9)), Status::kErrTxnState);
  EXPECT_EQ(status(Op::kTxnCommit, {}), Status::kErrTxnState);
  EXPECT_EQ(status(Op::kTxnAbort, {}), Status::kErrTxnState);
  ASSERT_EQ(status(Op::kTxnBegin, {}), Status::kOk);
  EXPECT_EQ(status(Op::kTxnBegin, {}), Status::kErrTxnState);
  // Only GET/INSERT/REMOVE buffer, each with its exact body size.
  for (const Op inner : {Op::kRange, Op::kPing, Op::kTxnOp, Op::kStats})
    for (const size_t len : {9, 17})
      EXPECT_EQ(status(Op::kTxnOp, txn_op(inner, len)), Status::kErrMalformed)
          << op_name(static_cast<uint8_t>(inner)) << " body " << len;
  for (const size_t len : {0, 1, 8, 10, 16, 18})
    EXPECT_EQ(status(Op::kTxnOp, txn_op(Op::kGet, len)),
              Status::kErrMalformed);
  EXPECT_EQ(status(Op::kTxnOp, txn_op(Op::kGet, 17)), Status::kErrMalformed);
  EXPECT_EQ(status(Op::kTxnOp, txn_op(Op::kRemove, 17)),
            Status::kErrMalformed);
  EXPECT_EQ(status(Op::kTxnOp, txn_op(Op::kInsert, 9)),
            Status::kErrMalformed);
  EXPECT_TRUE(txn.ops.empty());
  // The host caps a transaction at two ops.
  std::vector<uint8_t> ins;
  ins.push_back(static_cast<uint8_t>(Op::kInsert));
  put_i64(ins, 5);
  put_i64(ins, 50);
  EXPECT_EQ(status(Op::kTxnOp, ins), Status::kOk);
  std::vector<uint8_t> get;
  get.push_back(static_cast<uint8_t>(Op::kGet));
  put_i64(get, 5);
  EXPECT_EQ(status(Op::kTxnOp, get), Status::kOk);
  EXPECT_EQ(status(Op::kTxnOp, txn_op(Op::kRemove, 9)),
            Status::kErrTxnState);
  EXPECT_FALSE(set.contains(session.tid(), 5, nullptr))
      << "applied before commit";
  Reply r;
  ASSERT_EQ(run(static_cast<uint8_t>(Op::kTxnCommit), {}, &r),
            Outcome::kCommitted);
  ASSERT_EQ(r.txn.size(), 2u);
  EXPECT_EQ(r.txn[0].status, Status::kOk);
  EXPECT_EQ(r.txn[1].status, Status::kOk);
  EXPECT_EQ(r.txn[1].val, 50);
  EXPECT_FALSE(txn.open);
  // Abort discards the buffer.
  ASSERT_EQ(status(Op::kTxnBegin, {}), Status::kOk);
  EXPECT_EQ(status(Op::kTxnOp, txn_op(Op::kRemove, 9)), Status::kOk);
  EXPECT_EQ(run(static_cast<uint8_t>(Op::kTxnAbort), {}), Outcome::kAborted);
  EXPECT_TRUE(txn.ops.empty());
  EXPECT_TRUE(set.contains(session.tid(), 5, nullptr));
}

TEST_F(Dispatch, HostDecidesChunkingAndIntrospection) {
  ASSERT_TRUE(session.acquired());
  for (KeyT k = 1; k <= 5; ++k) set.insert(session.tid(), k, k * 10);
  std::vector<uint8_t> narrow, wide;
  put_i64(narrow, 2);
  put_i64(narrow, 4);
  put_i64(wide, 0);
  put_i64(wide, 5000);
  Reply r;
  ASSERT_EQ(run(static_cast<uint8_t>(Op::kRange), narrow, &r), Outcome::kOk);
  EXPECT_EQ(r.items, (std::vector<std::pair<KeyT, ValT>>{
                         {2, 20}, {3, 30}, {4, 40}}));
  EXPECT_NE(r.ts, RangeSnapshot::kNoTimestamp);
  EXPECT_EQ(run(static_cast<uint8_t>(Op::kRange), wide), Outcome::kChunk);
  ASSERT_EQ(run(static_cast<uint8_t>(Op::kStats), {}, &r), Outcome::kOk);
  EXPECT_EQ(r.text, "{\"stub\": 1}");
  ASSERT_EQ(run(static_cast<uint8_t>(Op::kTraceDump), {}, &r), Outcome::kOk);
  EXPECT_EQ(r.text, "{\"records\": []}");
  std::vector<uint8_t> id;
  put_u64(id, 77);
  ASSERT_EQ(run(static_cast<uint8_t>(Op::kTraceGet), id, &r), Outcome::kOk);
  EXPECT_NE(r.text.find("\"trace_id\": \"000000000000004d\""),
            std::string::npos)
      << r.text;
  id.clear();
  put_u64(id, 78);
  EXPECT_EQ(status(Op::kTraceGet, id), Status::kNo);
}

// ---- server: basic ops over loopback --------------------------------------

TEST(Server, PointOpsRangeAndPing) {
  Server srv(small_opts());
  srv.start();
  Client c(srv.port());
  EXPECT_TRUE(c.ping());
  EXPECT_TRUE(c.insert(10, 100));
  EXPECT_FALSE(c.insert(10, 100));  // duplicate
  EXPECT_TRUE(c.insert(20, 200));
  EXPECT_EQ(c.get(10).value_or(-1), 100);
  EXPECT_FALSE(c.get(11).has_value());
  RangeSnapshot snap;
  EXPECT_EQ(c.range(0, 1000, snap), 2u);
  EXPECT_EQ(snap.items(),
            (std::vector<std::pair<KeyT, ValT>>{{10, 100}, {20, 200}}));
  EXPECT_TRUE(snap.has_timestamp());  // bundled backing stamps snapshots
  EXPECT_TRUE(c.remove(10));
  EXPECT_FALSE(c.remove(10));
  EXPECT_EQ(c.range(0, 1000, snap), 1u);
  const std::string stats = c.stats();
  EXPECT_NE(stats.find("\"frames\""), std::string::npos);
  EXPECT_NE(stats.find("\"maintenance\""), std::string::npos);
  srv.stop();
}

TEST(Server, PipelinedBatchAnswersInOrder) {
  Server srv(small_opts());
  srv.start();
  Client c(srv.port());
  Pipeline p(c);
  for (KeyT k = 1; k <= 32; ++k) p.insert(k, k * 10);
  for (KeyT k = 1; k <= 32; ++k) p.get(k);
  p.range(1, 32);
  p.ping();
  const std::vector<Reply> rs = p.collect();
  ASSERT_EQ(rs.size(), 66u);
  for (size_t i = 0; i < 32; ++i) EXPECT_EQ(rs[i].status, Status::kOk);
  for (size_t i = 32; i < 64; ++i) {
    EXPECT_EQ(rs[i].status, Status::kOk);
    EXPECT_EQ(rs[i].val, static_cast<ValT>((i - 31) * 10));
  }
  EXPECT_EQ(rs[64].items.size(), 32u);
  EXPECT_EQ(rs[65].status, Status::kOk);
  // The whole batch went out in one write; the server must have executed
  // multiple frames per epoll wave.
  const ServerStats st = srv.stats();
  EXPECT_GE(st.frames, 66u);
  EXPECT_LT(st.batches, st.frames);
  srv.stop();
}

// Pipeline's nonblocking calls, driven under poll() as fig7 drives them,
// return exactly what collect() returns for the same batch on an
// identical server: the same replies in the same order, timestamps and
// the chunked whole-keyspace RANGE included.
TEST(ClientPipeline, NonblockingBatchMatchesCollect) {
  std::vector<Reply> got, want;
  for (const bool nonblocking : {true, false}) {
    Server srv(small_opts());
    srv.start();
    Client c(srv.port());
    Pipeline p(c);
    if (nonblocking) {
      testbatch::MixedBatch b(1 << 16);
      got = testbatch::drive_nonblocking(c, p, b);
      EXPECT_EQ(srv.stats().chunked_rqs, 1u);
    } else {
      want = testbatch::collect_all(p, 1 << 16);
    }
    srv.stop();
  }
  testbatch::expect_same_replies(got, want);
}

// A body-malformed frame gets an error response but the stream stays in
// sync: the same connection keeps working.
TEST(Server, MalformedBodyKeepsConnectionAlive) {
  Server srv(small_opts());
  srv.start();
  Client c(srv.port());
  // GET with a 4-byte body (should be 8).
  std::vector<uint8_t> raw;
  put_u32(raw, 1 + 4);
  raw.push_back(static_cast<uint8_t>(Op::kGet));
  put_u32(raw, 7);
  c.write_all(raw.data(), raw.size());
  Reply r = c.read_reply(Op::kGet);
  EXPECT_EQ(r.status, Status::kErrMalformed);
  // Unknown opcode, framing intact.
  raw.clear();
  put_u32(raw, 1);
  raw.push_back(200);
  c.write_all(raw.data(), raw.size());
  r = c.read_reply(Op::kPing);
  EXPECT_EQ(r.status, Status::kErrMalformed);
  // Connection still serves real traffic.
  EXPECT_TRUE(c.ping());
  EXPECT_TRUE(c.insert(1, 1));
  EXPECT_GE(srv.stats().protocol_errors, 2u);
  srv.stop();
}

// TRACE_DUMP takes an empty body (dump) or an 8-byte policy; the old
// 4-byte rate-only body is malformed, and the stream stays in sync.
TEST(Server, FourByteTraceDumpBodyIsMalformed) {
  Server srv(small_opts());
  srv.start();
  Client c(srv.port());
  std::vector<uint8_t> raw;
  put_u32(raw, 1 + 4);
  raw.push_back(static_cast<uint8_t>(Op::kTraceDump));
  put_u32(raw, 1);
  c.write_all(raw.data(), raw.size());
  EXPECT_EQ(c.read_reply(Op::kTraceDump).status, Status::kErrMalformed);
  EXPECT_TRUE(c.ping());
  srv.stop();
}

// An oversized declared length poisons the stream: error reply, then the
// server closes that connection — but the loop and other connections
// survive.
TEST(Server, OversizedFrameClosesConnectionNotLoop) {
  Server srv(small_opts());
  srv.start();
  Client witness(srv.port());
  ASSERT_TRUE(witness.insert(5, 55));
  Client bad(srv.port());
  std::vector<uint8_t> raw;
  put_u32(raw, kDefaultMaxFrame + 7);
  raw.push_back(static_cast<uint8_t>(Op::kGet));
  bad.write_all(raw.data(), raw.size());
  Reply r = bad.read_reply(Op::kGet);
  EXPECT_EQ(r.status, Status::kErrTooLarge);
  EXPECT_THROW(bad.read_reply(Op::kPing), NetError);  // server closed
  // The same worker keeps serving the witness and fresh connections.
  EXPECT_TRUE(witness.ping());
  EXPECT_EQ(witness.get(5).value_or(-1), 55);
  Client fresh(srv.port());
  EXPECT_TRUE(fresh.ping());
  srv.stop();
}

TEST(Server, TxnBufferCommitAbortSemantics) {
  Server srv(small_opts());
  srv.start();
  Client c(srv.port());
  // TXN ops outside a transaction are state errors.
  EXPECT_FALSE(c.txn_insert(1, 1));
  EXPECT_FALSE(c.txn_abort());
  EXPECT_TRUE(c.txn_commit().empty());

  // Buffered ops are invisible until commit.
  ASSERT_TRUE(c.txn_begin());
  EXPECT_FALSE(c.txn_begin());  // nested begin rejected
  EXPECT_TRUE(c.txn_insert(100, 1));
  EXPECT_TRUE(c.txn_insert(101, 2));
  EXPECT_TRUE(c.txn_get(100));
  EXPECT_TRUE(c.txn_remove(999));
  EXPECT_FALSE(c.get(100).has_value()) << "txn op applied before commit";
  const std::vector<TxnOpResult> rs = c.txn_commit();
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_EQ(rs[0].status, Status::kOk);   // insert 100
  EXPECT_EQ(rs[1].status, Status::kOk);   // insert 101
  EXPECT_EQ(rs[2].status, Status::kOk);   // get 100 sees the earlier insert
  EXPECT_EQ(rs[2].val, 1);
  EXPECT_EQ(rs[3].status, Status::kNo);   // remove of absent key
  EXPECT_EQ(c.get(100).value_or(-1), 1);

  // Abort discards.
  ASSERT_TRUE(c.txn_begin());
  EXPECT_TRUE(c.txn_insert(500, 5));
  EXPECT_TRUE(c.txn_abort());
  EXPECT_FALSE(c.get(500).has_value());
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.txns_committed, 1u);
  EXPECT_EQ(st.txns_aborted, 1u);
  srv.stop();
}

// ---- the connection:session mapping ---------------------------------------

// Many concurrent connections over few workers must not consume
// ThreadRegistry slots: sessions belong to worker loops, not connections.
TEST(SessionMapping, ConnectionsDoNotConsumeThreadSlots) {
  const int idle = ThreadRegistry::instance().in_use();
  Server srv(small_opts(/*workers=*/2));
  srv.start();
  // Worker session guards plus registry-tracked maintenance workers draw
  // ids at start; connections must not add a single one on top.
  const int started = ThreadRegistry::instance().in_use();
  EXPECT_GT(started, idle);
  std::vector<Client> conns;
  for (int i = 0; i < 100; ++i) conns.emplace_back(srv.port());
  for (auto& c : conns) ASSERT_TRUE(c.ping());
  EXPECT_EQ(srv.stats().connections, 100u);
  EXPECT_EQ(ThreadRegistry::instance().in_use(), started);
  conns.clear();
  srv.stop();
  EXPECT_EQ(ThreadRegistry::instance().in_use(), idle);
}

// Registry exhaustion is a clean error, not UB (the SessionPool-hardening
// regression): try_acquire degrades to -1, acquire throws.
TEST(SessionMapping, RegistryExhaustionIsACleanError) {
  auto& reg = ThreadRegistry::instance();
  std::vector<int> held;
  for (;;) {
    const int tid = reg.try_acquire();
    if (tid < 0) break;
    held.push_back(tid);
  }
  EXPECT_EQ(reg.in_use(), kMaxThreads);
  EXPECT_THROW(reg.acquire(), ThreadSlotsExhaustedError);
  {
    SessionGuard g;  // the non-throwing guard reports failure instead
    EXPECT_FALSE(g.acquired());
  }
  // A server cannot start without worker sessions — and says so.
  Server srv(small_opts());
  EXPECT_THROW(srv.start(), ThreadSlotsExhaustedError);
  for (int tid : held) reg.release(tid);
  // After release the same server object starts fine.
  srv.start();
  Client c(srv.port());
  EXPECT_TRUE(c.ping());
  srv.stop();
}

// ---- shutdown hygiene ------------------------------------------------------

TEST(Shutdown, ReleasesSessionsAndFdsAndRestarts) {
  const int tids_before = ThreadRegistry::instance().in_use();
  const size_t fds_before = open_fds();
  for (int cycle = 0; cycle < 3; ++cycle) {
    Server srv(small_opts());
    srv.start();
    std::vector<Client> conns;
    for (int i = 0; i < 8; ++i) conns.emplace_back(srv.port());
    for (int i = 0; i < 8; ++i) {
      // Distinct key per connection: a duplicate insert answers `no`.
      ASSERT_TRUE(conns[i].insert(cycle * 100 + i + 1, 1));
      ASSERT_TRUE(conns[i].ping());
    }
    srv.stop();
    // stop() is idempotent and the server restartable.
    srv.stop();
    srv.start();
    Client c(srv.port());
    ASSERT_TRUE(c.ping());
    srv.stop();
  }
  EXPECT_EQ(ThreadRegistry::instance().in_use(), tids_before);
  EXPECT_EQ(open_fds(), fds_before);
}

// In-flight pipelined responses are flushed before stop() closes the
// connection: a client that wrote a batch and then sees the server stop
// still gets every response.
TEST(Shutdown, DrainsBufferedFramesOnStop) {
  Server srv(small_opts());
  srv.start();
  Client c(srv.port());
  Pipeline p(c);
  for (KeyT k = 1; k <= 64; ++k) p.insert(k, k);
  p.flush();
  // Give the wave a moment to land in the worker's buffers, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread stopper([&] { srv.stop(); });
  const std::vector<Reply> rs = p.collect();
  stopper.join();
  ASSERT_EQ(rs.size(), 64u);
  for (const Reply& r : rs) EXPECT_EQ(r.status, Status::kOk);
}

// ---- observability over the wire -------------------------------------------

// The BENCH_6 regression: a mid-run stats document reported
// "connections": 0 while 64 clients were actively driving the server.
// Live connections must be visible WHILE they are connected, from both
// the stats document and the Prometheus gauge, and the peak must survive
// the connections going away.
TEST(Observability, LiveConnectionsVisibleUnderLoad) {
  Server srv(small_opts(/*workers=*/2));
  srv.start();
  std::vector<Client> conns;
  for (int i = 0; i < 64; ++i) conns.emplace_back(srv.port());
  for (auto& c : conns) ASSERT_TRUE(c.ping());
  // Mid-run, with every connection still open:
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.connections, 64u);
  EXPECT_GE(st.connections_peak, 64u);
  const std::string doc = srv.stats_json();
  EXPECT_EQ(doc.find("\"connections\": 0,"), std::string::npos)
      << "live connections invisible in mid-run stats:\n"
      << doc;
  // The same truth through the metrics path.
  std::string err;
  std::vector<bref::obs::PromSeries> series;
  ASSERT_TRUE(
      bref::obs::validate_prometheus(conns[0].metrics(), &err, &series))
      << err;
  double gauge = -1, peak = -1;
  for (const auto& s : series) {
    if (s.name == "bref_net_connections") gauge = s.value;
    if (s.name == "bref_net_connections_peak") peak = s.value;
  }
  EXPECT_EQ(gauge, 64.0);
  EXPECT_GE(peak, 64.0);
  // Peak survives the connections; the live gauge follows them down.
  conns.clear();
  for (int spin = 0; spin < 200 && srv.stats().connections != 0; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(srv.stats().connections, 0u);
  EXPECT_GE(srv.stats().connections_peak, 64u);
  srv.stop();
}

// METRICS must answer valid Prometheus text exposition covering every
// instrumented layer: net (server), shard (router), epoch (EBR), core
// (entry pool) — the CI validator's acceptance gate, as a unit test.
TEST(Observability, MetricsOpCoversAllLayers) {
  if (!obs::kEnabled) GTEST_SKIP() << "recording compiled out (BREF_OBS=OFF)";
  Server srv(small_opts(/*workers=*/2, /*shards=*/4));
  srv.start();
  Client c(srv.port());
  for (KeyT k = 1; k <= 200; ++k) c.insert(k, k);
  RangeSnapshot snap;
  c.range(1, 200, snap);
  const std::string text = c.metrics();
  std::string err;
  ASSERT_TRUE(bref::obs::validate_prometheus(text, &err)) << err;
  EXPECT_TRUE(bref::obs::has_metric_prefix(text, "bref_net_"));
  EXPECT_TRUE(bref::obs::has_metric_prefix(text, "bref_shard_"));
  EXPECT_TRUE(bref::obs::has_metric_prefix(text, "bref_epoch_"));
  EXPECT_TRUE(bref::obs::has_metric_prefix(text, "bref_entry_pool_"));
  // Stage attribution flows: the wire path must have recorded per-stage
  // samples for the traffic above.
  std::vector<bref::obs::PromSeries> series;
  ASSERT_TRUE(bref::obs::validate_prometheus(text, &err, &series)) << err;
  double stage_count = 0;
  for (const auto& s : series)
    if (s.name == "bref_net_stage_seconds_count") stage_count += s.value;
  EXPECT_GT(stage_count, 0.0);
  srv.stop();
}

// End-to-end bref-trace: a client-stamped request captured under a
// commit-everything policy must resolve via TRACE_GET to a complete span
// timeline — queue through flush, including the coordinated shard
// fan-out and chunked-scan stages for a wide RANGE.
TEST(Observability, TraceGetResolvesStampedRequestTimeline) {
  if (!obs::kEnabled) GTEST_SKIP() << "recording compiled out (BREF_OBS=OFF)";
  Server srv(small_opts(/*workers=*/2, /*shards=*/4));
  srv.start();
  ClientOptions co;
  co.trace = true;
  Client c("127.0.0.1", srv.port(), co);
  ASSERT_TRUE(c.trace_config(/*sample_every=*/0, /*threshold_us=*/0));
  for (KeyT k = 1; k <= 100; ++k) ASSERT_TRUE(c.insert(k, k));
  // The whole keyspace: wider than scan_chunk_keys, so this runs as a
  // chunked scan — pin fan-out, per-slice collects, pump iterations.
  RangeSnapshot snap;
  c.range(0, 1 << 16, snap);
  const uint64_t id = c.last_trace_id();
  ASSERT_NE(id, 0u);
  std::optional<std::string> tl = c.trace_get(id);
  ASSERT_TRUE(tl.has_value()) << "commit-all policy must keep the trace";
  char idhex[32];
  std::snprintf(idhex, sizeof idhex, "%016llx",
                static_cast<unsigned long long>(id));
  EXPECT_NE(tl->find(idhex), std::string::npos) << *tl;
  for (const char* stage : {"\"queue\"", "\"admission\"", "\"execute\"",
                            "\"shard_pin\"", "\"shard_collect\"",
                            "\"scan_chunk\"", "\"flush\""})
    EXPECT_NE(tl->find(stage), std::string::npos)
        << stage << " missing in\n"
        << *tl;
  // Pipelined frames are stamped too: ids parallel the batch, every one
  // resolvable (this also proves split_frame handles back-to-back
  // flagged frames in one buffer).
  Pipeline p(c);
  for (KeyT k = 1; k <= 8; ++k) p.get(k);
  const std::vector<uint64_t> ids = p.trace_ids();
  ASSERT_EQ(ids.size(), 8u);
  const std::vector<Reply> rs = p.collect();
  ASSERT_EQ(rs.size(), 8u);
  for (const Reply& r : rs) EXPECT_EQ(r.status, Status::kOk);
  ASSERT_NE(ids.back(), 0u);
  EXPECT_TRUE(c.trace_get(ids.back()).has_value());
  // The dump carries the policy knobs and the committed records.
  const std::string dump = c.trace_dump();
  EXPECT_NE(dump.find("\"sample_every\": 0"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"threshold_ns\": 0"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"op\": \"range\""), std::string::npos) << dump;
  ASSERT_TRUE(c.trace_config(128, 1000));  // restore defaults
  srv.stop();
}

// The acceptance-criteria loop, as a unit test: exemplars on the per-op
// latency histogram must carry trace ids that TRACE_GET resolves to
// complete timelines.
TEST(Observability, ExemplarsResolveToCommittedTimelines) {
  if (!obs::kEnabled) GTEST_SKIP() << "recording compiled out (BREF_OBS=OFF)";
  Server srv(small_opts(/*workers=*/2));
  srv.start();
  ClientOptions co;
  co.trace = true;
  Client c("127.0.0.1", srv.port(), co);
  ASSERT_TRUE(c.trace_config(/*sample_every=*/0, /*threshold_us=*/0));
  for (KeyT k = 1; k <= 300; ++k) ASSERT_TRUE(c.insert(k, k));
  const std::string text = c.metrics();
  std::string err;
  std::vector<bref::obs::PromSeries> series;
  ASSERT_TRUE(bref::obs::validate_prometheus(text, &err, &series)) << err;
  size_t with_exemplar = 0, resolved = 0;
  for (const auto& s : series) {
    if (!s.has_exemplar || s.name != "bref_net_op_seconds_bucket") continue;
    ++with_exemplar;
    ASSERT_EQ(s.exemplar_labels.size(), 1u);
    ASSERT_EQ(s.exemplar_labels[0].first, "trace_id");
    const uint64_t id =
        std::stoull(s.exemplar_labels[0].second, nullptr, 16);
    if (std::optional<std::string> tl = c.trace_get(id); tl.has_value()) {
      EXPECT_NE(tl->find("\"spans\""), std::string::npos);
      ++resolved;
    }
  }
  ASSERT_GT(with_exemplar, 0u) << text;
  // Stale exemplars from earlier servers in this process may no longer
  // resolve; the ones this run committed must.
  EXPECT_GT(resolved, 0u);
  ASSERT_TRUE(c.trace_config(128, 1000));
  srv.stop();
}

// Wire compatibility: a client that never stamps speaks the old framing
// byte-for-byte, and TRACE_GET for an unknown id answers kNo.
TEST(Observability, UntracedClientsAndUnknownTraceIdsBehave) {
  Server srv(small_opts());
  srv.start();
  Client plain(srv.port());
  ASSERT_TRUE(plain.ping());
  ASSERT_TRUE(plain.insert(1, 1));
  EXPECT_EQ(plain.last_trace_id(), 0u);
  EXPECT_FALSE(plain.trace_get(0xdeadbeefdeadbeefull).has_value());
  srv.stop();
}

// STATS and METRICS are read by dashboards and gate scripts, so their
// names are an interface: this pins the STATS document's layout (every
// number masked) and every bref_net_/bref_trace_ family's HELP, TYPE and
// label sets.
TEST(Observability, StatsKeysAndMetricFamiliesArePinned) {
  Server srv(small_opts(/*workers=*/2, /*shards=*/2));
  srv.start();
  Client c(srv.port());
  // One frame of each histogram-labelled op, so every op="..." series
  // exists whichever tests ran before this one.
  ASSERT_TRUE(c.insert(1, 1));
  ASSERT_TRUE(c.get(1).has_value());
  ASSERT_TRUE(c.remove(1));
  RangeSnapshot snap;
  c.range(0, 10, snap);
  ASSERT_TRUE(c.txn_begin());
  ASSERT_TRUE(c.txn_insert(2, 2));
  ASSERT_EQ(c.txn_commit().size(), 1u);
  ASSERT_TRUE(c.ping());

  std::string doc = c.stats();
  doc = doc.substr(0, doc.find(", \"obs\": "));
  doc = std::regex_replace(doc, std::regex(": [0-9.]+"), ": N");
  const std::string maint =
      "{\"passes\": N, \"pruned\": N, \"flushed\": N, \"idle_backoffs\": N, "
      "\"backlog\": N}";
  EXPECT_EQ(doc,
            "{\"impl\": \"Bundle-skiplist\", \"shards\": N, \"workers\": N, "
            "\"connections\": N, \"connections_peak\": N, \"accepted\": N, "
            "\"frames\": N, \"batches\": N, \"frames_per_batch\": N, "
            "\"bytes_in\": N, \"bytes_out\": N, \"protocol_errors\": N, "
            "\"txns_committed\": N, \"txns_aborted\": N, "
            "\"guard\": {\"shed\": N, \"chunked_rqs\": N, \"scan_slices\": N, "
            "\"reaped_idle\": N, \"reaped_write_stall\": N, "
            "\"reaped_slow_reader\": N, \"stop_dropped\": N, "
            "\"overloaded\": N}, "
            "\"trace\": {\"committed\": N, \"dropped\": N, "
            "\"scratch_exhausted\": N, \"scratch_in_use\": N}, "
            "\"routing\": {\"single_shard_rqs\": N, \"coordinated_rqs\": N, "
            "\"fallback_rqs\": N, \"timestamps_acquired\": N}, "
            "\"maintenance\": [" +
                maint + ", " + maint + "]");

  const std::string text = c.metrics();
  std::string err;
  std::vector<bref::obs::PromSeries> series;
  ASSERT_TRUE(bref::obs::validate_prometheus(text, &err, &series)) << err;
  auto ours = [](const std::string& name) {
    return name.rfind("bref_net_", 0) == 0 || name.rfind("bref_trace_", 0) == 0;
  };
  std::set<std::string> got;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("# ", 0) == 0 && ours(line.substr(7))) got.insert(line);
  for (const auto& s : series) {
    // One line per histogram series: its _count (no le label).
    if (!ours(s.name) || s.name.ends_with("_bucket") ||
        s.name.ends_with("_sum"))
      continue;
    std::string id = s.name;
    for (size_t i = 0; i < s.labels.size(); ++i)
      id += (i == 0 ? "{" : ",") + s.labels[i].first + "=\"" +
            s.labels[i].second + "\"";
    got.insert(s.labels.empty() ? id : id + "}");
  }
  std::set<std::string> want;
  auto family = [&](const char* name, const char* type, const char* help,
                    std::vector<std::string> samples) {
    want.insert(std::string("# HELP ") + name + " " + help);
    want.insert(std::string("# TYPE ") + name + " " + type);
    for (const std::string& s : samples) want.insert(name + s);
  };
  family("bref_net_connections", "gauge",
         "Connections currently adopted by worker loops", {""});
  family("bref_net_connections_peak", "gauge",
         "High-water mark of adopted connections (max over live servers)",
         {""});
  family("bref_net_accepted_total", "counter", "Connections accepted", {""});
  family("bref_net_frames_total", "counter", "Request frames executed", {""});
  family("bref_net_batches_total", "counter",
         "Epoll waves that executed at least one frame", {""});
  family("bref_net_bytes_in_total", "counter", "Request bytes read", {""});
  family("bref_net_bytes_out_total", "counter", "Response bytes written",
         {""});
  family("bref_net_protocol_errors_total", "counter", "Error responses sent",
         {""});
  family("bref_net_txns_committed_total", "counter",
         "Wire transactions committed", {""});
  family("bref_net_txns_aborted_total", "counter", "Wire transactions aborted",
         {""});
  family("bref_net_shed_total", "counter",
         "Request frames answered kErrOverloaded by admission control", {""});
  family("bref_net_chunked_total", "counter",
         "RANGE queries executed as cooperative chunked scans", {""});
  family("bref_net_scan_slices_total", "counter",
         "Chunk slices executed across all chunked scans", {""});
  family("bref_net_reaped_total", "counter",
         "Connections closed by the guard layer",
         {"{reason=\"idle\"}", "{reason=\"write_stall\"}",
          "{reason=\"slow_reader\"}"});
  family("bref_net_stop_dropped_total", "counter",
         "Connections closed at stop() with undelivered response bytes", {""});
  family("bref_net_overloaded", "gauge",
         "Worker loops currently shedding (admission budget exhausted)", {""});
  family("bref_trace_committed_total", "counter",
         "Request traces committed to the per-worker rings (tail threshold "
         "or reservoir)",
         {""});
  family("bref_trace_dropped_total", "counter",
         "Committed trace records overwritten by ring-window churn", {""});
  family("bref_trace_scratch_exhausted_total", "counter",
         "Requests not traced because the worker's scratch-slot pool was "
         "full",
         {""});
  family("bref_trace_scratch_in_use", "gauge",
         "Trace scratch slots currently held (live chunked scans when idle)",
         {""});
  if (obs::kEnabled) {  // recorded only when the record paths are built
    family("bref_net_op_seconds", "histogram",
           "Per-op execute time on the worker loop",
           {"_count{op=\"get\"}", "_count{op=\"insert\"}",
            "_count{op=\"remove\"}", "_count{op=\"range\"}",
            "_count{op=\"txn_commit\"}", "_count{op=\"other\"}"});
    family("bref_net_stage_seconds", "histogram",
           "Worker-loop stage time per connection batch",
           {"_count{stage=\"queue\"}", "_count{stage=\"execute\"}",
            "_count{stage=\"flush\"}"});
  }
  EXPECT_EQ(got, want);
  srv.stop();
}

// ---- acceptance: loopback linearizability audit ----------------------------

// Concurrent clients run a mixed point/range workload over keys 1..7 of
// a server built from `o`; RANGE responses carry server-side snapshot
// timestamps, so the history must pass the timestamp-aware Wing–Gong
// check: linearizable AND stamped queries in @ts order.
void expect_loopback_audit_clean(const ServerOptions& o) {
  constexpr int kThreads = 6;
  Server srv(o);
  srv.start();
  for (int burst = 0; burst < 10; ++burst) {
    // Pre-history: the surviving content of earlier bursts.
    validation::History pre;
    {
      Client c(srv.port());
      RangeSnapshot now;
      c.range(0, 8, now);
      for (const auto& [k, v] : now) {
        validation::Op op;
        op.kind = validation::OpKind::kInsert;
        op.key = k;
        op.val = v;
        op.result = true;
        op.invoke_ns = 2 * pre.size();
        op.response_ns = 2 * pre.size() + 1;
        pre.push_back(op);
      }
    }
    std::vector<validation::ThreadLog> logs;
    for (int t = 0; t < kThreads; ++t) logs.emplace_back(t);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        Client c(srv.port());
        Xoshiro256 rng(burst * 131 + t + 1);
        RangeSnapshot out;
        for (int i = 0; i < 3; ++i) {
          const KeyT k = 1 + static_cast<KeyT>(rng.next_range(7));
          const uint64_t t0 = validation::now_ns();
          switch (rng.next_range(4)) {
            case 0: {
              const ValT v = burst * 100 + t * 10 + i;
              const bool r = c.insert(k, v);
              logs[t].record_point(validation::OpKind::kInsert, k, v, r, t0,
                                   validation::now_ns());
              break;
            }
            case 1: {
              const bool r = c.remove(k);
              logs[t].record_point(validation::OpKind::kRemove, k, 0, r, t0,
                                   validation::now_ns());
              break;
            }
            case 2: {
              const std::optional<ValT> v = c.get(k);
              logs[t].record_point(validation::OpKind::kContains, k,
                                   v.value_or(0), v.has_value(), t0,
                                   validation::now_ns());
              break;
            }
            default: {
              // Spans every key: with several shards, the coordinated
              // single-timestamp path.
              c.range(1, 8, out);
              EXPECT_TRUE(out.has_timestamp());
              logs[t].record_rq(out, t0, validation::now_ns());
              break;
            }
          }
        }
      });
    }
    for (auto& th : ts) th.join();
    validation::History h = validation::merge(logs);
    h.insert(h.end(), pre.begin(), pre.end());
    const auto verdict = validation::check_linearizable_with_ts(h);
    ASSERT_TRUE(verdict.linearizable)
        << "burst " << burst << ": " << verdict.message;
  }
  // The audit must have exercised the wire RANGE path with stamps.
  const ServerStats st = srv.stats();
  EXPECT_GT(st.frames, 0u);
  srv.stop();
}

// Four shards: one shared clock stamps every cross-shard RANGE.
TEST(Linearizability, LoopbackMixedWorkloadAuditsCleanWithTimestamps) {
  ServerOptions o = small_opts(/*workers=*/3, /*shards=*/4);
  o.key_hi = 8;  // keys 1..7 spread over all four shards
  expect_loopback_audit_clean(o);
}

// One shard over a family that cannot coordinate: the server answers
// RANGE exactly as the bare implementation does, its own stamp included.
TEST(Linearizability, UnshardedEbrRqStampsAuditClean) {
  ServerOptions o = small_opts(/*workers=*/3, /*shards=*/1);
  o.impl = "EBR-RQ-skiplist";
  expect_loopback_audit_clean(o);
}

// One shard over a coordinated family: a RANGE wider than a slice runs as
// a chunked scan at one timestamp — the clock value inline RANGEs read.
TEST(Unsharded, WideRangeRunsAsOneChunkedSnapshot) {
  ServerOptions o = small_opts(/*workers=*/1, /*shards=*/1);
  o.key_hi = 1 << 12;
  o.guard.scan_chunk_keys = 64;  // whole keyspace = many slices
  Server srv(o);
  srv.start();
  Client c(srv.port());
  size_t inserted = 0;
  for (KeyT k = 1; k < (1 << 12); k += 5) {
    ASSERT_TRUE(c.insert(k, k + 1));
    ++inserted;
  }
  const ServerStats before = srv.stats();
  RangeSnapshot whole;
  ASSERT_EQ(c.range(0, 1 << 12, whole), inserted);
  for (const auto& [k, v] : whole) EXPECT_EQ(v, k + 1);
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.chunked_rqs - before.chunked_rqs, 1u);
  EXPECT_GT(st.scan_slices - before.scan_slices, 1u);
  // Every insert advanced the clock once; a quiescent snapshot reads it.
  ASSERT_TRUE(whole.has_timestamp());
  EXPECT_EQ(whole.timestamp(), inserted);
  RangeSnapshot narrow;  // inline: narrower than one slice
  ASSERT_EQ(c.range(1, 11, narrow), 3u);
  EXPECT_EQ(srv.stats().chunked_rqs, st.chunked_rqs);
  ASSERT_TRUE(narrow.has_timestamp());
  EXPECT_EQ(narrow.timestamp(), whole.timestamp());
  srv.stop();
}

// ---- client robustness (ISSUE 8 regressions) -------------------------------

// A peer dying mid-pipeline must never block collect() forever: every
// read site is deadline-bounded and fails with a typed NetError (or the
// batch completes, if the server's stop() drain delivered everything).
TEST(ClientRobustness, ServerDeathMidPipelineReturnsWithinDeadline) {
  Server srv(small_opts());
  srv.start();
  ClientOptions copt;
  copt.op_deadline_ms = 4'000;
  Client c(srv.port(), copt);
  ASSERT_TRUE(c.ping());
  Pipeline p(c);
  for (int i = 0; i < 20'000; ++i) p.insert(i, i);
  p.flush();
  std::thread killer([&] { srv.stop(); });
  const uint64_t t0 = steady_ms();
  try {
    p.collect();
  } catch (const NetError& e) {
    EXPECT_TRUE(e.kind() == NetErrorKind::kEof ||
                e.kind() == NetErrorKind::kReset ||
                e.kind() == NetErrorKind::kTimeout)
        << net::to_string(e.kind());
  }
  EXPECT_LT(steady_ms() - t0, 10'000u);
  killer.join();
}

// A peer that accepts the connection but never answers (black hole) must
// surface as kTimeout at the op deadline, not an indefinite recv block.
TEST(ClientRobustness, BlackHolePeerTimesOutInsteadOfHanging) {
  uint16_t port = 0;
  const int lfd = listen_loopback(&port);
  ASSERT_GE(lfd, 0);

  ClientOptions copt;
  copt.op_deadline_ms = 600;
  Client c(port, copt);
  const uint64_t t0 = steady_ms();
  try {
    c.get(1);
    FAIL() << "expected kTimeout against a black-hole peer";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kTimeout) << net::to_string(e.kind());
  }
  const uint64_t took = steady_ms() - t0;
  EXPECT_GE(took, 500u);    // honored the deadline...
  EXPECT_LT(took, 5'000u);  // ...and did not sit past it
  ::close(lfd);
}

// A reply whose length word declares far more than any reply may carry
// is a typed kProtocol error, raised from the 5 bytes received: the
// client never sizes a buffer from a length it has not received.
TEST(ClientRobustness, BogusReplyLengthIsATypedError) {
  uint16_t port = 0;
  const int lfd = listen_loopback(&port);
  ASSERT_GE(lfd, 0);
  std::atomic<bool> done{false};
  std::thread peer([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    uint8_t req[64];
    ::recv(fd, req, sizeof req, 0);  // the GET
    const uint8_t bogus[5] = {0xF0, 0xFF, 0xFF, 0x7F,  // len 0x7FFFFFF0
                              static_cast<uint8_t>(Status::kOk)};
    ::send(fd, bogus, sizeof bogus, MSG_NOSIGNAL);
    while (!done.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ::close(fd);  // held open until the client has given up
  });

  ClientOptions copt;
  copt.op_deadline_ms = 2'000;
  Client c(port, copt);
  const uint64_t t0 = steady_ms();
  try {
    c.get(1);
    ADD_FAILURE() << "expected kProtocol for a 0x7FFFFFF0-byte reply";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kProtocol) << e.what();
  }
  EXPECT_LT(steady_ms() - t0, 2'000u);  // within the op deadline
  done.store(true);
  peer.join();
  ::close(lfd);
}

}  // namespace
