#pragma once
// bref::net::dispatch — execute one request frame against a ShardedSet and
// append its reply. It touches no file descriptor: the server's worker
// loop (server.h) calls it for every admitted frame, and a test can drive
// every opcode in-process.
//
// What only the server knows reaches the dispatcher through `host`, a
// template parameter (bound statically; no per-frame virtual call):
//
//   size_t max_txn_ops() const;              ops one transaction may buffer
//   bool chunkable(KeyT lo, KeyT hi) const;  run this RANGE as a chunked scan
//   std::string stats_json() const;          the STATS body
//   std::string trace_dump_json() const;     the TRACE_DUMP body
//   bool find_trace(uint64_t id, obs::TraceRecord* out) const;  TRACE_GET

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sharded_set.h"

namespace bref::net {

inline const char* op_name(uint8_t op) {
  switch (static_cast<Op>(op)) {
    case Op::kGet: return "get";
    case Op::kInsert: return "insert";
    case Op::kRemove: return "remove";
    case Op::kRange: return "range";
    case Op::kTxnBegin: return "txn_begin";
    case Op::kTxnOp: return "txn_op";
    case Op::kTxnCommit: return "txn_commit";
    case Op::kTxnAbort: return "txn_abort";
    case Op::kPing: return "ping";
    case Op::kStats: return "stats";
    case Op::kMetrics: return "metrics";
    case Op::kTraceDump: return "trace_dump";
    case Op::kTraceGet: return "trace_get";
  }
  return "unknown";
}

/// One committed record as JSON — the TRACE_GET body, and one element
/// of TRACE_DUMP's "records". Ids render as 16-hex (the exemplar form),
/// stages by name; tools/trace2chrome consumes this shape.
inline std::string trace_record_json(const obs::TraceRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"trace_id\": \"%016llx\", \"op\": \"%s\", "
                "\"worker\": %u, \"start_ns\": %llu, \"total_ns\": %llu, "
                "\"flags\": %u, \"spans\": [",
                static_cast<unsigned long long>(r.trace_id), op_name(r.op),
                r.worker, static_cast<unsigned long long>(r.start_ns),
                static_cast<unsigned long long>(r.total_ns), r.flags);
  std::string out = buf;
  for (int i = 0; i < r.nspans; ++i) {
    const obs::TraceStageSpan& s = r.spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"stage\": \"%s\", \"start_ns\": %u, \"dur_ns\": %u, "
                  "\"aux8\": %u, \"aux16\": %u}",
                  i > 0 ? ", " : "", obs::trace_stage_name(s.stage),
                  s.start_ns, s.dur_ns, s.aux8, s.aux16);
    out += buf;
  }
  return out + "]}";
}

/// A connection's transaction: TXN_BEGIN opens it, TXN_OP buffers point
/// ops, TXN_COMMIT runs them back to back, TXN_ABORT discards them.
struct TxnBuffer {
  struct BufferedOp {
    Op op;
    KeyT key;
    ValT val;
  };
  bool open = false;
  std::vector<BufferedOp> ops;
};

/// How dispatch() resolved a frame. Every outcome but kChunk appended
/// exactly one reply.
enum class Outcome : uint8_t {
  kOk,
  kError,      // an error status: a protocol error
  kCommitted,  // TXN_COMMIT ran its batch
  kAborted,    // TXN_ABORT discarded its batch
  kChunk,      // a wide RANGE the caller runs as a chunked scan; no reply yet
};

/// Execute frame `f` under session `tid` and append its reply to `out`.
/// `txn` is the frame's connection's transaction; `rq` is scratch for
/// inline RANGE results.
template <typename Host>
Outcome dispatch(ShardedSet& set, int tid, TxnBuffer& txn, const FrameView& f,
                 std::vector<uint8_t>& out, RangeSnapshot& rq,
                 const Host& host) {
  auto err = [&](Status st) {
    encode_status(out, st);
    return Outcome::kError;
  };
  auto yes_no = [&](bool r) {
    encode_status(out, r ? Status::kOk : Status::kNo);
    return Outcome::kOk;
  };
  switch (f.op()) {
    case Op::kGet: {
      if (f.body_len != 8) return err(Status::kErrMalformed);
      ValT v = 0;
      if (!set.contains(tid, get_i64(f.body), &v)) return yes_no(false);
      encode_val_response(out, v);
      return Outcome::kOk;
    }
    case Op::kInsert:
      if (f.body_len != 16) return err(Status::kErrMalformed);
      return yes_no(set.insert(tid, get_i64(f.body), get_i64(f.body + 8)));
    case Op::kRemove:
      if (f.body_len != 8) return err(Status::kErrMalformed);
      return yes_no(set.remove(tid, get_i64(f.body)));
    case Op::kRange: {
      if (f.body_len != 16) return err(Status::kErrMalformed);
      const KeyT lo = get_i64(f.body), hi = get_i64(f.body + 8);
      // Wide scans run chunked behind the wave when a coordinated
      // snapshot path exists; the inline path keeps serving narrow
      // ranges (and every range when chunking is unavailable).
      if (host.chunkable(lo, hi)) return Outcome::kChunk;
      set.range_query(tid, lo, hi, rq);
      encode_range_response(out, rq.timestamp(), rq.items());
      return Outcome::kOk;
    }
    case Op::kTxnBegin:
      if (txn.open) return err(Status::kErrTxnState);
      txn.open = true;
      txn.ops.clear();
      return yes_no(true);
    case Op::kTxnOp: {
      if (!txn.open) return err(Status::kErrTxnState);
      if (f.body_len < 9) return err(Status::kErrMalformed);
      const Op inner = static_cast<Op>(f.body[0]);
      const size_t want = inner == Op::kInsert ? 17 : 9;
      if ((inner != Op::kGet && inner != Op::kInsert &&
           inner != Op::kRemove) ||
          f.body_len != want)
        return err(Status::kErrMalformed);
      if (txn.ops.size() >= host.max_txn_ops())
        return err(Status::kErrTxnState);
      txn.ops.push_back({inner, get_i64(f.body + 1),
                         inner == Op::kInsert ? get_i64(f.body + 9) : 0});
      return yes_no(true);
    }
    case Op::kTxnCommit: {
      if (!txn.open) return err(Status::kErrTxnState);
      // The batch runs back-to-back under this one session — the wire
      // analogue of db::Txn's "one dense id over every index the
      // transaction touches".
      put_u32(out, static_cast<uint32_t>(1 + 4 + 9 * txn.ops.size()));
      out.push_back(static_cast<uint8_t>(Status::kOk));
      put_u32(out, static_cast<uint32_t>(txn.ops.size()));
      for (const TxnBuffer::BufferedOp& op : txn.ops) {
        ValT v = 0;
        bool r = false;
        switch (op.op) {
          case Op::kGet: r = set.contains(tid, op.key, &v); break;
          case Op::kInsert: r = set.insert(tid, op.key, op.val); break;
          case Op::kRemove: r = set.remove(tid, op.key); break;
          default: break;
        }
        out.push_back(static_cast<uint8_t>(r ? Status::kOk : Status::kNo));
        put_i64(out, v);
      }
      txn.open = false;
      txn.ops.clear();
      return Outcome::kCommitted;
    }
    case Op::kTxnAbort:
      if (!txn.open) return err(Status::kErrTxnState);
      txn.open = false;
      txn.ops.clear();
      yes_no(true);
      return Outcome::kAborted;
    case Op::kPing:
      return yes_no(true);
    case Op::kStats:
      encode_text_response(out, host.stats_json());
      return Outcome::kOk;
    case Op::kMetrics:
      encode_text_response(out, obs::registry().prometheus());
      return Outcome::kOk;
    case Op::kTraceDump: {
      if (f.body_len == 8) {  // set rate + tail-commit threshold, ack
        obs::trace_sample_every().store(get_u32(f.body),
                                        std::memory_order_relaxed);
        const uint32_t us = get_u32(f.body + 4);
        obs::trace_threshold_ns().store(
            us == UINT32_MAX ? obs::kTraceThresholdOff
                             : static_cast<uint64_t>(us) * 1000,
            std::memory_order_relaxed);
        return yes_no(true);
      }
      if (f.body_len != 0) return err(Status::kErrMalformed);
      encode_text_response(out, host.trace_dump_json());
      return Outcome::kOk;
    }
    case Op::kTraceGet: {
      if (f.body_len != 8) return err(Status::kErrMalformed);
      obs::TraceRecord rec;
      if (!host.find_trace(get_u64(f.body), &rec))
        return yes_no(false);  // never committed, or evicted
      encode_text_response(out, trace_record_json(rec));
      return Outcome::kOk;
    }
  }
  return err(Status::kErrMalformed);  // unknown opcode; framing intact
}

}  // namespace bref::net
