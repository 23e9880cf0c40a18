#pragma once
// bref wire protocol — the length-prefixed binary frames the network
// front-end (server.h) and client library (client.h) exchange. See
// PROTOCOL.md in this directory for the normative description; the short
// version:
//
//   request  frame: u32 len | u8 opcode | body        (len covers opcode+body)
//   response frame: u32 len | u8 status | body
//
// All integers are little-endian. Keys and values are the library's
// KeyT/ValT (int64), carried as their two's-complement bit pattern.
// Requests may be pipelined: a client may write any number of frames
// before reading; the server answers every frame of a connection in
// arrival order, so the k-th response always belongs to the k-th request.
//
// Framing errors vs op errors: a frame whose *declared length* is
// unusable (> max_frame, or too short to carry an opcode) poisons the
// byte stream — the server answers kErrTooLarge/kErrMalformed and closes
// the connection. A well-framed frame with an unusable *body* (unknown
// opcode, wrong body size, transaction-state misuse) gets an error
// response but the connection lives on: the stream is still in sync.

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/range_snapshot.h"
#include "api/types.h"

namespace bref::net {

// -- vocabulary --------------------------------------------------------------

enum class Op : uint8_t {
  kGet = 1,        // body: key                 -> kOk+val | kNo
  kInsert = 2,     // body: key val             -> kOk (inserted) | kNo (present)
  kRemove = 3,     // body: key                 -> kOk (removed) | kNo (absent)
  kRange = 4,      // body: lo hi               -> kOk + ts + n + n*(key,val)
  kTxnBegin = 5,   // body: -                   -> kOk | kErrTxnState
  kTxnOp = 6,      // body: u8 op key [val]     -> kOk (buffered) | kErr*
  kTxnCommit = 7,  // body: -                   -> kOk + n + n*(status,val)
  kTxnAbort = 8,   // body: -                   -> kOk | kErrTxnState
  kPing = 9,       // body: -                   -> kOk
  kStats = 10,     // body: -                   -> kOk + utf8 JSON text
  kMetrics = 11,   // body: -                   -> kOk + Prometheus text
  kTraceDump = 12, // body: - | u32 sample_every + u32 threshold_us
                   //                            -> kOk + utf8 JSON text | kOk
  kTraceGet = 13,  // body: u64 trace_id         -> kOk + utf8 JSON text | kNo
};

enum class Status : uint8_t {
  kOk = 0,
  kNo = 1,             // successful op, negative answer (absent / no-op)
  kErrMalformed = 16,  // unknown opcode or body size mismatch
  kErrTooLarge = 17,   // declared frame length over the server's max_frame
  kErrTxnState = 18,   // TXN_OP/COMMIT/ABORT without BEGIN, BEGIN twice, ...
  kErrShutdown = 19,   // server draining; op not executed
  kErrOverloaded = 20, // shed by admission control; op NOT executed.
                       // body: u32 retry-after hint (milliseconds).
};

inline const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNo: return "no";
    case Status::kErrMalformed: return "malformed";
    case Status::kErrTooLarge: return "too-large";
    case Status::kErrTxnState: return "txn-state";
    case Status::kErrShutdown: return "shutdown";
    case Status::kErrOverloaded: return "overloaded";
  }
  return "?";
}

/// Default cap on one frame's declared length (opcode + body). A RANGE
/// *response* may legitimately exceed a request-sized cap, so the cap
/// applies to inbound requests only; responses are bounded by the range
/// width the client asked for.
inline constexpr uint32_t kDefaultMaxFrame = 1u << 20;

/// Frame length prefix size.
inline constexpr size_t kLenBytes = 4;

// -- trace context -----------------------------------------------------------
//
// A request frame may carry an 8-byte trace context between the length
// word and the opcode byte, announced by the top bit of the length word:
//
//   traced request frame: u32 (len | kTraceFlagBit) | u64 trace_id | u8 op | body
//
// `len` still counts opcode+body only (the context is header, not
// payload), so every length-derived rule (max_frame, body sizing) is
// untouched. The scheme is wire-compatible in the direction that matters:
// a client that never sets the bit speaks the PR 6 protocol byte-for-byte.
// The bit is free because max_frame caps any legal length far below 2^31;
// an old server that receives a flagged frame sees an impossible length
// and rejects it exactly like any other oversized garbage — so clients
// must only stamp trace contexts at servers that advertise this protocol
// (see PROTOCOL.md). Responses never carry the flag.

inline constexpr uint32_t kTraceFlagBit = 1u << 31;
inline constexpr uint32_t kLenMask = kTraceFlagBit - 1;
inline constexpr size_t kTraceCtxBytes = 8;

// -- little-endian scalar packing -------------------------------------------

inline void put_u32(std::vector<uint8_t>& b, uint32_t v) {
  b.push_back(static_cast<uint8_t>(v));
  b.push_back(static_cast<uint8_t>(v >> 8));
  b.push_back(static_cast<uint8_t>(v >> 16));
  b.push_back(static_cast<uint8_t>(v >> 24));
}
inline void put_u64(std::vector<uint8_t>& b, uint64_t v) {
  put_u32(b, static_cast<uint32_t>(v));
  put_u32(b, static_cast<uint32_t>(v >> 32));
}
inline void put_i64(std::vector<uint8_t>& b, int64_t v) {
  put_u64(b, static_cast<uint64_t>(v));
}
inline uint32_t get_u32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}
inline uint64_t get_u64(const uint8_t* p) {
  return static_cast<uint64_t>(get_u32(p)) |
         static_cast<uint64_t>(get_u32(p + 4)) << 32;
}
inline int64_t get_i64(const uint8_t* p) {
  return static_cast<int64_t>(get_u64(p));
}

/// Retrofit a trace context onto the already-encoded frame starting at
/// `frame_off` in `b` (sets the flag bit, splices the id after the length
/// word). Call right after the encode_* helper while the frame is still
/// the buffer tail and the splice is O(frame).
inline void stamp_trace_context(std::vector<uint8_t>& b, size_t frame_off,
                                uint64_t trace_id) {
  if (trace_id == 0) return;  // 0 means "no context"; nothing to stamp
  const uint32_t flagged = get_u32(b.data() + frame_off) | kTraceFlagBit;
  b[frame_off + 0] = static_cast<uint8_t>(flagged);
  b[frame_off + 1] = static_cast<uint8_t>(flagged >> 8);
  b[frame_off + 2] = static_cast<uint8_t>(flagged >> 16);
  b[frame_off + 3] = static_cast<uint8_t>(flagged >> 24);
  uint8_t ctx[kTraceCtxBytes];
  for (size_t i = 0; i < kTraceCtxBytes; ++i)
    ctx[i] = static_cast<uint8_t>(trace_id >> (8 * i));
  b.insert(b.begin() + static_cast<ptrdiff_t>(frame_off + kLenBytes), ctx,
           ctx + kTraceCtxBytes);
}

// -- request encoding --------------------------------------------------------
//
// Appends one complete frame to `b` (the pipelining-friendly shape: encode
// any number of requests into one buffer, write once).

inline void encode_header(std::vector<uint8_t>& b, Op op, uint32_t body_len) {
  put_u32(b, 1 + body_len);
  b.push_back(static_cast<uint8_t>(op));
}
inline void encode_get(std::vector<uint8_t>& b, KeyT key) {
  encode_header(b, Op::kGet, 8);
  put_i64(b, key);
}
inline void encode_insert(std::vector<uint8_t>& b, KeyT key, ValT val) {
  encode_header(b, Op::kInsert, 16);
  put_i64(b, key);
  put_i64(b, val);
}
inline void encode_remove(std::vector<uint8_t>& b, KeyT key) {
  encode_header(b, Op::kRemove, 8);
  put_i64(b, key);
}
inline void encode_range(std::vector<uint8_t>& b, KeyT lo, KeyT hi) {
  encode_header(b, Op::kRange, 16);
  put_i64(b, lo);
  put_i64(b, hi);
}
inline void encode_txn_begin(std::vector<uint8_t>& b) {
  encode_header(b, Op::kTxnBegin, 0);
}
inline void encode_txn_op(std::vector<uint8_t>& b, Op inner, KeyT key,
                          ValT val = 0) {
  const bool has_val = inner == Op::kInsert;
  encode_header(b, Op::kTxnOp, 1 + 8 + (has_val ? 8 : 0));
  b.push_back(static_cast<uint8_t>(inner));
  put_i64(b, key);
  if (has_val) put_i64(b, val);
}
inline void encode_txn_commit(std::vector<uint8_t>& b) {
  encode_header(b, Op::kTxnCommit, 0);
}
inline void encode_txn_abort(std::vector<uint8_t>& b) {
  encode_header(b, Op::kTxnAbort, 0);
}
inline void encode_ping(std::vector<uint8_t>& b) {
  encode_header(b, Op::kPing, 0);
}
inline void encode_stats(std::vector<uint8_t>& b) {
  encode_header(b, Op::kStats, 0);
}
inline void encode_metrics(std::vector<uint8_t>& b) {
  encode_header(b, Op::kMetrics, 0);
}
/// Empty body: dump the flight-recorder tail.
inline void encode_trace_dump(std::vector<uint8_t>& b) {
  encode_header(b, Op::kTraceDump, 0);
}
/// 8-byte TRACE_DUMP body: set the capture policy — the reservoir rate
/// (commit ~one trace per `sample_every` completions, 0 disables the
/// reservoir) AND the tail-commit threshold — and answer a bare kOk.
/// `threshold_us` semantics: 0 commits every traced request, UINT32_MAX
/// disables threshold commits, anything else is the latency floor in
/// microseconds.
inline void encode_trace_config(std::vector<uint8_t>& b, uint32_t sample_every,
                                uint32_t threshold_us) {
  encode_header(b, Op::kTraceDump, 8);
  put_u32(b, sample_every);
  put_u32(b, threshold_us);
}
/// Fetch one committed trace's span timeline by id (kNo when the id is
/// unknown — never committed, or already evicted from the ring window).
inline void encode_trace_get(std::vector<uint8_t>& b, uint64_t trace_id) {
  encode_header(b, Op::kTraceGet, 8);
  put_u64(b, trace_id);
}

// -- response encoding (server side) ----------------------------------------

inline void encode_status(std::vector<uint8_t>& b, Status st) {
  put_u32(b, 1);
  b.push_back(static_cast<uint8_t>(st));
}
inline void encode_val_response(std::vector<uint8_t>& b, ValT val) {
  put_u32(b, 1 + 8);
  b.push_back(static_cast<uint8_t>(Status::kOk));
  put_i64(b, val);
}
inline void encode_range_response(
    std::vector<uint8_t>& b, timestamp_t ts,
    const std::vector<std::pair<KeyT, ValT>>& items) {
  put_u32(b, static_cast<uint32_t>(1 + 8 + 4 + 16 * items.size()));
  b.push_back(static_cast<uint8_t>(Status::kOk));
  put_u64(b, ts);
  put_u32(b, static_cast<uint32_t>(items.size()));
  for (const auto& [k, v] : items) {
    put_i64(b, k);
    put_i64(b, v);
  }
}
inline void encode_text_response(std::vector<uint8_t>& b,
                                 const std::string& text) {
  put_u32(b, static_cast<uint32_t>(1 + text.size()));
  b.push_back(static_cast<uint8_t>(Status::kOk));
  b.insert(b.end(), text.begin(), text.end());
}
/// Shed reply: kErrOverloaded carrying the server's retry-after hint in
/// milliseconds. The op was NOT executed, so an immediate retry is always
/// safe — the hint just tells a well-behaved client when retrying is
/// likely to succeed.
inline void encode_overloaded(std::vector<uint8_t>& b,
                              uint32_t retry_after_ms) {
  put_u32(b, 1 + 4);
  b.push_back(static_cast<uint8_t>(Status::kErrOverloaded));
  put_u32(b, retry_after_ms);
}

// -- frame splitting ---------------------------------------------------------

/// One parsed frame: the leading tag byte (opcode or status) plus the rest
/// of the payload. Views into the caller's buffer; valid until it mutates.
struct FrameView {
  uint8_t tag = 0;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  uint64_t trace_id = 0;  ///< nonzero iff the frame carried a trace context

  Op op() const { return static_cast<Op>(tag); }
  Status status() const { return static_cast<Status>(tag); }
};

enum class SplitResult : uint8_t {
  kFrame,      // *out holds the next frame; consume advance bytes
  kNeedMore,   // buffer holds a partial frame
  kOversized,  // declared length exceeds max_frame (stream poisoned)
  kBadLength,  // declared length 0 (no tag byte; stream poisoned)
};

/// Try to split one frame off buf[off..len). On kFrame, `*advance` is the
/// total encoded size (prefix + payload) to consume. Never copies.
inline SplitResult split_frame(const uint8_t* buf, size_t len, size_t off,
                               uint32_t max_frame, FrameView* out,
                               size_t* advance) {
  if (len - off < kLenBytes) return SplitResult::kNeedMore;
  const uint32_t word = get_u32(buf + off);
  const bool traced = (word & kTraceFlagBit) != 0;
  const uint32_t flen = word & kLenMask;
  if (flen == 0) return SplitResult::kBadLength;
  if (flen > max_frame) return SplitResult::kOversized;
  const size_t hdr = kLenBytes + (traced ? kTraceCtxBytes : 0);
  if (len - off < hdr + flen) return SplitResult::kNeedMore;
  out->trace_id = traced ? get_u64(buf + off + kLenBytes) : 0;
  out->tag = buf[off + hdr];
  out->body = buf + off + hdr + 1;
  out->body_len = flen - 1;
  *advance = hdr + flen;
  return SplitResult::kFrame;
}

// -- response decoding (client side) ----------------------------------------

/// One transaction op's outcome as reported by TXN_COMMIT.
struct TxnOpResult {
  Status status = Status::kOk;
  ValT val = 0;  // GET result when status == kOk
};

/// Decoded response for the client library. `items`/`text`/`txn` are
/// filled only for the response kinds that carry them.
struct Reply {
  Status status = Status::kErrMalformed;
  ValT val = 0;
  timestamp_t ts = RangeSnapshot::kNoTimestamp;
  uint32_t retry_after_ms = 0;  // kErrOverloaded's hint; 0 otherwise
  std::vector<std::pair<KeyT, ValT>> items;
  std::string text;
  std::vector<TxnOpResult> txn;

  bool ok() const { return status == Status::kOk; }
  bool overloaded() const { return status == Status::kErrOverloaded; }
};

/// Decode a response frame's payload for the request kind `req`. Returns
/// false on a payload that does not match the protocol (client-side
/// defensive check; a healthy server never produces one).
inline bool decode_reply(Op req, const FrameView& f, Reply* r) {
  r->status = f.status();
  r->val = 0;
  r->ts = RangeSnapshot::kNoTimestamp;
  r->retry_after_ms = 0;
  r->items.clear();
  r->text.clear();
  r->txn.clear();
  if (r->status == Status::kErrOverloaded) {
    if (f.body_len == 4) r->retry_after_ms = get_u32(f.body);
    return true;  // hint optional: tag-only shed replies stay valid
  }
  if (r->status != Status::kOk) return true;  // error/negative: tag only
  switch (req) {
    case Op::kGet:
      if (f.body_len != 8) return false;
      r->val = get_i64(f.body);
      return true;
    case Op::kRange: {
      if (f.body_len < 12) return false;
      r->ts = get_u64(f.body);
      const uint32_t n = get_u32(f.body + 8);
      if (f.body_len != 12 + 16ull * n) return false;
      r->items.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        const uint8_t* p = f.body + 12 + 16ull * i;
        r->items.emplace_back(get_i64(p), get_i64(p + 8));
      }
      return true;
    }
    case Op::kTxnCommit: {
      if (f.body_len < 4) return false;
      const uint32_t n = get_u32(f.body);
      if (f.body_len != 4 + 9ull * n) return false;
      r->txn.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        const uint8_t* p = f.body + 4 + 9ull * i;
        r->txn.push_back({static_cast<Status>(p[0]), get_i64(p + 1)});
      }
      return true;
    }
    case Op::kStats:
    case Op::kMetrics:
    case Op::kTraceDump:  // policy acks are tag-only; text stays empty
    case Op::kTraceGet:
      r->text.assign(reinterpret_cast<const char*>(f.body), f.body_len);
      return true;
    default:  // INSERT/REMOVE/PING/TXN_BEGIN/TXN_OP/TXN_ABORT: tag only
      return f.body_len == 0;
  }
}

}  // namespace bref::net
