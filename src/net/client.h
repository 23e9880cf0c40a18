#pragma once
// bref::net::Client — the client library for the bref wire protocol
// (protocol.h / PROTOCOL.md): a TCP connection with a synchronous per-op
// surface and a pipelined mode, both over one reply codec.
//
// Synchronous (one round trip per call):
//
//   net::Client c("127.0.0.1", port);
//   c.insert(10, 100);
//   std::optional<ValT> v = c.get(10);
//   RangeSnapshot snap;
//   c.range(5, 50, snap);          // snap.timestamp() = server-side stamp
//
// Pipelined (one write, one read wave for a whole batch — the shape the
// server's epoll-batched execution is built for):
//
//   net::Pipeline p(c);
//   for (KeyT k : keys) p.get(k);
//   std::vector<net::Reply> rs = p.collect();   // in request order
//
// A Pipeline also runs under a caller's event loop, never blocking: send()
// writes what the socket takes now (MSG_DONTWAIT), and when poll() reports
// c.fd() readable, receive() reads what has arrived and next() hands out
// each whole reply in request order:
//
//   p.get(k);
//   p.send();                      // poll for POLLOUT while p.unsent() > 0
//   p.receive();                   // on POLLIN
//   for (net::Reply r; p.next(&r);) ...
//
// Transactions mirror the wire ops: txn_begin()/txn_op()s/txn_commit()
// (per-op results) or txn_abort(). One client = one connection = one
// in-flight user; the class is not thread-safe (use one Client per
// thread, like sessions), and a Pipeline's replies must be taken before
// the client's sync ops run again.
//
// One codec: every reply, sync or pipelined, lands in the client's one
// receive buffer and leaves it only through split_frame (protocol.h) and
// decode_reply, under kMaxReply (256 MiB). The buffer grows only with the
// bytes actually received, never with a declared length, so a bogus
// length word is a kProtocol error rather than an allocation; and a small
// sync reply costs one recv.
//
// Robustness contract (every failure is a typed NetError, never a hang):
//
//   * connect honors ClientOptions::connect_timeout_ms, retrying refused
//     connections with jittered backoff until the deadline — racing a
//     server that is still binding is safe.
//   * every blocking send and recv is bounded by op_deadline_ms: each
//     syscall waits at most a quarter of it (SO_RCVTIMEO/SO_SNDTIMEO,
//     capped at 1 s) before the deadline is re-checked, so a peer dying
//     mid-pipeline, a black-holed connection, or a half-open socket
//     surfaces as kTimeout / kEof / kReset within the deadline instead of
//     blocking forever.
//   * synchronous ops transparently retry kErrOverloaded replies with
//     jittered exponential backoff floored at the server's retry-after
//     hint, up to overload_retries and within op_deadline_ms; past that
//     the NetError carries kOverloaded. Pipelined mode does NOT retry —
//     collect() and next() surface shed replies (Reply::overloaded()) so
//     batch callers decide themselves.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/range_snapshot.h"
#include "api/types.h"
#include "common/backoff.h"
#include "net/guard.h"
#include "net/protocol.h"
#include "net/testing/faultfd.h"

namespace bref::net {

/// Why a NetError was thrown — stable across what() wording changes, so
/// tests and retry policies can branch on it.
enum class NetErrorKind : uint8_t {
  kConnect,     // could not establish the connection within its deadline
  kTimeout,     // a read/write deadline expired (connection may be dead)
  kEof,         // orderly shutdown from the peer mid-conversation
  kReset,       // ECONNRESET / EPIPE — the peer vanished
  kProtocol,    // reply bytes do not parse / do not match the request
  kOverloaded,  // server kept shedding past every retry
  kIo,          // any other socket error
};

inline const char* to_string(NetErrorKind k) {
  switch (k) {
    case NetErrorKind::kConnect: return "connect";
    case NetErrorKind::kTimeout: return "timeout";
    case NetErrorKind::kEof: return "eof";
    case NetErrorKind::kReset: return "reset";
    case NetErrorKind::kProtocol: return "protocol";
    case NetErrorKind::kOverloaded: return "overloaded";
    case NetErrorKind::kIo: return "io";
  }
  return "?";
}

/// Thrown on connection failure, deadline expiry, unexpected EOF/reset,
/// shedding past every retry, or a reply that does not parse.
class NetError : public std::runtime_error {
 public:
  NetError(NetErrorKind kind, const std::string& what)
      : std::runtime_error(std::string(net::to_string(kind)) + ": " + what),
        kind_(kind) {}
  NetErrorKind kind() const noexcept { return kind_; }

 private:
  NetErrorKind kind_;
};

struct ClientOptions {
  uint32_t connect_timeout_ms = 5'000;  // total budget incl. refused-retries
  uint32_t op_deadline_ms = 30'000;     // per-op budget: its send + its reply
  uint32_t overload_retries = 8;        // sync ops only; 0 = never retry
  /// Stamp a trace context (PROTOCOL.md §trace context) onto every
  /// request, making each one traceable end-to-end; ids are reported via
  /// last_trace_id() / Pipeline::trace_ids() and resolved with
  /// trace_get(). Only enable against servers that speak this protocol
  /// revision — an old server rejects flagged frames as oversized.
  bool trace = false;
};

/// Cap on one reply frame's declared length. Requests are capped by the
/// server's max_frame; a reply is bounded by what was asked (a RANGE's
/// width), so this only separates "anything sane" from a corrupt stream.
inline constexpr uint32_t kMaxReply = 256u << 20;

class Client {
 public:
  /// Connect to host:port within opt.connect_timeout_ms (refused
  /// connections are retried with jittered backoff — racing a server
  /// that is still binding its listener is safe). Throws NetError.
  Client(const std::string& host, uint16_t port, ClientOptions opt = {})
      : opt_(opt) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
      throw NetError(NetErrorKind::kConnect, "bad address: " + host);
    const uint64_t deadline = steady_ms() + opt_.connect_timeout_ms;
    JitteredBackoff bo;  // connect jitter
    for (;;) {
      const int e = try_connect(addr, deadline);
      if (e == 0) break;
      if ((e != ECONNREFUSED && e != ETIMEDOUT && e != EINPROGRESS) ||
          steady_ms() >= deadline)
        throw NetError(NetErrorKind::kConnect,
                       "connect " + host + ":" + std::to_string(port) +
                           ": " + std::strerror(e));
      bo.sleep();
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    set_io_slice();
  }
  /// Loopback convenience.
  explicit Client(uint16_t port, ClientOptions opt = {})
      : Client("127.0.0.1", port, opt) {}

  ~Client() { close(); }
  Client(Client&& o) noexcept { *this = std::move(o); }
  Client& operator=(Client&& o) noexcept {
    if (this != &o) {
      close();
      opt_ = o.opt_;
      backoff_ = o.backoff_;
      fd_ = std::exchange(o.fd_, -1);
      trace_base_ = o.trace_base_;
      trace_seq_ = o.trace_seq_;
      last_trace_id_ = o.last_trace_id_;
      in_ = std::move(o.in_);
      in_off_ = std::exchange(o.in_off_, 0);
      in_len_ = std::exchange(o.in_len_, 0);
    }
    return *this;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd() const noexcept { return fd_; }

  // -- synchronous surface (mirrors ThreadSession) -------------------------
  bool insert(KeyT key, ValT val) {
    buf_.clear();
    encode_insert(buf_, key, val);
    return call(Op::kInsert).status == Status::kOk;
  }
  bool remove(KeyT key) {
    buf_.clear();
    encode_remove(buf_, key);
    return call(Op::kRemove).status == Status::kOk;
  }
  std::optional<ValT> get(KeyT key) {
    buf_.clear();
    encode_get(buf_, key);
    const Reply r = call(Op::kGet);
    if (r.status != Status::kOk) return std::nullopt;
    return r.val;
  }
  /// Fill `out` with the server-side snapshot of [lo, hi], including the
  /// timestamp it linearized at (kNoTimestamp when the backing
  /// implementation reports none) — the same contract as
  /// ThreadSession::range_query, over the wire.
  size_t range(KeyT lo, KeyT hi, RangeSnapshot& out) {
    buf_.clear();
    encode_range(buf_, lo, hi);
    Reply r = call(Op::kRange);
    if (r.status != Status::kOk)
      throw NetError(NetErrorKind::kProtocol,
                     std::string("range: ") + to_string(r.status));
    out.reset(lo, hi) = std::move(r.items);
    out.set_timestamp(r.ts);
    return out.size();
  }
  bool ping() {
    buf_.clear();
    encode_ping(buf_);
    return call(Op::kPing).status == Status::kOk;
  }
  /// The server's stats document (JSON text; see Server::stats_json).
  std::string stats() {
    buf_.clear();
    encode_stats(buf_);
    return call(Op::kStats).text;
  }
  /// The process-wide metrics snapshot (Prometheus text exposition).
  std::string metrics() {
    buf_.clear();
    encode_metrics(buf_);
    return call(Op::kMetrics).text;
  }
  /// The committed-trace dump (JSON text; see Server::trace_dump_json).
  std::string trace_dump() {
    buf_.clear();
    encode_trace_dump(buf_);
    return call(Op::kTraceDump).text;
  }
  /// Set the capture policy: the reservoir rate (commit ~one trace per
  /// `sample_every` completions; 0 disables the reservoir) + the latency
  /// threshold in microseconds (0 = commit every completed trace,
  /// UINT32_MAX = no threshold commits).
  bool trace_config(uint32_t sample_every, uint32_t threshold_us) {
    buf_.clear();
    encode_trace_config(buf_, sample_every, threshold_us);
    return call(Op::kTraceDump).status == Status::kOk;
  }
  /// Resolve a trace id to its committed span timeline (JSON), or
  /// std::nullopt when the server no longer (or never) holds it.
  std::optional<std::string> trace_get(uint64_t trace_id) {
    buf_.clear();
    encode_trace_get(buf_, trace_id);
    Reply r = call(Op::kTraceGet);
    if (r.status != Status::kOk) return std::nullopt;
    return std::move(r.text);
  }
  /// The id stamped on the most recent traced request (0 when tracing is
  /// off). With sync ops: the id of the op just issued.
  uint64_t last_trace_id() const noexcept { return last_trace_id_; }
  bool tracing() const noexcept { return opt_.trace; }

  // -- transactions --------------------------------------------------------
  bool txn_begin() {
    buf_.clear();
    encode_txn_begin(buf_);
    return call(Op::kTxnBegin).status == Status::kOk;
  }
  bool txn_insert(KeyT key, ValT val) {
    buf_.clear();
    encode_txn_op(buf_, Op::kInsert, key, val);
    return call(Op::kTxnOp).status == Status::kOk;
  }
  bool txn_remove(KeyT key) {
    buf_.clear();
    encode_txn_op(buf_, Op::kRemove, key);
    return call(Op::kTxnOp).status == Status::kOk;
  }
  bool txn_get(KeyT key) {
    buf_.clear();
    encode_txn_op(buf_, Op::kGet, key);
    return call(Op::kTxnOp).status == Status::kOk;
  }
  /// Commit; per-op outcomes in buffer order (empty on state error).
  std::vector<TxnOpResult> txn_commit() {
    buf_.clear();
    encode_txn_commit(buf_);
    return call(Op::kTxnCommit).txn;
  }
  bool txn_abort() {
    buf_.clear();
    encode_txn_abort(buf_);
    return call(Op::kTxnAbort).status == Status::kOk;
  }

  // -- raw building blocks (tests drive hand-made frames through these) ---
  /// Write `n` bytes within the op deadline. Throws NetError.
  void write_all(const uint8_t* p, size_t n) {
    const uint64_t deadline = deadline_from_now();
    while (n > 0) {
      const size_t sent = send_some(p, n, 0);
      if (sent == 0 && steady_ms() >= deadline)
        throw NetError(NetErrorKind::kTimeout, "send stalled");
      p += sent;
      n -= sent;
    }
  }

  /// Read one reply frame and decode it for request kind `req`, bounded by
  /// opt_.op_deadline_ms. Throws NetError (kTimeout / kEof / kReset /
  /// kProtocol) — never blocks past the deadline even when the peer
  /// black-holes or dies mid-frame.
  Reply read_reply(Op req) { return read_reply(req, deadline_from_now()); }

 private:
  friend class Pipeline;

  // Free space each recv is offered; the receive buffer grows to keep it.
  static constexpr size_t kRecvChunk = 64u << 10;

  /// One op: send the request, read the reply, transparently retrying
  /// kErrOverloaded with jittered backoff floored at the server's
  /// retry-after hint, within op_deadline_ms and overload_retries.
  Reply call(Op req) {
    // Sync ops encode exactly one frame at offset 0. An overload retry
    // re-sends the stamped bytes, so the retried attempt keeps its id —
    // one logical request, one trace.
    if (opt_.trace) stamp_trace(buf_, 0);
    const uint64_t deadline = deadline_from_now();
    backoff_.reset();
    for (uint32_t attempt = 0;; ++attempt) {
      write_all(buf_.data(), buf_.size());
      Reply r = read_reply(req, deadline);
      if (!r.overloaded()) return r;
      if (attempt >= opt_.overload_retries)
        throw NetError(NetErrorKind::kOverloaded,
                       "server still shedding after " +
                           std::to_string(attempt + 1) + " attempts");
      const uint32_t wait = backoff_.next_ms(r.retry_after_ms);
      if (steady_ms() + wait >= deadline)
        throw NetError(NetErrorKind::kOverloaded,
                       "op deadline reached while backing off");
      JitteredBackoff::sleep_for(wait);
    }
  }

  uint64_t deadline_from_now() const {
    return steady_ms() + opt_.op_deadline_ms;
  }

  /// One send (flags: 0 blocks for at most one slice, MSG_DONTWAIT not at
  /// all). Returns the bytes sent; 0 when the socket took none.
  size_t send_some(const uint8_t* p, size_t n, int flags) {
    for (;;) {
      const ssize_t r = fault::send(fd_, p, n, MSG_NOSIGNAL | flags);
      if (r >= 0) return static_cast<size_t>(r);
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      if (errno != EINTR) io_error("send");
    }
  }

  Reply read_reply(Op req, uint64_t deadline) {
    Reply r;
    while (!take_reply(req, &r))
      if (recv_some(0) == 0 && steady_ms() >= deadline)
        throw NetError(NetErrorKind::kTimeout, "reply deadline expired");
    return r;
  }

  /// Split the next whole reply off the receive buffer and decode it for
  /// `req`; false while it has not fully arrived.
  bool take_reply(Op req, Reply* r) {
    FrameView f;
    size_t advance = 0;
    const SplitResult sr =
        split_frame(in_.data(), in_len_, in_off_, kMaxReply, &f, &advance);
    if (sr == SplitResult::kNeedMore) return false;
    if (sr != SplitResult::kFrame)
      throw NetError(NetErrorKind::kProtocol,
                     "reply frame length is zero or over kMaxReply");
    if (!decode_reply(req, f, r))
      throw NetError(NetErrorKind::kProtocol,
                     "reply payload does not match request kind");
    in_off_ += advance;
    return true;
  }

  /// One recv into the receive buffer (flags as for send_some). Returns
  /// the bytes received; 0 when none arrived.
  size_t recv_some(int flags) {
    if (in_off_ == in_len_) in_off_ = in_len_ = 0;
    if (in_.size() - in_len_ < kRecvChunk && in_off_ > 0) {  // compact
      std::copy(in_.begin() + in_off_, in_.begin() + in_len_, in_.begin());
      in_len_ -= in_off_;
      in_off_ = 0;
    }
    if (in_.size() - in_len_ < kRecvChunk)  // grow
      in_.resize(std::max(2 * in_.size(), in_len_ + kRecvChunk));
    for (;;) {
      const ssize_t r = fault::recv(fd_, in_.data() + in_len_,
                                    in_.size() - in_len_, flags);
      if (r > 0) {
        in_len_ += static_cast<size_t>(r);
        return static_cast<size_t>(r);
      }
      if (r == 0)
        throw NetError(NetErrorKind::kEof, "server closed the connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      if (errno != EINTR) io_error("recv");
    }
  }

  /// A failed send or recv: kReset when the peer vanished, else kIo.
  [[noreturn]] static void io_error(const char* call) {
    throw NetError(errno == ECONNRESET || errno == EPIPE ? NetErrorKind::kReset
                                                         : NetErrorKind::kIo,
                   std::string(call) + ": " + std::strerror(errno));
  }

  /// One non-blocking connect attempt against the remaining deadline.
  /// Returns 0 on success (fd_ is connected and blocking again), else
  /// the errno-style failure code (fd_ closed).
  int try_connect(const sockaddr_in& addr, uint64_t deadline) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd_ < 0) return errno;
    int rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
    if (rc < 0 && errno == EINPROGRESS) {
      pollfd pfd{fd_, POLLOUT, 0};
      const uint64_t now = steady_ms();
      const int wait =
          now >= deadline ? 0 : static_cast<int>(deadline - now);
      rc = ::poll(&pfd, 1, wait);
      if (rc == 0) return close_with(ETIMEDOUT);
      if (rc < 0) return close_with(errno);
      int soerr = 0;
      socklen_t slen = sizeof soerr;
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &slen);
      if (soerr != 0) return close_with(soerr);
    } else if (rc < 0) {
      return close_with(errno);
    }
    const int flags = ::fcntl(fd_, F_GETFL);
    ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);
    return 0;
  }
  int close_with(int e) {
    ::close(fd_);
    fd_ = -1;
    return e;
  }

  /// A blocking send or recv waits at most a quarter of the op deadline
  /// (and at most 1 s) before its caller re-checks the deadline.
  void set_io_slice() {
    const uint32_t ms = std::clamp<uint32_t>(opt_.op_deadline_ms / 4, 1, 1000);
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }

  /// Stamp the next trace id onto the frame starting at `frame_off` in
  /// `b` (Pipeline calls this per queued frame). Returns the id.
  uint64_t stamp_trace(std::vector<uint8_t>& b, size_t frame_off) {
    const uint64_t id = next_trace_id();
    stamp_trace_context(b, frame_off, id);
    last_trace_id_ = id;
    return id;
  }

  /// Client-side trace ids: a per-connection base (start time mixed with
  /// the object identity — unique enough to make exemplar lookups
  /// unambiguous within a run) plus a sequence. Never returns 0 ("no
  /// context").
  uint64_t next_trace_id() {
    if (trace_base_ == 0)
      trace_base_ = (steady_ms() ^ reinterpret_cast<uintptr_t>(this)) << 24;
    uint64_t id = trace_base_ + ++trace_seq_;
    if (id == 0) id = ++trace_seq_;
    return id;
  }

  ClientOptions opt_;
  JitteredBackoff backoff_;
  int fd_ = -1;
  uint64_t trace_base_ = 0;
  uint64_t trace_seq_ = 0;
  uint64_t last_trace_id_ = 0;
  std::vector<uint8_t> buf_;  // request scratch
  std::vector<uint8_t> in_;   // received bytes; [in_off_, in_len_) unsplit
  size_t in_off_ = 0;
  size_t in_len_ = 0;
};

/// Pipelined batch over a Client: queue any number of requests, flush()
/// them in one write, collect() the replies in request order — or drive
/// the same queue from an event loop with send() / receive() / next(),
/// which never block. The server executes a batch in one epoll wave and
/// answers with one writev.
///
/// Overload: shed requests come back as replies with
/// Reply::overloaded() == true (retry_after_ms carries the hint); the
/// pipeline does NOT retry them — the caller owns batch retry policy.
/// A peer dying mid-batch surfaces as NetError (kEof/kReset/kTimeout)
/// from collect() within the client's op deadline, and from send(),
/// receive() or next() as soon as it shows.
class Pipeline {
 public:
  explicit Pipeline(Client& c) : c_(&c) {}

  void get(KeyT key) {
    const size_t off = buf_.size();
    encode_get(buf_, key);
    queue(Op::kGet, off);
  }
  void insert(KeyT key, ValT val) {
    const size_t off = buf_.size();
    encode_insert(buf_, key, val);
    queue(Op::kInsert, off);
  }
  void remove(KeyT key) {
    const size_t off = buf_.size();
    encode_remove(buf_, key);
    queue(Op::kRemove, off);
  }
  void range(KeyT lo, KeyT hi) {
    const size_t off = buf_.size();
    encode_range(buf_, lo, hi);
    queue(Op::kRange, off);
  }
  void ping() {
    const size_t off = buf_.size();
    encode_ping(buf_);
    queue(Op::kPing, off);
  }
  void txn_begin() {
    const size_t off = buf_.size();
    encode_txn_begin(buf_);
    queue(Op::kTxnBegin, off);
  }
  /// Buffer `inner` (kInsert, kRemove or kGet) in the open transaction.
  void txn_op(Op inner, KeyT key, ValT val = 0) {
    const size_t off = buf_.size();
    encode_txn_op(buf_, inner, key, val);
    queue(Op::kTxnOp, off);
  }
  void txn_commit() {
    const size_t off = buf_.size();
    encode_txn_commit(buf_);
    queue(Op::kTxnCommit, off);
  }

  /// Queued requests whose replies have not been taken yet.
  size_t queued() const noexcept { return ops_.size() - done_; }
  /// Queued request bytes not yet written to the socket.
  size_t unsent() const noexcept { return buf_.size() - sent_; }

  /// Trace ids of the requests queued since the pipeline was last empty,
  /// in request order (0 when the client is not tracing). Copy before
  /// collect() — taking the last outstanding reply clears them. Correlate
  /// with the replies by index to map a slow reply to its TRACE_GET-able
  /// id.
  const std::vector<uint64_t>& trace_ids() const noexcept { return ids_; }

  /// Send every queued request in one write (does not read).
  void flush() {
    c_->write_all(buf_.data() + sent_, unsent());
    buf_.clear();
    sent_ = 0;
  }

  /// flush(), then read every outstanding reply, in order. One deadline
  /// bounds the whole batch read.
  std::vector<Reply> collect() {
    flush();
    const uint64_t deadline = c_->deadline_from_now();
    std::vector<Reply> out;
    out.reserve(queued());
    while (queued() > 0) {
      out.push_back(c_->read_reply(ops_[done_], deadline));
      taken();
    }
    return out;
  }

  /// Write as much of the queue as the socket takes now, without
  /// blocking. True once nothing is left unsent.
  bool send() {
    while (unsent() > 0) {
      const size_t n =
          c_->send_some(buf_.data() + sent_, unsent(), MSG_DONTWAIT);
      if (n == 0) return false;
      sent_ += n;
    }
    buf_.clear();
    sent_ = 0;
    return true;
  }

  /// Read what has arrived on the socket, without blocking (one recv).
  void receive() { c_->recv_some(MSG_DONTWAIT); }

  /// Take the next reply, in request order, if receive() has buffered it
  /// whole; false otherwise.
  bool next(Reply* r) {
    if (queued() == 0) {
      if (c_->in_off_ != c_->in_len_)
        throw NetError(NetErrorKind::kProtocol, "reply without a request");
      return false;
    }
    if (!c_->take_reply(ops_[done_], r)) return false;
    taken();
    return true;
  }

 private:
  void queue(Op op, size_t frame_off) {
    ops_.push_back(op);
    ids_.push_back(c_->tracing() ? c_->stamp_trace(buf_, frame_off) : 0);
  }
  void taken() {
    if (++done_ < ops_.size()) return;
    ops_.clear();
    ids_.clear();
    done_ = 0;
  }

  Client* c_;
  std::vector<uint8_t> buf_;  // queued request bytes; [0, sent_) written
  size_t sent_ = 0;
  std::vector<Op> ops_;  // request kinds, in order; [0, done_) answered
  size_t done_ = 0;
  std::vector<uint64_t> ids_;
};

}  // namespace bref::net
