#pragma once
// The wire load generator: one thread driving a few nonblocking loopback
// connections, with the client codec of net/protocol.h (encode_* and
// decode_reply) and every reply checked.
//
// Two phases:
//   * closed loop — each connection keeps exactly one request in flight;
//     completions per second at that fixed concurrency are the capacity.
//   * open loop — requests fall due on a fixed schedule (rate R, evenly
//     spaced, round-robin over the connections) whether or not earlier
//     replies came back, and each latency runs from the request's due time,
//     so a stall is charged to every request it delays. The wait for the
//     next due time is a ppoll() with a nanosecond timespec (timer slack
//     set to 1 ns) that also wakes for replies, then a spin over
//     zero-timeout ppolls for the last kSpinNs; the send lateness (send
//     time minus due time) is recorded on its own.
//
// A failed op (error or shed reply, wrong answer, no reply by the drain
// deadline) is recorded at the top of the latency histogram: it misses
// every latency limit instead of dropping out of the distribution.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/protocol.h"

namespace perfbench {

namespace net = bref::net;

/// What the generator saw in one phase.
struct WireTally {
  Windows win;                   // completions per second
  LatencyHist all, range, scan;  // from due time to reply receipt
  LatencyHist lateness;          // send time minus due time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  uint64_t updates = 0;
  uint64_t range_items = 0;  // summed RANGE-50 reply sizes
  uint64_t ranges = 0;
  // Client codec cost, timed only in the traced run.
  uint64_t encode_ns = 0, encoded = 0;
  uint64_t decode_ns = 0, decoded = 0;
};

class WireGen {
 public:
  /// `tick` runs about every 20 ms from inside the loop (layer sampling).
  WireGen(uint16_t port, int conns, const Mix& mix, uint64_t seed,
          Checker& chk, bool break_check, std::function<void()> tick)
      : gen_(mix, seed),
        chk_(chk),
        break_check_(break_check),
        tick_(std::move(tick)) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    for (int i = 0; i < conns; ++i)
      conns_.push_back(std::make_unique<Conn>(port));
    pfds_.resize(conns_.size());
  }

  /// The traced run: time the client codec in every odd one-second
  /// window of each phase, so odd windows against even ones give the
  /// timing's overhead without drift between them.
  void trace_odd_windows() { trace_odd_ = true; }

  /// Closed loop for `ns`, each connection with one request in flight.
  void closed_loop(uint64_t ns, WireTally& t) {
    const uint64_t start = now_ns();
    t.win.restart(start);
    phase_t0_ = start;
    window_end_ = start + ns;
    closed_ = true;
    for (auto& c : conns_) send_request(*c, gen_.next(), start, t);
    while (now_ns() < window_end_) pump(1'000'000, t);
    closed_ = false;
    drain(t);
  }

  /// Open loop at `rate` requests/s for `ns`.
  void open_loop(double rate, uint64_t ns, WireTally& t) {
    const double period = 1e9 / rate;
    const uint64_t t0 = now_ns() + 1'000'000;
    t.win.restart(t0);
    phase_t0_ = t0;
    for (uint64_t i = 0;; ++i) {
      const uint64_t due =
          t0 + static_cast<uint64_t>(period * static_cast<double>(i));
      if (due >= t0 + ns) break;
      for (uint64_t now = now_ns(); now < due; now = now_ns()) {
        if (!deferred_.empty() && due - now > kDeferSlackNs)
          run_deferred(t);
        else
          pump(due - now > kSpinNs ? due - now - kSpinNs : 0, t);
      }
      const uint64_t sent = now_ns();
      t.lateness.record(sent - due);
      send_request(*conns_[i % conns_.size()], gen_.next(), due, t);
    }
    drain(t);
  }

 private:
  static constexpr uint64_t kSpinNs = 20'000;
  // In the open loop, a reply this big (a SCAN's, ~200 KB) is decoded and
  // checked only when the next send is at least kDeferSlackNs away: its
  // ~50 us of decoding would otherwise make the following send late. Its
  // latency still ends at its receipt.
  static constexpr size_t kDeferBytes = 64u << 10;
  static constexpr uint64_t kDeferSlackNs = 60'000;
  static constexpr size_t kBufBytes = 1u << 20;
  static constexpr uint64_t kFailedNs = ~uint64_t{0};
  static constexpr uint64_t kDrainNs = 5'000'000'000ull;

  struct Inflight {
    Request req;
    uint64_t due;
  };
  struct Buf {
    std::unique_ptr<uint8_t[]> p;
    size_t cap = 0;
  };
  struct Conn {
    explicit Conn(uint16_t port) : client(port), fd(client.fd()) {}
    net::Client client;  // connects (with retries) and owns the fd
    int fd;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    Buf in;  // received bytes [in_off, in_len) not parsed yet
    size_t in_len = 0, in_off = 0;
    std::deque<Inflight> q;
  };
  /// A big reply waiting to be decoded; it owns the buffer it arrived in.
  struct Deferred {
    Inflight op;
    uint64_t received;
    Buf buf;
    size_t off, len;  // the frame after its length word
  };

  static net::Op wire_op(Kind k) {
    switch (k) {
      case Kind::kGet: return net::Op::kGet;
      case Kind::kInsert: return net::Op::kInsert;
      case Kind::kRemove: return net::Op::kRemove;
      default: return net::Op::kRange;
    }
  }

  void send_request(Conn& c, const Request& r, uint64_t due, WireTally& t) {
    const uint64_t e0 = traced_ ? now_ns() : 0;
    switch (r.kind) {
      case Kind::kGet: net::encode_get(c.out, r.lo); break;
      case Kind::kInsert: net::encode_insert(c.out, r.lo, r.lo); break;
      case Kind::kRemove: net::encode_remove(c.out, r.lo); break;
      default: net::encode_range(c.out, r.lo, r.hi); break;
    }
    if (traced_) {
      t.encode_ns += now_ns() - e0;
      ++t.encoded;
    }
    c.q.push_back({r, due});
    ++t.attempted;
    if (r.kind == Kind::kInsert || r.kind == Kind::kRemove) ++t.updates;
    flush(c);
  }

  static void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // ppoll waits for POLLOUT
      } else if (errno != EINTR) {
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
    }
    c.out.clear();
    c.out_off = 0;
  }

  /// Wait up to `timeout_ns` (0: just look) for replies or writability,
  /// and handle whatever is ready.
  void pump(uint64_t timeout_ns, WireTally& t) {
    for (size_t i = 0; i < conns_.size(); ++i) {
      pfds_[i].fd = conns_[i]->fd;
      pfds_[i].events = static_cast<short>(
          POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT));
      pfds_[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000ull),
                static_cast<long>(timeout_ns % 1'000'000'000ull)};
    const int n = ::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr);
    if (n < 0 && errno != EINTR)
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    for (size_t i = 0; n > 0 && i < conns_.size(); ++i) {
      if (pfds_[i].revents & POLLOUT) flush(*conns_[i]);
      if (pfds_[i].revents & (POLLIN | POLLERR | POLLHUP))
        receive(*conns_[i], t);
    }
    const uint64_t now = now_ns();
    traced_ = trace_odd_ && now > phase_t0_ &&
              (now - phase_t0_) / Windows::kWidthNs % 2 == 1;
    if (now - last_tick_ >= 20'000'000) {
      last_tick_ = now;
      if (tick_) tick_();
    }
  }

  void receive(Conn& c, WireTally& t) {
    if (c.in.cap == 0) c.in = take_buf(kBufBytes);
    for (;;) {
      if (c.in.cap - c.in_len < (64u << 10)) make_room(c, 64u << 10);
      const ssize_t n = ::recv(c.fd, c.in.p.get() + c.in_len,
                               c.in.cap - c.in_len, MSG_DONTWAIT);
      if (n > 0) {
        c.in_len += static_cast<size_t>(n);
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    const uint64_t received = now_ns();
    while (c.in_len - c.in_off >= net::kLenBytes) {
      const uint32_t len = net::get_u32(c.in.p.get() + c.in_off);
      if (len == 0) throw std::runtime_error("zero-length reply frame");
      const size_t frame = net::kLenBytes + len;
      if (c.in_len - c.in_off < frame) {
        make_room(c, frame);
        break;
      }
      if (c.q.empty()) throw std::runtime_error("reply without a request");
      if (!closed_ && len > kDeferBytes) {
        // Hand the buffer over with the frame in it; the bytes after the
        // frame move to a fresh buffer.
        const size_t rest = c.in_len - c.in_off - frame;
        Buf fresh = take_buf(std::max(kBufBytes, rest + (64u << 10)));
        std::memcpy(fresh.p.get(), c.in.p.get() + c.in_off + frame, rest);
        deferred_.push_back({c.q.front(), received, std::move(c.in),
                             c.in_off + net::kLenBytes, len});
        c.q.pop_front();
        c.in = std::move(fresh);
        c.in_off = 0;
        c.in_len = rest;
        continue;
      }
      net::FrameView f;
      f.tag = c.in.p[c.in_off + net::kLenBytes];
      f.body = c.in.p.get() + c.in_off + net::kLenBytes + 1;
      f.body_len = len - 1;
      c.in_off += frame;
      complete(c, f, received, t);
    }
    if (c.in_off == c.in_len) c.in_off = c.in_len = 0;
  }

  Buf take_buf(size_t cap) {
    for (auto it = spare_.begin(); it != spare_.end(); ++it)
      if (it->cap >= cap) {
        Buf b = std::move(*it);
        spare_.erase(it);
        return b;
      }
    return {std::unique_ptr<uint8_t[]>(new uint8_t[cap]), cap};
  }

  /// Ensure `need` bytes fit after the unparsed tail: compact, then grow.
  void make_room(Conn& c, size_t need) {
    const size_t live = c.in_len - c.in_off;
    if (c.in_off > 0) {
      std::memmove(c.in.p.get(), c.in.p.get() + c.in_off, live);
      c.in_off = 0;
      c.in_len = live;
    }
    if (c.in.cap - c.in_len >= need) return;
    size_t cap = c.in.cap;
    while (cap - c.in_len < need) cap *= 2;
    Buf grown = take_buf(cap);
    std::memcpy(grown.p.get(), c.in.p.get(), c.in_len);
    spare_.push_back(std::move(c.in));
    c.in = std::move(grown);
  }

  void run_deferred(WireTally& t) {
    Deferred d = std::move(deferred_.front());
    deferred_.pop_front();
    net::FrameView f;
    f.tag = d.buf.p[d.off];
    f.body = d.buf.p.get() + d.off + 1;
    f.body_len = d.len - 1;
    finish(d.op, f, d.received, t);
    spare_.push_back(std::move(d.buf));
  }

  void complete(Conn& c, const net::FrameView& f, uint64_t received,
                WireTally& t) {
    const Inflight op = c.q.front();
    c.q.pop_front();
    finish(op, f, received, t);
    if (closed_ && received < window_end_)
      send_request(c, gen_.next(), now_ns(), t);
  }

  /// Decode, check and record one reply.
  void finish(const Inflight& op, const net::FrameView& f, uint64_t received,
              WireTally& t) {
    const uint64_t d0 = traced_ ? now_ns() : 0;
    bool ok = net::decode_reply(wire_op(op.req.kind), f, &reply_);
    if (traced_) {
      t.decode_ns += now_ns() - d0;
      ++t.decoded;
    }
    ok = ok && check(op.req, t);
    ++t.completed;
    record(op.req.kind, received, ok ? received - op.due : kFailedNs, t);
    if (!ok) ++t.failed;
  }

  bool check(const Request& r, WireTally& t) {
    const net::Status st = reply_.status;
    switch (r.kind) {
      case Kind::kGet:
        if (st != net::Status::kOk && st != net::Status::kNo)
          return chk_.fail("GET %lld: status %s", static_cast<long long>(r.lo),
                           net::to_string(st));
        return chk_.get(r.lo, st == net::Status::kOk, reply_.val);
      case Kind::kInsert:
      case Kind::kRemove:
        if (st == net::Status::kOk || st == net::Status::kNo) return true;
        return chk_.fail("update %lld: status %s", static_cast<long long>(r.lo),
                         net::to_string(st));
      default:
        if (st != net::Status::kOk)
          return chk_.fail("RANGE [%lld,%lld]: status %s",
                           static_cast<long long>(r.lo),
                           static_cast<long long>(r.hi), net::to_string(st));
        if (break_check_) drop_one_odd_key();
        if (r.kind == Kind::kRange) {
          t.range_items += reply_.items.size();
          ++t.ranges;
        }
        return chk_.range(r.lo, r.hi, reply_.items);
    }
  }

  /// The benchmark's own test of its checks: lose one odd key from the
  /// first RANGE reply, which the completeness check must catch.
  void drop_one_odd_key() {
    for (auto it = reply_.items.begin(); it != reply_.items.end(); ++it)
      if (it->first & 1) {
        reply_.items.erase(it);
        break_check_ = false;
        return;
      }
  }

  static void record(Kind k, uint64_t at, uint64_t ns, WireTally& t) {
    t.win.record(at);
    t.all.record(ns);
    if (k == Kind::kRange) t.range.record(ns);
    if (k == Kind::kScan) t.scan.record(ns);
  }

  /// Wait for every outstanding reply; whatever is still missing after
  /// kDrainNs counts as failed.
  void drain(WireTally& t) {
    const uint64_t deadline = now_ns() + kDrainNs;
    auto outstanding = [this] {
      for (auto& c : conns_)
        if (!c->q.empty()) return true;
      return false;
    };
    for (;;) {
      while (!deferred_.empty()) run_deferred(t);
      if (!outstanding() || now_ns() >= deadline) break;
      pump(1'000'000, t);
    }
    for (auto& c : conns_) {
      for (const Inflight& op : c->q) {
        chk_.fail("no reply by the drain deadline");
        ++t.failed;
        record(op.req.kind, now_ns(), kFailedNs, t);
      }
      c->q.clear();
    }
  }

  OpGen gen_;
  Checker& chk_;
  bool trace_odd_ = false;
  bool traced_ = false;  // timing the codec right now
  bool break_check_;
  std::function<void()> tick_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<pollfd> pfds_;
  std::deque<Deferred> deferred_;
  std::vector<Buf> spare_;
  net::Reply reply_;
  bool closed_ = false;
  uint64_t phase_t0_ = 0;
  uint64_t window_end_ = 0;
  uint64_t last_tick_ = 0;
};

}  // namespace perfbench
