// bref-top — a live terminal view over a running bref-server, driven
// entirely by the METRICS wire op (Prometheus text exposition). Nothing
// here is hard-coded to a metric list: counters render as rates between
// scrapes, gauges as values, histograms as p50/p99/p999 reconstructed
// from their cumulative le-buckets — so new instrumentation shows up in
// bref-top the moment a subsystem registers it.
//
// Two trace-aware panes (ISSUE 10): a per-stage tail panel breaking the
// wire-path p99 into queue/execute/flush, and a rolling slowest-traces
// board built by harvesting histogram exemplars from each scrape and
// resolving new trace ids to full span timelines with TRACE_GET.
//
//   ./bref_top --port 7000 [--host 127.0.0.1] [--interval 1000] [--once]
//
// Start a server first, e.g.:  ./bench/fig7_server --duration 60000 ...
// or any program that runs net::Server.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "obs/prom_validate.h"

using bref::net::Client;
using bref::obs::PromSeries;

namespace {

struct Family {
  std::string type;  // counter | gauge | histogram | untyped
};

// One histogram label-set: cumulative le-buckets + _sum/_count.
struct Hist {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  double sum = 0, count = 0;

  double quantile(double q) const {
    if (count <= 0) return 0;
    const double rank = q * count;
    double prev_le = 0, prev_cum = 0;
    for (const auto& [le, cum] : buckets) {
      if (cum >= rank) {
        const double span = cum - prev_cum;
        const double frac = span > 0 ? (rank - prev_cum) / span : 0;
        const double lo = prev_le, hi = std::isinf(le) ? prev_le * 2 : le;
        return lo + (hi - lo) * frac;
      }
      prev_le = std::isinf(le) ? prev_le : le;
      prev_cum = cum;
    }
    return prev_le;
  }
};

std::string key_of(const PromSeries& s, const std::string& strip_suffix) {
  std::string k = s.name;
  if (!strip_suffix.empty())
    k.resize(k.size() - strip_suffix.size());
  k += "{";
  bool first = true;
  for (const auto& [ln, lv] : s.labels) {
    if (ln == "le") continue;
    if (!first) k += ",";
    k += ln + "=" + lv;
    first = false;
  }
  k += "}";
  return k;
}

std::string suffix_of(const std::string& name,
                      const std::map<std::string, Family>& families,
                      std::string* base) {
  for (const char* suf : {"_bucket", "_sum", "_count"}) {
    const size_t n = std::strlen(suf);
    if (name.size() > n && name.compare(name.size() - n, n, suf) == 0) {
      const std::string b = name.substr(0, name.size() - n);
      auto it = families.find(b);
      if (it != families.end() && it->second.type == "histogram") {
        *base = b;
        return suf;
      }
    }
  }
  *base = name;
  return "";
}

std::map<std::string, Family> parse_types(const std::string& text) {
  std::map<std::string, Family> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const size_t sp = line.find(' ', 7);
    if (sp == std::string::npos) continue;
    out[line.substr(7, sp - 7)].type = line.substr(sp + 1);
  }
  return out;
}

double human(double v, const char** unit) {
  static const char* units[] = {"", "k", "M", "G"};
  int i = 0;
  while (std::fabs(v) >= 1000 && i < 3) {
    v /= 1000;
    ++i;
  }
  *unit = units[i];
  return v;
}

// -- slowest-traces pane -----------------------------------------------
//
// The METRICS scrape carries histogram exemplars: each op-latency bucket
// remembers the trace id of the last committed trace that landed in it.
// bref-top harvests those ids each refresh, resolves new ones to full
// span timelines with TRACE_GET, and keeps a rolling board of the
// slowest — a live "why is the tail slow" view with no extra server
// instrumentation.

/// One resolved trace on the rolling board.
struct SlowTrace {
  uint64_t total_ns = 0;
  std::string id_hex, op, stages;
};

/// Tools-grade field scrapers over the TRACE_GET JSON record. The record
/// shape is ours (net::trace_record_json), so a find() is honest.
uint64_t json_u64(const std::string& j, const std::string& key, size_t from) {
  const size_t p = j.find("\"" + key + "\": ", from);
  if (p == std::string::npos) return 0;
  return std::strtoull(j.c_str() + p + key.size() + 4, nullptr, 10);
}

std::string json_str(const std::string& j, const std::string& key) {
  const size_t p = j.find("\"" + key + "\": \"");
  if (p == std::string::npos) return "";
  const size_t v = p + key.size() + 5;
  const size_t e = j.find('"', v);
  return e == std::string::npos ? "" : j.substr(v, e - v);
}

/// "queue 44.0 > execute 0.3 > flush 2.9" (durations in us, first 5
/// stages then an ellipsis) from the record's spans array.
std::string stage_summary(const std::string& rec) {
  std::string out;
  int n = 0;
  size_t pos = 0;
  while ((pos = rec.find("\"stage\": \"", pos)) != std::string::npos) {
    pos += 10;
    const size_t e = rec.find('"', pos);
    if (e == std::string::npos) break;
    if (++n > 5) {
      out += " >...";
      break;
    }
    const uint64_t dur = json_u64(rec, "dur_ns", e);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%s %.1f", n > 1 ? " > " : "",
                  rec.substr(pos, e - pos).c_str(),
                  static_cast<double>(dur) / 1000.0);
    out += buf;
    pos = e;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0, interval_ms = 1000;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc)
      host = argv[++i];
    else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc)
      port = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc)
      interval_ms = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--once") == 0)
      once = true;
  }
  if (port == 0) {
    std::fprintf(stderr,
                 "usage: bref_top --port N [--host H] [--interval MS] "
                 "[--once]\n");
    return 2;
  }

  try {
    Client c(host, static_cast<uint16_t>(port));
    std::map<std::string, double> prev_counters;
    std::map<uint64_t, SlowTrace> slow;  // rolling slowest, by trace id
    auto prev_t = std::chrono::steady_clock::now();
    for (;;) {
      const std::string text = c.metrics();
      std::string err;
      std::vector<PromSeries> series;
      if (!bref::obs::validate_prometheus(text, &err, &series)) {
        std::fprintf(stderr, "bref-top: bad exposition: %s\n", err.c_str());
        return 1;
      }
      const std::map<std::string, Family> families = parse_types(text);
      const auto now = std::chrono::steady_clock::now();
      const double dt =
          std::chrono::duration<double>(now - prev_t).count();
      prev_t = now;

      std::map<std::string, double> gauges, counters;
      std::map<std::string, Hist> hists;
      for (const PromSeries& s : series) {
        std::string base;
        const std::string suf = suffix_of(s.name, families, &base);
        if (!suf.empty()) {
          Hist& h = hists[key_of(s, suf)];
          if (suf == "_bucket") {
            double le = 0;
            for (const auto& [ln, lv] : s.labels)
              if (ln == "le")
                le = lv == "+Inf" ? INFINITY : std::strtod(lv.c_str(), nullptr);
            h.buckets.emplace_back(le, s.value);
          } else if (suf == "_sum") {
            h.sum = s.value;
          } else {
            h.count = s.value;
          }
          continue;
        }
        auto it = families.find(s.name);
        const std::string ty = it != families.end() ? it->second.type : "gauge";
        (ty == "counter" ? counters : gauges)[key_of(s, "")] = s.value;
      }

      // Harvest exemplar trace ids from the scrape and resolve the new
      // ones via TRACE_GET into the rolling slowest board.
      for (const PromSeries& s : series) {
        if (!s.has_exemplar) continue;
        uint64_t id = 0;
        for (const auto& [ln, lv] : s.exemplar_labels)
          if (ln == "trace_id") id = std::strtoull(lv.c_str(), nullptr, 16);
        if (id == 0 || slow.count(id)) continue;
        const auto rec = c.trace_get(id);
        if (!rec) continue;  // evicted between scrape and lookup
        SlowTrace st;
        st.total_ns = json_u64(*rec, "total_ns", 0);
        st.id_hex = json_str(*rec, "trace_id");
        st.op = json_str(*rec, "op");
        st.stages = stage_summary(*rec);
        slow.emplace(id, std::move(st));
      }
      while (slow.size() > 8) {  // keep only the 8 slowest
        auto victim = slow.begin();
        for (auto it2 = slow.begin(); it2 != slow.end(); ++it2)
          if (it2->second.total_ns < victim->second.total_ns) victim = it2;
        slow.erase(victim);
      }

      if (!once) std::printf("\x1b[2J\x1b[H");
      std::printf("bref-top — %s:%d, every %dms\n\n", host.c_str(), port,
                  interval_ms);
      std::printf("%-52s %14s\n", "GAUGE", "value");
      for (const auto& [k, v] : gauges)
        std::printf("%-52s %14.0f\n", k.c_str(), v);
      std::printf("\n%-52s %10s %10s\n", "COUNTER", "rate/s", "total");
      for (const auto& [k, v] : counters) {
        const double d = prev_counters.count(k) ? v - prev_counters[k] : 0;
        const char *u1, *u2;
        const double rate = human(dt > 0 ? d / dt : 0, &u1);
        const double tot = human(v, &u2);
        std::printf("%-52s %8.1f%-2s %8.1f%-2s\n", k.c_str(), rate, u1, tot,
                    u2);
        prev_counters[k] = v;
      }
      std::printf("\n%-52s %9s %9s %9s %9s\n", "HISTOGRAM", "count", "p50",
                  "p99", "p999");
      for (auto& [k, h] : hists) {
        std::sort(h.buckets.begin(), h.buckets.end());
        std::printf("%-52s %9.0f %9.2g %9.2g %9.2g\n", k.c_str(), h.count,
                    h.quantile(0.50), h.quantile(0.99), h.quantile(0.999));
      }
      // Per-stage tail panel: where inside the wire path the p99 lives
      // (queue = head-of-line wait, execute = structure work, flush =
      // write-side backpressure), in microseconds.
      std::printf("\n%-16s %11s %11s %11s\n", "STAGE", "p50us", "p99us",
                  "p999us");
      for (auto& [k, h] : hists) {
        const std::string pfx = "bref_net_stage_seconds{stage=";
        if (k.rfind(pfx, 0) != 0) continue;
        const std::string stage = k.substr(pfx.size(), k.size() - pfx.size() - 1);
        std::printf("%-16s %11.1f %11.1f %11.1f\n", stage.c_str(),
                    h.quantile(0.50) * 1e6, h.quantile(0.99) * 1e6,
                    h.quantile(0.999) * 1e6);
      }
      // Rolling slowest-traces pane: exemplar ids resolved via TRACE_GET.
      std::printf("\n%-18s %-6s %10s  %s\n", "SLOWEST TRACE", "op",
                  "totalus", "stages (us)");
      std::vector<const SlowTrace*> board;
      for (const auto& [id, st] : slow) board.push_back(&st);
      std::sort(board.begin(), board.end(),
                [](const SlowTrace* a, const SlowTrace* b) {
                  return a->total_ns > b->total_ns;
                });
      for (const SlowTrace* st : board)
        std::printf("%-18s %-6s %10.1f  %s\n", st->id_hex.c_str(),
                    st->op.c_str(), static_cast<double>(st->total_ns) / 1000.0,
                    st->stages.c_str());
      if (board.empty())
        std::printf("(none yet — tracing off, or no exemplars committed)\n");
      std::fflush(stdout);
      if (once) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bref-top: %s\n", e.what());
    return 1;
  }
}
