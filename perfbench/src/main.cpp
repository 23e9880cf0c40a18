// bref-bench: one command that sets up, drives, checks and measures one
// workload, printing a human-readable report and, as the last line of
// standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any op failed or any answer check broke.
//
//   bref_bench --workload wire-scan|embedded-update --seed N --seconds S
//              --trace 0|1 [--break-check]
//
// --break-check drops one odd key from the first RANGE reply before it is
// checked, so the run must fail (the benchmark's test of its own checks).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "ladder.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bref_bench: %s\nusage: bref_bench --workload "
               "wire-scan|embedded-update --seed N --seconds S "
               "--trace 0|1 [--break-check]\n",
               why);
  std::exit(2);
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--break-check") {
      o.break_check = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else usage(("unknown option " + a).c_str());
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

void print_json(bool correct, const perfbench::Outcome& out,
                const perfbench::Report& rep, bool trace) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  bool first = true;
  char buf[96];
  for (const perfbench::Metric& m : rep.metrics()) {
    if (m.layer != trace) continue;
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    s += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunOptions o = parse(argc, argv);
  perfbench::Report rep(o.workload);
  perfbench::Checker chk;
  perfbench::Outcome out;
  try {
    if (o.workload == "wire-scan")
      out = perfbench::run_wire(o, rep, chk);
    else if (o.workload == "embedded-update")
      out = perfbench::run_embedded(o, rep, chk);
    else
      usage(("unknown workload '" + o.workload + "'").c_str());
    if (o.trace) {
      const uint64_t before = chk.failures();
      perfbench::run_ladder(o.seed, rep, chk);
      out.failed += chk.failures() - before;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bref_bench: %s\n", e.what());
    return 1;
  }
  const bool correct = out.failed == 0 && chk.failures() == 0;
  std::fflush(stdout);
  print_json(correct, out, rep, o.trace);
  return correct ? 0 : 1;
}
