// Figure 3: throughput relative to Unsafe for range-query lengths
// {1,10,50,100,250,500} under the 50-0-50 mix, for the skip-list (top) and
// Citrus-tree (bottom) families. The competitor set per family is derived
// from the ImplRegistry (fig2_common.h) instead of hard-coded template
// lists, so self-structured techniques such as LFCA appear automatically.
// We print one block per length: absolute Mops/s per competitor, then each
// linearizable competitor's throughput relative to the family's Unsafe
// baseline.

#include <cstdio>
#include <memory>
#include <string>

#include "fig2_common.h"

namespace {

using namespace bref;
using namespace bref::bench;

void run_family(const char* structure, const char* tag, const Config& base) {
  const auto competitors = competitors_for(structure);
  const std::string unsafe_name = std::string("Unsafe-") + structure;
  std::printf("\n=== Figure 3 (%s): relative throughput vs %s, 50-0-50 ===\n",
              tag, unsafe_name.c_str());
  const int kSizes[6] = {1, 10, 50, 100, 250, 500};
  for (int size : kSizes) {
    Config cfg = base;
    cfg.u_pct = 50;
    cfg.c_pct = 0;
    cfg.rq_pct = 50;
    cfg.rq_size = size;
    std::printf("-- RQ size %d --\n", size);
    std::printf("%8s", "threads");
    for (const auto& d : competitors)
      std::printf(" %13s", self_structured(d) ? d.name.c_str()
                                              : d.technique.c_str());
    std::printf(" | rel:");
    for (const auto& d : competitors)
      if (d.caps.linearizable_rq)
        std::printf(" %13s", self_structured(d) ? d.name.c_str()
                                                : d.technique.c_str());
    std::printf("\n");
    for (int threads : cfg.thread_counts) {
      std::vector<double> mops;
      double unsafe_mops = 0;
      for (const auto& d : competitors) {
        mops.push_back(measure(
            [&] { return ImplRegistry::instance().create(d.name); }, threads,
            cfg));
        if (d.name == unsafe_name) unsafe_mops = mops.back();
      }
      std::printf("%8d", threads);
      for (double m : mops) std::printf(" %13.3f", m);
      std::printf(" |     ");  // same width as " | rel:"
      for (size_t i = 0; i < competitors.size(); ++i)
        if (competitors[i].caps.linearizable_rq)
          std::printf(" %13.3f",
                      unsafe_mops > 0 ? mops[i] / unsafe_mops : 0.0);
      std::printf("\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  Config base = config_from_args(args);
  if (!args.has("--keyrange")) base.key_range = 20000;
  if (!args.has("--duration")) base.duration_ms = 120;
  print_header("fig3 rq-size sweep", base);
  const std::string ds = args.get_str("--ds", "both");
  const bool sl = ds == "sl" || ds == "both";
  const bool ct = ds == "ct" || ds == "both";
  if (!sl && !ct) {
    std::fprintf(stderr, "fig3_rq_size: --ds takes sl, ct or both\n");
    return 2;
  }
  if (sl) run_family("skiplist", "skip list", base);
  if (ct) run_family("citrus", "citrus tree", base);
  return 0;
}
