// Table 1 (supplementary B): % throughput overhead of enabling memory
// reclamation (EBR node reclamation + background maintenance) relative to
// the leaky configuration, for update shares {0,10,50,90,100}% and
// maintenance delays d in {0,1,10,100} ms. Paper (bundled skip list): at
// most ~14% overhead, shrinking as the delay grows.
//
// The competitor set is the registry's reclamation-capable linearizable
// builtins (Bundle x3 + LFCA) rather than a hard-coded typed list, and the
// background work runs through the type-erased MaintenanceService
// (src/shard/maintenance.h), the library's one maintenance thread: every
// duty the implementation exposes (bundle pruning, epoch pushes) is
// driven at a fixed cadence d (adaptive back-off disabled — the paper's
// parameter is the delay itself). `--impl <registry-name>` restricts the
// sweep to one panel.
//
// Methodology note: the leaky baseline is re-measured *next to* every
// reclaiming cell (paired A/B) and both sides take the median of --runs
// trials; an up-front baseline drifts by tens of percent over the minutes
// the grid takes, which swamps the single-digit effect under measurement.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "api/builtin_impls.h"
#include "api/registry.h"
#include "harness.h"
#include "shard/maintenance.h"

namespace {

using namespace bref;
using namespace bref::bench;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double measure_leaky(const std::string& name, int threads, const Config& cfg,
                     int trials) {
  std::vector<double> mops;
  for (int run = 0; run < trials; ++run) {
    auto ds = ImplRegistry::instance().create(name);
    prefill(*ds, cfg.key_range);
    mops.push_back(run_mixed_trial(*ds, threads, cfg).mops);
  }
  return median(std::move(mops));
}

double measure_reclaiming(const std::string& name, int threads,
                          const Config& cfg, long delay_ms, int trials) {
  std::vector<double> mops;
  for (int run = 0; run < trials; ++run) {
    auto ds = ImplRegistry::instance().create(name, SetOptions{.reclaim = true});
    prefill(*ds, cfg.key_range);
    // d=0 used to mean "hot-loop back-to-back passes"; interval 0 now
    // means "sleep until signalled", so express d=0 as a wake per retire —
    // same reclamation latency, none of the idle spin.
    MaintenanceOptions mo{.interval = std::chrono::milliseconds(delay_ms),
                          .adaptive = false};
    if (delay_ms == 0) mo.backlog_wake = 1;
    MaintenanceService svc(*ds, mo);
    svc.start();
    mops.push_back(run_mixed_trial(*ds, threads, cfg).mops);
    svc.stop();
  }
  return median(std::move(mops));
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  Config base = config_from_args(args);
  if (!args.has("--keyrange")) base.key_range = 20000;
  if (!args.has("--duration")) base.duration_ms = 150;
  const int trials = args.has("--runs") ? base.runs : 3;
  const std::string only = args.get_str("--impl", "");

  std::vector<ImplDescriptor> competitors;
  for (const auto& d : ImplRegistry::instance().descriptors())
    if (d.builtin && d.caps.reclamation && d.caps.linearizable_rq &&
        (only.empty() || d.name == only))
      competitors.push_back(d);

  std::printf("=== Table 1: %% overhead of memory reclamation (registry: "
              "%zu reclamation-capable linearizable builtins) ===\n",
              competitors.size());
  print_header("U-(90-U)-10 mixes, paired A/B, median of trials", base);
  const int kUpdatePcts[5] = {0, 10, 50, 90, 100};
  const long kDelaysMs[4] = {0, 1, 10, 100};
  // Highest sweep point by default. On machines with fewer cores than
  // workers the maintenance workers' CPU share is diluted among the
  // oversubscribed workers, which approximates the paper's many-core
  // regime better than giving them whole cores would.
  const int threads = base.thread_counts.back();

  for (const auto& d : competitors) {
    std::printf("\n-- %s --\n", d.name.c_str());
    std::printf("%10s |", "delay");
    for (int u : kUpdatePcts) std::printf(" %6d%%", u);
    std::printf("   (update share)\n");
    for (long delay : kDelaysMs) {
      std::printf("%8ldms |", delay);
      for (int u_pct : kUpdatePcts) {
        Config cfg = base;
        cfg.u_pct = u_pct;
        cfg.c_pct = u_pct <= 90 ? 90 - u_pct : 0;
        cfg.rq_pct = 100 - cfg.u_pct - cfg.c_pct;
        const double leaky = measure_leaky(d.name, threads, cfg, trials);
        const double reclaimed =
            measure_reclaiming(d.name, threads, cfg, delay, trials);
        const double overhead = (1.0 - reclaimed / leaky) * 100.0;
        std::printf(" %6.1f%%", overhead);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  std::printf("\nshape-check: paper reports <= ~14%% overhead, decreasing "
              "with larger cleanup delay.\n");
  return 0;
}
