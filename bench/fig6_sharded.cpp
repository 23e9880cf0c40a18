// Figure 6 (this repo's extension): ShardedSet scaling — throughput of the
// range-partitioned sharded set vs the single-structure baseline, swept
// over shard count x thread count x key skew, with the per-shard
// MaintenanceService running (reclaiming configuration, the default
// MaintenanceOptions the server runs) and its per-shard stats recorded.
//
// Workload: the paper's mixed U-C-RQ microbenchmark over [1, keyrange],
// with the shards partitioning exactly that range — point ops always hit
// one shard; range queries of --rqsize keys occasionally straddle a shard
// boundary and take the coordinated single-timestamp path (the "coord"
// column counts them). The baseline column is the same registry
// implementation unsharded, same maintenance configuration, re-measured
// at EVERY sweep point so each sharded cell carries its own
// speedup_vs_unsharded and the per-K crossover (first thread count where
// sharding wins) lands in the JSON for `tools/gate.py shard`.
//
//   fig6_sharded --impl Bundle-skiplist --shards 1,2,4,8 --threads 1,2,4
//                [--zipf 0,0.99] [--no-maintain] [--json [path]]
//
// --zipf takes a comma list of thetas; theta > 0 skews point ops AND
// range-query anchors toward low keys (shard 0), the adversarial case for
// static range partitioning.
//
// --json records one entry per cell; sharded cells carry "extra" fields:
// shard count, baseline_mops / speedup_vs_unsharded / crossover_threads,
// RQ routing counters (coordinated / single-shard / fallback / timestamps
// acquired / shards pinned) and per-shard maintenance stats (passes,
// pruned, flushed, idle backoffs).

#include <memory>
#include <string>
#include <vector>

#include "api/builtin_impls.h"
#include "api/registry.h"
#include "harness.h"
#include "shard/builtin_shards.h"
#include "shard/maintenance.h"

namespace {

using namespace bref;
using namespace bref::bench;

struct CellStats {
  ShardedSetStats routing;   // summed across trials (sharded cells only)
  bool has_routing = false;  // the unsharded baseline has no routing
  std::vector<ShardMaintenanceStats> maint;  // one per worker, across trials

  void add_routing(const ShardedSetStats& s) {
    routing += s;
    has_routing = true;
  }

  void add(const MaintenanceService& svc) {
    if (maint.size() < svc.workers()) maint.resize(svc.workers());
    for (size_t i = 0; i < svc.workers(); ++i) {
      const ShardMaintenanceStats s = svc.stats(i);
      maint[i].passes += s.passes;
      maint[i].bundle_entries_pruned += s.bundle_entries_pruned;
      maint[i].limbo_flushed += s.limbo_flushed;
      maint[i].idle_backoffs += s.idle_backoffs;
    }
  }

  std::string extra_json(size_t shards) const {
    char buf[320];
    std::string out;
    std::snprintf(buf, sizeof buf, "\"shards\": %zu, ", shards);
    out += buf;
    if (has_routing) {
      std::snprintf(
          buf, sizeof buf,
          "\"coordinated_rqs\": %llu, \"single_shard_rqs\": %llu, "
          "\"fallback_rqs\": %llu, \"timestamps_acquired\": %llu, "
          "\"coordinated_shards_pinned\": %llu, ",
          static_cast<unsigned long long>(routing.coordinated_rqs),
          static_cast<unsigned long long>(routing.single_shard_rqs),
          static_cast<unsigned long long>(routing.fallback_rqs),
          static_cast<unsigned long long>(routing.timestamps_acquired),
          static_cast<unsigned long long>(routing.coordinated_shards_pinned));
      out += buf;
    }
    out += "\"maintenance\": [";
    for (size_t i = 0; i < maint.size(); ++i) {
      std::snprintf(
          buf, sizeof buf,
          "%s{\"passes\": %llu, \"pruned\": %llu, "
          "\"flushed\": %llu, \"idle_backoffs\": %llu}",
          i > 0 ? ", " : "", static_cast<unsigned long long>(maint[i].passes),
          static_cast<unsigned long long>(maint[i].bundle_entries_pruned),
          static_cast<unsigned long long>(maint[i].limbo_flushed),
          static_cast<unsigned long long>(maint[i].idle_backoffs));
      out += buf;
    }
    return out + "]";
  }
};

// One measured sweep point, held back until the whole thread sweep for its
// theta is done so crossover_threads can be computed before recording.
struct Cell {
  int threads = 0;
  Measured md;
  CellStats stats;
};

std::vector<double> parse_zipf_list(const Args& args) {
  std::string s = args.get_str("--zipf", "0");
  std::vector<double> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atof(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  if (out.empty()) out.push_back(0.0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  Config base = config_from_args(args);
  if (!args.has("--keyrange")) base.key_range = 20000;
  if (!args.has("--duration")) base.duration_ms = 150;
  json_init(args, "fig6_sharded", base);

  const std::string impl = args.get_str("--impl", "Bundle-skiplist");
  const auto shard_counts = args.get_int_list("--shards", {1, 2, 4, 8});
  const bool maintain = !args.has("--no-maintain");
  const std::vector<double> thetas = parse_zipf_list(args);

  ImplDescriptor desc;
  if (!ImplRegistry::instance().find(impl, &desc)) {
    std::fprintf(stderr, "unknown implementation: %s\n", impl.c_str());
    return 1;
  }
  const SetOptions inner_opt{.reclaim = desc.caps.reclamation};

  std::printf("=== Figure 6: ShardedSet over %s (coordinated: %s), "
              "maintenance %s ===\n",
              impl.c_str(), desc.caps.coordinated_rq ? "yes" : "per-shard merge",
              maintain ? "on" : "off");
  print_header("shard-count x thread-count x zipf, mixed U-C-RQ", base);

  for (double theta : thetas) {
    Config cfg = base;
    cfg.zipf_theta = theta;
    char mix_str[48];
    if (theta > 0)
      std::snprintf(mix_str, sizeof mix_str, "%d-%d-%d-z%.2f", cfg.u_pct,
                    cfg.c_pct, cfg.rq_pct, theta);
    else
      std::snprintf(mix_str, sizeof mix_str, "%d-%d-%d", cfg.u_pct, cfg.c_pct,
                    cfg.rq_pct);

    std::printf("-- zipf %.2f --\n", theta);
    std::printf("%8s %10s", "threads", "single");
    for (int k : shard_counts) std::printf("   K=%-6d", k);
    std::printf("  | coord-RQ share @max-K\n");

    std::vector<Cell> baseline;                       // one per thread count
    std::vector<std::vector<Cell>> sharded(shard_counts.size());

    for (int threads : cfg.thread_counts) {
      std::printf("%8d", threads);
      // Unsharded baseline: same implementation, same maintenance config.
      {
        Cell cell;
        cell.threads = threads;
        cell.md = measure_detailed(
            [&] { return ImplRegistry::instance().create(impl, inner_opt); },
            threads, cfg, [&](auto& ds, int th, const Config& c) {
              MaintenanceService svc(ds);
              if (maintain) svc.start();
              Result r = run_mixed_trial(ds, th, c);
              svc.stop();
              cell.stats.add(svc);
              return r;
            });
        std::printf(" %10.3f", cell.md.mops);
        baseline.push_back(std::move(cell));
      }
      for (size_t ki = 0; ki < shard_counts.size(); ++ki) {
        const int k = shard_counts[ki];
        Cell cell;
        cell.threads = threads;
        cell.md = measure_detailed(
            [&] {
              ShardOptions so;
              so.shards = static_cast<size_t>(k);
              so.key_lo = 0;
              so.key_hi = cfg.key_range + 1;
              so.inner = inner_opt;
              return std::make_unique<ShardedSet>(impl, so);
            },
            threads, cfg, [&](ShardedSet& ds, int th, const Config& c) {
              MaintenanceService svc(ds);
              if (maintain) svc.start();
              Result r = run_mixed_trial(ds, th, c);
              svc.stop();
              // Per trial (fresh structure each): sum both stat families so
              // the record's scopes match across --runs.
              cell.stats.add(svc);
              cell.stats.add_routing(ds.stats());
              return r;
            });
        std::printf(" %9.3f", cell.md.mops);
        sharded[ki].push_back(std::move(cell));
      }
      const CellStats& last = sharded.back().back().stats;
      const uint64_t rqs = last.routing.coordinated_rqs +
                           last.routing.single_shard_rqs +
                           last.routing.fallback_rqs;
      std::printf("  | %llu/%llu coordinated (K=%d)\n",
                  static_cast<unsigned long long>(last.routing.coordinated_rqs),
                  static_cast<unsigned long long>(rqs), shard_counts.back());
    }

    // Whole sweep measured: compute each K's crossover (first thread count
    // where sharded >= unsharded), record everything, print the summary.
    for (const Cell& b : baseline)
      JsonSink::instance().record(impl, mix_str, b.threads, b.md,
                                  b.stats.extra_json(1));
    for (size_t ki = 0; ki < shard_counts.size(); ++ki) {
      const int k = shard_counts[ki];
      int crossover = -1;
      for (size_t row = 0; row < sharded[ki].size(); ++row) {
        if (sharded[ki][row].md.mops >= baseline[row].md.mops) {
          crossover = sharded[ki][row].threads;
          break;
        }
      }
      for (size_t row = 0; row < sharded[ki].size(); ++row) {
        const Cell& c = sharded[ki][row];
        const double base_mops = baseline[row].md.mops;
        char pre[160];
        std::snprintf(pre, sizeof pre,
                      "\"baseline_mops\": %.6f, "
                      "\"speedup_vs_unsharded\": %.4f, "
                      "\"crossover_threads\": %d, ",
                      base_mops, base_mops > 0 ? c.md.mops / base_mops : 0.0,
                      crossover);
        JsonSink::instance().record(
            "Sharded" + std::to_string(k) + "-" + impl, mix_str, c.threads,
            c.md, pre + c.stats.extra_json(static_cast<size_t>(k)));
      }
      std::printf("crossover: K=%d beats unsharded from %s (zipf %.2f)\n", k,
                  crossover > 0 ? std::to_string(crossover).c_str() : "never",
                  theta);
    }
  }
  std::printf("shape-check: sharding should now hold the line even at low "
              "parallelism (batched coordinated announce + zero-coordination "
              "single-shard RQs) and win once threads contend; the "
              "coordinated share should stay modest (rqsize/keyrange per "
              "boundary).\n");
  JsonSink::instance().flush();
  return 0;
}
