#!/usr/bin/env python3
"""Merge bench --json runs into one BENCH record and enforce its gates.

    gate.py guard OVERLOAD.json SCAN.json --out BENCH_8.json
    gate.py shard FIG6.json --out BENCH_9.json [--min-ratio 0.95]
    gate.py trace TRACE.json... --out BENCH_10.json [--max-overhead 0.03]

The record holds the first input's schema, bench and config, every input's
results and a "gates" object; the exit code is 1 if a gate fails. Across
repeated runs a gate reads the lowest-p99 record of each mix prefix: a
shared host can stall a whole run at random, and the budgets are about the
latency a configuration can achieve. p99 gates have floors, since on a fast
host a baseline of tens of microseconds turns scheduler noise into a ratio.

guard  (fig7_server --scenario overload, then --scenario scan): overload-5x
       sheds; keeps >= 0.8x the goodput of overload-1x; keeps p99 <= 3x
       overload-1x or <= 2 ms. scan-on p99 <= 2x scan-off or <= 1 ms, with
       background scans done.
shard  (fig6_sharded): every sharded cell keeps speedup_vs_unsharded >=
       --min-ratio; the best cell at >= 8 shards and >= 16 threads reaches
       1.5x (skipped, passing, when the sweep has no such cell).
trace  (fig7_server --scenario trace): trace-on p99 <= (1 + --max-overhead)x
       trace-off or within 100 us of it, at >= 0.95x its achieved rate; the
       10 slowest trace-on requests each carry an "execute" span; no trace
       scratch slot leaked or exhausted. Each run's pair is printed too, so
       a failing step shows whether one run or all of them were slow.
"""

import argparse
import json
import re
import sys

SHARDED = re.compile(r"^Sharded(\d+)-")
HI_RATIO, HI_SHARDS, HI_THREADS = 1.5, 8, 16


def records(docs):
    return [r for d in docs for r in d.get("results", [])]


def pick(docs, prefix):
    """The lowest-p99 record whose mix starts with `prefix`."""
    rs = [r for r in records(docs) if r.get("mix", "").startswith(prefix)]
    if not rs:
        sys.exit(f"gate: no '{prefix}*' record in input")
    return min(rs, key=lambda r: r["p99_us"])


def tail(keys, base, value, max_ratio, floor_us, limit):
    """A p99 gate: `value` passes at or below `limit`."""
    return {keys[0]: base, keys[1]: value, "max_ratio": max_ratio,
            "floor_us": floor_us, "ratio": value / max(base, 1e-9),
            "pass": value <= limit}


def guard(docs, args):
    o1, o5 = pick(docs, "overload-1x"), pick(docs, "overload-5x")
    s0, s1 = pick(docs, "scan-off"), pick(docs, "scan-on")
    goodput = {"goodput_1x": o1["goodput_rate"],
               "goodput_5x": o5["goodput_rate"], "min_ratio": 0.8,
               "ratio": o5["goodput_rate"] / max(o1["goodput_rate"], 1.0),
               "pass": o5["goodput_rate"] >= 0.8 * o1["goodput_rate"]}
    scan = tail(("p99_us_off", "p99_us_on"), s0["p99_us"], s1["p99_us"],
                2.0, 1000.0, max(2.0 * s0["p99_us"], 1000.0))
    scan["bg_scans"] = s1["bg_scans"]
    scan["chunked_rqs"] = s1.get("server", {}).get("guard", {}).get(
        "chunked_rqs")
    scan["pass"] = scan["pass"] and s1["bg_scans"] > 0
    gates = {
        "overload_shed": {"shed": o5["shed"], "shed_pct": o5["shed_pct"],
                          "pass": o5["shed"] > 0},
        "overload_goodput": goodput,
        "overload_p99_of_accepted": tail(
            ("p99_us_1x", "p99_us_5x"), o1["p99_us"], o5["p99_us"], 3.0,
            2000.0, max(3.0 * o1["p99_us"], 2000.0)),
        "scan_isolation": scan,
    }
    return gates, {"scan_config": docs[-1].get("config", {})}, []


def shard(docs, args):
    cells = []
    for r in records(docs):
        m = SHARDED.match(r.get("impl", ""))
        if m and "speedup_vs_unsharded" in r:
            cells.append(dict(r, shards=int(m.group(1)),
                              speedup=r["speedup_vs_unsharded"]))
    if not cells:
        sys.exit("gate: no sharded records with speedup_vs_unsharded")

    def point(c):
        return {"shards": c["shards"], "threads": c["threads"],
                "mix": c.get("mix", "")}

    worst = min(cells, key=lambda c: c["speedup"])
    win = {"hi_ratio": HI_RATIO, "hi_shards": HI_SHARDS,
           "hi_threads": HI_THREADS}
    hi = [c for c in cells
          if c["shards"] >= HI_SHARDS and c["threads"] >= HI_THREADS]
    if hi:
        best = max(hi, key=lambda c: c["speedup"])
        win.update({"best_speedup": best["speedup"],
                    "best_point": point(best),
                    "pass": best["speedup"] >= HI_RATIO})
    else:
        win.update({"skipped": "no sweep point at >= %d shards and >= %d "
                    "threads" % (HI_SHARDS, HI_THREADS), "pass": True})
    crossover = {}
    for c in cells:
        crossover.setdefault("K=%d %s" % (c["shards"], c.get("mix", "")),
                             c.get("crossover_threads"))
    gates = {
        "no_regression": {"min_ratio": args.min_ratio,
                          "worst_speedup": worst["speedup"],
                          "worst_point": point(worst), "points": len(cells),
                          "pass": worst["speedup"] >= args.min_ratio},
        "scaling_win": win,
    }
    return gates, {"crossover_threads": crossover}, [f"crossover {crossover}"]


def trace(docs, args):
    off, on = pick(docs, "trace-off"), pick(docs, "trace-on")
    slowest = on.get("trace", {}).get("slowest", [])
    stats = on.get("server", {}).get("trace", {})
    max_ratio = 1.0 + args.max_overhead
    overhead = tail(("p99_us_off", "p99_us_on"), off["p99_us"], on["p99_us"],
                    max_ratio, 100.0,
                    max(max_ratio * off["p99_us"], off["p99_us"] + 100.0))
    overhead["achieved_off"] = off["achieved_rate"]
    overhead["achieved_on"] = on["achieved_rate"]
    overhead["rate_match"] = on["achieved_rate"] >= 0.95 * off["achieved_rate"]
    overhead["pass"] = overhead["pass"] and overhead["rate_match"]
    gates = {
        "trace_overhead": overhead,
        "trace_slowest_10": {
            "count": len(slowest), "committed": stats.get("committed"),
            "pass": len(slowest) == 10 and all(
                r.get("spans") and any(s.get("stage") == "execute"
                                       for s in r["spans"])
                for r in slowest)},
        "trace_no_loss": {
            "scratch_in_use": stats.get("scratch_in_use"),
            "scratch_exhausted": stats.get("scratch_exhausted"),
            "pass": stats.get("scratch_in_use") == 0
            and stats.get("scratch_exhausted") == 0},
    }
    runs = []
    for path, doc in zip(args.inputs, docs):
        o = pick([doc], "trace-off")["p99_us"]
        n = pick([doc], "trace-on")["p99_us"]
        runs.append(f"run {path}: p99 off {o} us, on {n} us, "
                    f"ratio {n / max(o, 1e-9):.3f}")
    return gates, {}, runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="family", required=True)
    for name, nargs in (("guard", 2), ("shard", 1), ("trace", "+")):
        p = sub.add_parser(name)
        p.add_argument("inputs", nargs=nargs)
        p.add_argument("--out", required=True)
    sub.choices["shard"].add_argument("--min-ratio", type=float, default=0.95)
    sub.choices["trace"].add_argument(
        "--max-overhead", type=float, default=0.03,
        help="max fractional p99 overhead of trace-on")
    args = ap.parse_args()

    docs = []
    for path in args.inputs:
        with open(path) as f:
            docs.append(json.load(f))
    family = {"guard": guard, "shard": shard, "trace": trace}[args.family]
    gates, extra, notes = family(docs, args)
    merged = {"schema": docs[0].get("schema", 1),
              "bench": docs[0].get("bench"),
              "config": docs[0].get("config", {}), **extra,
              "results": records(docs), "gates": gates}
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")

    tag = f"gate {args.family}:"
    for name, g in gates.items():
        status = "SKIP" if "skipped" in g else ("PASS" if g["pass"] else "FAIL")
        detail = {k: v for k, v in g.items() if k != "pass"}
        print(f"{tag} {status} {name}: {detail}")
    for line in notes:
        print(f"{tag} {line}")
    if not all(g["pass"] for g in gates.values()):
        sys.exit(1)
    print(f"{tag} all gates pass -> {args.out}")


if __name__ == "__main__":
    main()
