#!/usr/bin/env python3
"""Measures the benchmark's own noise floor.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--record perfbench/STEADINESS.md]

Runs perfbench/run.py once per workload and seed (untraced), then prints,
per workload and end-to-end metric, the median, the spread between the
quartiles as a share of the median (as statistics.quantiles(n=4) gives
them) and the metric's bound from BENCHMARK.json. Timings appear twice:
at reference speed (the benchmark's figures) and raw, so the effect of the
speed probe is visible; the probe's own spread sits next to them, and on
a workload that mixes request kinds, each kind's median latency. Then it
makes one traced run per workload (--traced-seed) and prints its
per-layer metrics, one column per workload. With --record the tables are
also written, as Markdown, to the given file and the runs' result lines
to a .json file beside it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS, spread  # noqa: E402

# End-to-end timings whose unscaled twin the meta line keeps under "raw".
RAW_TWIN = ("setup_s", "latency_p50_s", "latency_tail_s", "throughput_rps")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, trace=0):
    start = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    lines = out.stdout.strip().splitlines()
    meta = json.loads(lines[-2][len("# meta "):])
    return {"meta": meta, "result": json.loads(lines[-1]),
            "elapsed_s": time.monotonic() - start}


def markdown(header, rows):
    return (["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
            + ["| " + " | ".join(r) + " |" for r in rows])


def table(workload, runs, bounds):
    rows = []
    fmt = lambda v: "%.4g" % v
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        row = [workload, name, fmt(statistics.median(values)),
               "%.3f" % spread(values), "%.2f" % bound]
        if name in RAW_TWIN:
            raw = [r["meta"]["raw"][name] for r in runs]
            row += [fmt(statistics.median(raw)), "%.3f" % spread(raw)]
        else:
            row += ["", ""]
        rows.append(row)
    for kind in sorted(runs[0]["meta"]["kind_p50_s"]):
        scaled = [r["meta"]["kind_p50_s"][kind] for r in runs]
        raw = [r["meta"]["raw"]["kind_p50_s"][kind] for r in runs]
        rows.append([workload, "latency_p50_s of %s requests" % kind,
                     fmt(statistics.median(scaled)), "%.3f" % spread(scaled),
                     "", fmt(statistics.median(raw)), "%.3f" % spread(raw)])
    probe = [r["meta"]["timed_probe_s"] for r in runs]
    rows.append([workload, "probe (timed phase)", fmt(statistics.median(probe)),
                 "%.3f" % spread(probe), "", "", ""])
    elapsed = [r["elapsed_s"] for r in runs]
    rows.append([workload, "run wall time (s)", fmt(statistics.median(elapsed)),
                 "%.3f" % spread(elapsed), "", "", ""])
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seed", type=int, default=1)
    ap.add_argument("--record")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    header = ["workload", "metric", "median", "IQR/median", "bound",
              "raw median", "raw IQR/median"]
    rows, all_runs = [], {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(one_run(workload, seed))
            m = runs[-1]["meta"]
            print("%s seed %d: probe %.4f p50 %.4f raw %.4f" % (
                workload, seed, m["timed_probe_s"],
                runs[-1]["result"]["metrics"]["latency_p50_s"]["value"],
                m["raw"]["latency_p50_s"]), file=sys.stderr, flush=True)
        all_runs[workload] = runs
        rows += table(workload, runs, bounds)
    lines = markdown(header, rows)
    traced = {w: one_run(w, args.traced_seed, trace=1)
              for w in args.workloads.split(",")}
    layer_rows = []
    for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"]):
        layer_rows.append([name, unit] + [
            "%.4g" % traced[w]["result"]["metrics"][name]["value"]
            for w in traced])
    layer_lines = markdown(["metric", "unit"] + list(traced), layer_rows)
    correct = ["%s correct=%s attempted=%d failed=%d" % (
        w, r["result"]["correct"], r["result"]["attempted"],
        r["result"]["failed"]) for w, r in traced.items()]
    print("\n".join(lines + [""] + layer_lines + [""] + correct))
    if args.record:
        meta = all_runs[next(iter(all_runs))][0]["meta"]
        with open(args.record, "w") as fh:
            fh.write("# Steadiness record\n\n")
            fh.write("Seeds %s, one untraced run each, on a %d-thread box "
                     "(%s, %s build, source %s). Regenerate with "
                     "`python3 perfbench/steadiness.py --record %s`.\n\n"
                     % (args.seeds, meta["hardware_threads"], meta["compiler"],
                        meta["build_type"], meta["commit"][:16],
                        os.path.relpath(args.record, ROOT)))
            fh.write("\n".join(lines) + "\n")
            fh.write("\n## Per-layer metrics of one traced run (seed %d)\n\n"
                     % args.traced_seed)
            fh.write("\n".join(layer_lines) + "\n\n")
            fh.write("".join("- %s\n" % c for c in correct))
        with open(os.path.splitext(args.record)[0] + ".json", "w") as fh:
            json.dump({"untraced": all_runs, "traced": traced}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
