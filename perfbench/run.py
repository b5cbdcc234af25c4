#!/usr/bin/env python3
"""Benchmark of libppnpart: one run of one workload.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a ppnpart checkout. The first run builds the library
and the benchmark programs into .bench_build/ (CMake, Release). A run then
calls perfbench_driver, which generates the inputs from the seed, times a
fixed number of requests, validates every answer and runs the speed probe
before and after the timed phase. This script scales every timing to the
reference machine speed, computes the metrics and prints, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it ("# meta {...}") holds the run's metadata and raw timings.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. README.md defines them all.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER_TIMEOUT_S = 170

WORKLOADS = ("cold_serial", "cold_parallel", "serve_sweep", "serve_evolving")

# Probe time (median repetition, seconds) that defines reference speed:
# timings are reported as if the probe had taken this long. It is the
# single-thread probe median on the 4-vCPU Intel Xeon (family 6, model 207)
# KVM guest the benchmark was calibrated on.
REF_PROBE_S = 0.065

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rps": "1/s",
    "cut_norm": "ratio",
    "answered_share": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics and their units; those in seconds, except raw.* and
# machine.*, are scaled to reference speed.
PER_LAYER = {
    "partition.coarsen_s": "s",
    "partition.initial_s": "s",
    "partition.refine_s": "s",
    "partition.levels": "count",
    "partition.vcycles": "count",
    "partition.ws_growths": "count",
    "engine.member.gp_s": "s",
    "engine.member.metislike_s": "s",
    "engine.member.annealing_s": "s",
    "engine.member.tabu_s": "s",
    "engine.member.gp.wins": "count",
    "engine.member.metislike.wins": "count",
    "engine.member.annealing.wins": "count",
    "engine.member.tabu.wins": "count",
    "engine.setter.gp": "ratio",
    "engine.setter.metislike": "ratio",
    "engine.setter.annealing": "ratio",
    "engine.setter.tabu": "ratio",
    "engine.cache.hit_ratio": "ratio",
    "engine.coarsen_cache.hit_ratio": "ratio",
    "engine.members_run_per_job": "count",
    "engine.fanout_wait_p50_s": "s",
    "engine.path.exact_hit": "ratio",
    "engine.path.similarity": "ratio",
    "engine.path.warm_start": "ratio",
    "engine.path.full": "ratio",
    "engine.sim.near_hit_ratio": "ratio",
    "engine.warm_p50_s": "s",
    "engine.repartition.fallback_ratio": "ratio",
    "engine.submit_p50_s": "s",
    "engine.fingerprint_s": "s",
    "support.sketch_s": "s",
    "graph.diff_s": "s",
    "graph.generate_s": "s",
    "bench.plain_p50_s": "s",
    "bench.delta_p50_s": "s",
    "bench.repeat_p50_s": "s",
    "self.partition_s": "s",
    "self.engine_s": "s",
    "self.graph_s": "s",
    "self.support_s": "s",
    "self.bench_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "trace.lost": "count",
    "machine.probe_s": "s",
    "machine.probe_before_s": "s",
    "machine.probe_after_s": "s",
    "machine.probe_drift": "ratio",
    "machine.steal_pct": "%",
    "machine.cpu_psi": "%",
    "machine.hardware_threads": "count",
    "raw.latency_p50_s": "s",
    "raw.setup_s": "s",
}


# ------------------------------------------------------------- arithmetic

def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it."""
    if n <= 10:
        raise ValueError("a tail needs more than ten samples")
    p = 100 * (n - 10) // n
    while n - nearest_rank(n, p) < 10:  # guards the integer rounding
        p -= 1
    return p


def nearest_rank(n, p):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100))


def percentile(values, p):
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def spread(values):
    """Distance between first and third quartile, as a share of the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def at_reference(seconds, probe_s):
    """A time measured while the probe took probe_s, at reference speed."""
    return seconds * REF_PROBE_S / probe_s


def probe_seconds(*probes):
    """Median over the repetitions of one or more probe runs."""
    reps = [r for p in probes for r in p["reps_s"]]
    return statistics.median(reps)


def setup_seconds(setups, probes):
    """Set-up time at reference speed from n set-ups and the n + 1 probes
    around them: each set-up scaled by the two probes beside it, the first
    (cold allocator, idle cores) left out, the median of the rest."""
    scaled = [at_reference(s, probe_seconds(a, b))
              for s, a, b in zip(setups, probes, probes[1:])]
    return statistics.median(scaled[1:])


# ------------------------------------------------------------------ build

def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("run from a ppnpart checkout: src/ and CMakeLists.txt are missing")
    if shutil.which("cmake") is None:
        die("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree copied from another checkout would build that
        # checkout's sources: start it over.
        with open(cache) as fh:
            home = [l.split("=", 1)[1].strip() for l in fh
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(BUILD)
    if not os.path.isfile(cache):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "perfbench_driver", "perfbench_probe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed")


def binary(name):
    return os.path.join(BUILD, name)


def run_driver(args):
    """Runs perfbench_driver; returns its JSON object."""
    cmd = [binary("perfbench_driver")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("driver timed out")
    if proc.returncode != 0:
        die("driver failed with exit code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        die("driver printed nothing")
    return json.loads(lines[-1])


def source_id():
    """The commit, or in a checkout without git a digest of src/."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(base, f)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


# ---------------------------------------------------------------- metrics

def evaluate(raw, trace):
    """Turns the driver's raw record into (result line, meta line)."""
    probes = raw["probes"]
    setup_probes = raw["setup_probes"]
    if (len(probes) < 2 or not all(probes)
            or len(setup_probes) != len(raw["setup_s"]) + 1
            or not all(setup_probes)):
        die("the speed probe failed")
    # The probe ran before the timed phase and after each of its segments;
    # the median of all those repetitions is the speed of the whole phase.
    # (Per-segment factors track the box worse: the ten repetitions around
    # one segment are too few to follow its swings.)
    segment_probe = [probe_seconds(a, b) for a, b in zip(probes, probes[1:])]
    timed_probe = probe_seconds(*probes)
    # The probe computes the same thing every time; a changed checksum means
    # it did not run the kernel it is calibrated with.
    probe_consistent = (len({p["checksum"] for p in probes}) == 1
                        and len({p["checksum"] for p in setup_probes}) == 1)

    latency = [at_reference(s, timed_probe) for s in raw["latency_s"]]
    raw_wall = sum(raw["segment_wall_s"])
    wall = at_reference(raw_wall, timed_probe)
    n = len(latency)
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    answered = int(raw["answered"])
    tail_p = tail_percentile(n)
    raw_setup = statistics.median(raw["setup_s"][1:])
    kind_p50 = {k: at_reference(v, timed_probe)
                for k, v in raw["kind_p50_s"].items()}

    # A traced run whose ring overwrote spans reports incomplete layers.
    trace_complete = not trace or raw["layers"]["trace.lost"] == 0
    correct = (raw["contradiction_count"] == 0 and not raw["input_error"]
               and probe_consistent and trace_complete)

    if not trace:
        metrics = {
            "setup_s": setup_seconds(raw["setup_s"], setup_probes),
            "latency_p50_s": statistics.median(latency),
            "latency_tail_s": percentile(latency, tail_p),
            "throughput_rps": (attempted - failed) / wall,
            "cut_norm": statistics.fmean(raw["cut_norm"] or [0.0]),
            "answered_share": answered / attempted,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        layers = raw["layers"]
        metrics = {}
        for name, unit in PER_LAYER.items():
            # Workloads without an engine report no engine layer: it did
            # no work there.
            v = layers.get(name, 0.0 if name.startswith("engine.") else None)
            if v is not None:
                metrics[name] = (at_reference(v, timed_probe) if unit == "s"
                                 else v)
        # Latency per request kind, where the workload mixes kinds.
        for kind in ("plain", "delta", "repeat"):
            metrics["bench.%s_p50_s" % kind] = kind_p50.get(kind, 0.0)
        metrics["trace.overhead"] = (statistics.median(raw["latency_s"])
                                     / statistics.median(raw["untraced_latency_s"])
                                     - 1)
        metrics["machine.probe_s"] = timed_probe
        metrics["machine.probe_before_s"] = probes[0]["median_s"]
        metrics["machine.probe_after_s"] = probes[-1]["median_s"]
        metrics["machine.probe_drift"] = (max(segment_probe)
                                          / min(segment_probe) - 1)
        metrics["machine.steal_pct"] = raw["steal_pct"]
        metrics["machine.cpu_psi"] = raw["cpu_psi_pct"]
        metrics["machine.hardware_threads"] = raw["hardware_threads"]
        metrics["raw.latency_p50_s"] = statistics.median(raw["latency_s"])
        metrics["raw.setup_s"] = raw_setup
        units = PER_LAYER
        missing = set(PER_LAYER) - set(metrics)
        if missing:
            die("per-layer metrics missing: " + ", ".join(sorted(missing)))

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    meta = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "trace": trace,
        "requests": n,
        "clients": raw["clients"],
        "tail_percentile": tail_p,
        "hardware_threads": raw["hardware_threads"],
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "commit": source_id(),
        "steal_pct": raw["steal_pct"],
        "cpu_psi_pct": raw["cpu_psi_pct"],
        "probe_threads": raw["probe_threads"],
        "setup_probe_threads": raw["setup_probe_threads"],
        "setup_probe_s": [p["median_s"] for p in setup_probes],
        "raw_setup_s": raw["setup_s"],
        "probe_s": [p["median_s"] for p in probes],
        "segment_probe_s": segment_probe,
        "timed_probe_s": timed_probe,
        "ref_probe_s": REF_PROBE_S,
        "raw": {
            "setup_s": raw_setup,
            "latency_p50_s": statistics.median(raw["latency_s"]),
            "latency_tail_s": percentile(raw["latency_s"], tail_p),
            "throughput_rps": (attempted - failed) / raw_wall,
            "wall_s": raw_wall,
            "kind_p50_s": raw["kind_p50_s"],
        },
        "kind_p50_s": kind_p50,
        "contradictions": raw["contradictions"],
        "input_error": raw["input_error"],
    }
    return result, meta


# -------------------------------------------------------------- self-test

def self_test():
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    # Tail percentile: at least ten samples beyond, and no higher whole
    # percentile would keep ten.
    expect(tail_percentile(20) == 50, "tail of 20 samples is p50")
    expect(tail_percentile(28) == 64, "tail of 28 samples is p64")
    expect(tail_percentile(160) == 93, "tail of 160 samples is p93")
    for n in range(11, 2001):
        p = tail_percentile(n)
        beyond = n - nearest_rank(n, p)
        expect(beyond >= 10, "n=%d: p%d leaves %d beyond" % (n, p, beyond))
        if p < 99:
            expect(n - nearest_rank(n, p + 1) < 10,
                   "n=%d: p%d is not the highest" % (n, p))
    values = [float(v) for v in range(1, 29)]
    expect(percentile(values, 64) == 18.0, "p64 of 1..28 is 18")
    expect(statistics.median(values) == 14.5, "median of 1..28")
    # statistics.quantiles (exclusive) of 1..9: 2.5 and 7.5.
    expect(abs(spread([float(v) for v in range(1, 10)]) - 5 / 5) < 1e-12,
           "spread of 1..9 is (7.5 - 2.5) / 5")
    # Reference speed: a box whose probe is twice the reference is twice as
    # slow, so its times halve; the unit stays seconds.
    expect(abs(at_reference(2.0, 2 * REF_PROBE_S) - 1.0) < 1e-12,
           "scaling on a slow box")
    expect(abs(at_reference(1.0, REF_PROBE_S / 2) - 2.0) < 1e-12,
           "scaling on a fast box")
    expect(probe_seconds({"reps_s": [3, 1, 2]}, {"reps_s": [10, 4]}) == 3,
           "probe median pools both runs")
    # Set-up: the first one is left out, each other is scaled by the two
    # probes beside it. The box slows to half speed during the third and
    # stays there: 0.15 s and 0.2 s then both read 0.1 s, like the second.
    ref = {"reps_s": [REF_PROBE_S]}
    slow = {"reps_s": [2 * REF_PROBE_S]}
    expect(abs(setup_seconds([9.0, 0.1, 0.15, 0.2],
                             [ref, ref, ref, slow, slow]) - 0.1) < 1e-12,
           "set-up scaled per copy, the first left out")
    try:
        tail_percentile(10)
        expect(False, "ten samples have no tail")
    except ValueError:
        pass

    # The metric names agree with BENCHMARK.json.
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
        expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
               "end-to-end metrics match BENCHMARK.json")
        expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
               "per-layer metrics match BENCHMARK.json")
        expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
               "workloads match BENCHMARK.json")

    # The probe stands apart from the library: its source includes only
    # standard headers, and its binary holds no library symbol.
    with open(os.path.join(HERE, "probe.cpp")) as fh:
        includes = [l.strip() for l in fh if l.startswith("#include")]
    expect(includes and all(i.startswith("#include <") for i in includes),
           "probe.cpp includes only standard headers")
    build()
    nm = subprocess.run(["nm", "-C", binary("perfbench_probe")],
                        capture_output=True, text=True)
    expect(nm.returncode == 0 and "ppnpart" not in nm.stdout,
           "perfbench_probe links nothing from src/")
    nm = subprocess.run(["nm", "-C", binary("perfbench_driver")],
                        capture_output=True, text=True)
    expect("ppnpart::" in nm.stdout, "nm sees library symbols in the driver")

    # The driver's own checks: answer recomputation and pinned inputs.
    r = subprocess.run([binary("perfbench_driver"), "--self-test"],
                       stdout=sys.stderr, stderr=sys.stderr)
    expect(r.returncode == 0, "perfbench_driver --self-test")

    # Probe repeatability on this box: spread of its repetitions.
    for threads in (1, os.cpu_count() or 1):
        out = subprocess.run([binary("perfbench_probe"), "--threads",
                              str(threads), "--reps", "9"],
                             capture_output=True, text=True)
        probe = json.loads(out.stdout)
        print("probe threads=%d median=%.4fs spread=%.3f warmup_reps=%d"
              % (threads, probe["median_s"], spread(probe["reps_s"]),
                 probe["warmup_reps"]))

    for f in failures:
        print("self-test FAILED: " + f, file=sys.stderr)
    print("self-test %s" % ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        ap.error("--seconds must be 1..60 and --seed non-negative")
    build()
    raw = run_driver(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds),
                      "--trace", str(args.trace),
                      "--probe", binary("perfbench_probe")])
    result, meta = evaluate(raw, args.trace == 1)
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
