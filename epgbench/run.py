#!/usr/bin/env python3
"""The repository's benchmark, as one command.

    python3 epgbench/run.py --workload bfs-s16 --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark driver from source (into
.bench_build/ at the repository root, once), records a machine
calibration, runs one workload, checks every output, and prints the
metrics: first a table with units and sample counts, then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
workload also runs traced and the metrics are the per-layer ones. A
report with the seed, every metric and the calibration is written to
.bench_out/. Exits 1 when any output is wrong, 2 when it cannot run.
See NOTES.md for why each workload exists.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import benchstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "epgbench_driver")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # for all of a run's driver calls together

# Each workload is a fixed unit of work (one sweep, or one pass of the
# request mix), repeated round(seconds / unit_s) times and at least once
# per process, so both sides of a comparison do the same work. The units
# are spread over several fresh driver processes, each on its own graph
# (process i of the run with seed N uses seed N * 16 + i). Each process
# sets up once, giving the set-up samples, and reports its own memory
# peaks (see merge). A traced run does all of the units in one process,
# untraced first, then traced.
WORKLOADS = {
    "bfs-s16": {
        "mode": "sweep",
        "args": ["--algorithm", "BFS",
                 "--systems", "GAP,Graph500,GraphBIG,GraphMat,Ligra",
                 "--scale", "16", "--roots", "16", "--threads", "1"],
        "reps_flag": "--reps",
        "unit_s": 9.0,
        "processes": 3,
    },
    "pagerank-s16-2t": {
        "mode": "sweep",
        "args": ["--algorithm", "PageRank",
                 "--systems", "GAP,GraphBIG,GraphMat,PowerGraph,Ligra",
                 "--scale", "16", "--roots", "2", "--threads", "2",
                 "--native-files"],
        "reps_flag": "--reps",
        "unit_s": 6.5,
        "processes": 3,
    },
    "serve-s14": {
        "mode": "serve",
        "args": ["--scale", "14"],
        "reps_flag": "--passes",
        "unit_s": 1.0,
        "processes": 5,
    },
}

END_TO_END = ["setup_s", "wall_s", "peak_rss_mb", "peak_vm_mb"]

SYSTEMS = ["GAP", "Graph500", "GraphBIG", "GraphMat", "Ligra", "PowerGraph"]
SERVE_CLASSES = ["GAP.BFS", "Graph500.BFS", "Ligra.BFS", "GraphMat.BFS",
                 "GAP.PageRank", "Ligra.PageRank"]
PER_LAYER = (
    ["gen.kronecker_s",
     "graph.symmetrize_s", "graph.dedupe_s", "graph.dedupe_kept_ratio",
     "graph.homogenize_s", "graph.homogenize_bytes",
     "harness.prepare_s", "harness.select_roots_s", "harness.attempts",
     "harness.unattributed_s"]
    + [f"systems.{s}.{m}" for s in SYSTEMS
       for m in ("file_read_s", "build_s", "bfs_s", "bfs_edges",
                 "pagerank_s", "pagerank_iters")]
    + ["systems.stage_s", "systems.oracle.csr_s", "systems.oracle.bfs_s",
       "systems.oracle.pagerank_s",
       "serve.connect_ms", "serve.protocol_us", "serve.acquire_ms",
       "serve.run_ms", "serve.unattributed_ms", "serve.vm_per_conn_kb",
       "serve.warm_hits", "serve.cold_loads", "serve.batches",
       "serve.coalesced", "serve.rejected"]
    + [f"serve.run.{c}_ms" for c in SERVE_CLASSES]
    + ["trace.overhead_s"])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (incrementally) build the driver."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no program sources under {ROOT}: the benchmark "
                           "must run from a checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "epgbench_driver", "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def call_driver(args, deadline=None):
    """Run the driver; its last stdout line is a JSON object."""
    timeout = RUN_TIMEOUT_S if deadline is None else max(
        1.0, deadline - time.monotonic())
    proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"driver exited {proc.returncode}: {args}")
    return json.loads(lines[-1])


def reps_per_process(name, seconds):
    n = WORKLOADS[name]["processes"]
    total = max(n, round(seconds / WORKLOADS[name]["unit_s"]))
    return [total // n + (i < total % n) for i in range(n)]


def process_seed(seed, i):
    return seed * 16 + i


def driver_args(name, seed, reps, work_dir, trace_dir=None,
                inject_bad_request=False):
    w = WORKLOADS[name]
    args = [w["mode"]] + w["args"] + [
        w["reps_flag"], str(reps), "--seed", str(seed),
        "--work-dir", work_dir]
    if trace_dir:
        args += ["--trace-dir", trace_dir]
    if inject_bad_request:
        args.append("--inject-bad-request")
    return args


def merge(raws):
    """Pool the samples of several driver processes. Memory is per
    process: the run reports the median VmHWM and the largest VmPeak,
    because VmPeak moves in whole 64 MiB allocator-arena reservations
    that a process takes or not depending on thread timing."""
    out = {"setup_s": [], "wall_s": [], "attempted": 0, "failed": 0,
           "failures": [], "processes": len(raws),
           "vm_hwm_kb_each": [r["vm_hwm_kb"] for r in raws],
           "vm_peak_kb_each": [r["vm_peak_kb"] for r in raws]}
    for raw in raws:
        for k in ("setup_s", "wall_s", "failures"):
            out[k] += raw[k]
        for k in ("attempted", "failed"):
            out[k] += raw[k]
        if "latency_ms" in raw:
            out.setdefault("latency_ms", []).extend(raw["latency_ms"])
        if "layers" in raw:
            out["layers"] = raw["layers"]
    out["vm_hwm_kb"] = benchstats.median(out["vm_hwm_kb_each"])
    out["vm_peak_kb"] = max(out["vm_peak_kb_each"])
    return out


def end_to_end(raw):
    m = {
        "setup_s": benchstats.metric(benchstats.median(raw["setup_s"]), "s",
                                     len(raw["setup_s"])),
        "wall_s": benchstats.metric(benchstats.median(raw["wall_s"]), "s",
                                    len(raw["wall_s"])),
        "peak_rss_mb": benchstats.metric(raw["vm_hwm_kb"] / 1024, "MiB",
                                         raw["processes"]),
        "peak_vm_mb": benchstats.metric(raw["vm_peak_kb"] / 1024, "MiB",
                                        raw["processes"]),
        "fail_ratio": benchstats.metric(
            benchstats.fail_ratio(raw["attempted"], raw["failed"]), "ratio",
            raw["attempted"]),
    }
    if "latency_ms" in raw:
        lat = raw["latency_ms"]
        m["query_p50_ms"] = benchstats.metric(
            benchstats.percentile(lat, 0.50), "ms", len(lat))
        m["query_p90_ms"] = benchstats.metric(
            benchstats.percentile(lat, 0.90), "ms", len(lat))
    return m


def per_layer(raw):
    layers = raw.get("layers", {})
    return {name: benchstats.metric(layers.get(name, 0.0),
                                    benchstats.unit_of(name), 1)
            for name in PER_LAYER}


def predictions(name, layers, e2e):
    """The reason each workload was chosen, checked on the traced run."""
    def total(suffix):
        return sum(v for k, v in layers.items()
                   if k.startswith("systems.") and k.endswith(suffix)
                   and not k.startswith("systems.oracle."))
    groups = {
        "systems.*.build_s": total(".build_s"),
        "systems.*.bfs_s": total(".bfs_s"),
        "systems.*.pagerank_s": total(".pagerank_s"),
        "systems.*.file_read_s": total(".file_read_s"),
        "systems.oracle.*": sum(v for k, v in layers.items()
                                if k.startswith("systems.oracle.")),
        "gen+graph": sum(layers.get(k, 0.0) for k in (
            "gen.kronecker_s", "graph.symmetrize_s", "graph.dedupe_s",
            "graph.homogenize_s")),
        "systems.stage_s": layers.get("systems.stage_s", 0.0),
        "harness.unattributed_s": layers.get("harness.unattributed_s", 0.0),
    }
    largest = max(groups, key=groups.get)
    lines = [f"  {k:24s} {v:10.4f} s" for k, v in
             sorted(groups.items(), key=lambda kv: -kv[1])]
    if name == "serve-s14":
        p50 = e2e["query_p50_ms"]["value"]
        share = (layers.get("serve.run_ms", 0.0)
                 + layers.get("serve.connect_ms", 0.0)) / p50
        ok = share > 0.5
        lines.append(f"  (serve.run_ms + serve.connect_ms) / query_p50_ms "
                     f"= {share:.3f}")
    else:
        want = ("systems.*.build_s" if name == "bfs-s16"
                else "systems.*.pagerank_s")
        ok = largest == want
        lines.append(f"  largest layer: {largest} (predicted {want})")
    lines.append("  prediction " + ("holds" if ok else "MISSED"))
    return lines


def print_table(title, metrics):
    print(title)
    print(f"  {'metric':32s} {'value':>16s} {'unit':6s} samples")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:16.6f} {m['unit']:6s} {m['samples']}")


def run(opts):
    loadavg = open("/proc/loadavg").read().split()[:3]
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    calibration = call_driver(["calibrate"])
    calibration["loadavg_start"] = [float(x) for x in loadavg]

    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    work_dir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    trace_dir = os.path.join(OUT_DIR, f"trace-{tag}") if opts.trace else None
    reps = reps_per_process(opts.workload, opts.seconds)
    calls = ([driver_args(opts.workload, process_seed(opts.seed, 0),
                          sum(reps), work_dir, trace_dir)] if opts.trace else
             [driver_args(opts.workload, process_seed(opts.seed, i), r,
                          work_dir) for i, r in enumerate(reps)])
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    try:
        raw = merge([call_driver(args, deadline) for args in calls])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    elapsed = time.monotonic() - started

    e2e = end_to_end(raw)
    layers = per_layer(raw) if opts.trace else {}
    correct = raw["failed"] == 0
    print(f"workload {opts.workload}  seed {opts.seed}  "
          f"driver {elapsed:.1f} s  calibration {json.dumps(calibration)}")
    print_table("end-to-end", e2e)
    if opts.trace:
        print_table("per-layer (traced run)", layers)
        print("layers: " + os.path.join(trace_dir, "layers.tsv"))
        print(open(os.path.join(trace_dir, "layers.tsv")).read().rstrip())
        print("trace: " + os.path.join(trace_dir, "trace.json"))
        print("\n".join(predictions(
            opts.workload, {k: m["value"] for k, m in layers.items()}, e2e)))
    for f in raw.get("failures", []):
        print("FAILED: " + f)

    report = {
        "workload": opts.workload, "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace,
        "driver_calls": calls, "correct": correct,
        "attempted": raw["attempted"], "failed": raw["failed"],
        "failures": raw.get("failures", []),
        "end_to_end": e2e, "per_layer": layers,
        "vm_hwm_kb_each": raw["vm_hwm_kb_each"],
        "vm_peak_kb_each": raw["vm_peak_kb_each"],
        "calibration": calibration,
    }
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)

    names = PER_LAYER if opts.trace else END_TO_END
    chosen = layers if opts.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {benchstats.check_name(k): {"value": chosen[k]["value"],
                                               "unit": chosen[k]["unit"]}
                    for k in names},
    }))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    try:
        return run(opts)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"epgbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
