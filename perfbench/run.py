#!/usr/bin/env python3
"""METAPREP benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  On its first run it builds the
harness (perfbench/CMakeLists.txt, library sources from src/) under
.bench_build/; later runs reuse that build.  Each run then:

  1. simulates the workload's XL-mini dataset from --seed and builds the
     reference partition (untimed);
  2. with --trace 0, for --seconds, runs run_metaprep in a fresh process,
     one run after another (at least MIN_RUNS runs), checking every run's
     partition against the reference and its exact counts against the
     first run.  SETUP_BATCHES batches of the CLI set-up (create_index +
     save_index + load_index) are spread evenly over the same window, and
     setup_s is the median of all their repeats.  Prints the end-to-end
     metrics;
  3. with --trace 1, sets up once, then alternates untraced and traced runs (plus a T=1
     baseline on xl-1rank), replays every layer on the same data, and
     prints the per-layer metrics.  The spans go to
     .bench_build/traces/<workload>-seed<N>.json.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
failed / attempted is the run failure fraction (failed_frac).  The metric
names and units, and the default of --seconds, come from BENCHMARK.json;
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
HARNESS = os.path.join(BUILD_DIR, "mpbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("xl-1rank", "xl-4rank-superkmer", "xl-lowmem-binned")
DEFAULT_SEED = 1  # reproduces sim::preset_config(XL) exactly
MIN_RUNS = 3
# Set-up batches per --trace 0 run, spread over its window: one short batch
# would see only a few seconds of this shared host's load.
SETUP_BATCHES = 3
TRACE_PAIRS = 3  # untraced/traced run pairs in a --trace 1 run
RUN_DEADLINE_S = 150.0  # no new timed run starts after this much time
CHILD_TIMEOUT_S = 170.0

# PipelineResult.step_times keys behind the phase.* metrics.
PHASES = {
    "phase.kmergen_io_s": "KmerGen-I/O", "phase.kmergen_s": "KmerGen",
    "phase.kmergen_comm_s": "KmerGen-Comm", "phase.localsort_s": "LocalSort",
    "phase.localcc_s": "LocalCC", "phase.merge_comm_s": "Merge-Comm",
    "phase.mergecc_s": "MergeCC", "phase.ccio_s": "CC-I/O",
    "phase.packed_ingest_s": "PackedIngest", "phase.expand_s": "Expand",
}

# Counts every run of one dataset must repeat exactly.
EXACT_COUNTS = ("tuples", "components", "exchange_bytes", "superkmer_records")


class BenchError(Exception):
    pass


def load_spec():
    """(end-to-end units, per-layer units, run_seconds) from BENCHMARK.json."""
    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (SPEC_PATH, e))
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    return units["end_to_end"], units["per_layer"], spec["run_seconds"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no METAPREP sources (src/) next to perfbench/; run from a checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target", "mpbench"])
    with open(log_path, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed:\n" + tail)


def harness(args, workdir, timeout=CHILD_TIMEOUT_S):
    """Run one harness subcommand; returns (parsed JSON, peak RSS in MB).

    Peak RSS is the child's own high-water mark (wait4 rusage), so it never
    includes this script or an earlier run."""
    err_path = os.path.join(workdir, "stderr.log")
    with open(err_path, "w") as err:
        proc = subprocess.Popen([HARNESS] + args, stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
    if proc.returncode != 0:
        with open(err_path) as f:
            raise BenchError("mpbench %s failed (%d): %s" %
                             (args[0], proc.returncode, f.read()[-2000:]))
    return json.loads(out), usage.ru_maxrss * 1024 / 1e6


def median(values):
    return statistics.median(values) if values else 0.0


def check_run(run, prep, first):
    """Reasons a timed run counts as failed (empty if it passed)."""
    bad = []
    if not run["labels_ok"]:
        bad.append("partition differs from the reference")
    if not run["tuples_ok"] or run["tuples"] != prep["tuples"]:
        bad.append("tuple count %d != reference %d" % (run["tuples"], prep["tuples"]))
    if run["components"] != prep["components"]:
        bad.append("components %d != reference %d" % (run["components"], prep["components"]))
    if first is not None:
        for key in EXACT_COUNTS:
            if run[key] != first[key]:
                bad.append("%s %r != first run %r" % (key, run[key], first[key]))
    return bad


def timed_run(wl, workdir, extra=()):
    """One run_metaprep process; a failure is returned, not raised."""
    try:
        run, rss = harness(["run", "--workload", wl, "--dir", workdir] + list(extra), workdir)
        run["peak_rss_mb"] = rss
        return run, None
    except (BenchError, ValueError) as e:
        return None, str(e)


def setup(wl, workdir):
    s, _ = harness(["setup", "--workload", wl, "--dir", workdir], workdir)
    return s


def end_to_end(wl, seed, seconds, workdir, prep, t_start):
    setup_batches = []
    runs, failures = [], []
    first = None
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        # Batch i is due at i / SETUP_BATCHES of the window; the first one
        # also writes the index the runs load.
        batches = len(setup_batches)
        if batches < SETUP_BATCHES and elapsed >= batches * seconds / SETUP_BATCHES:
            setup_batches.append(setup(wl, workdir)["total_s"])
            continue
        if len(runs) + len(failures) >= MIN_RUNS and elapsed >= seconds:
            break
        if time.monotonic() - t_start > RUN_DEADLINE_S:
            break
        run, err = timed_run(wl, workdir)
        if err is None:
            bad = check_run(run, prep, first)
            if first is None and not bad:
                first = run
            if bad:
                err = "; ".join(bad)
        if err is None:
            runs.append(run)
        else:
            failures.append(err)
            log("[%s] run failed: %s" % (wl, err))
    attempted = len(runs) + len(failures)
    walls = [r["wall_s"] for r in runs]
    setups = [s for batch in setup_batches for s in batch]
    mbp = prep["bases"] / 1e6
    metrics = {
        "wall_s": median(walls),
        "mbp_per_s": mbp / median(walls) if walls else 0.0,
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }
    # Human-readable summary (failed_frac and the exact exchange count are
    # printed here; the JSON line carries failed / attempted).
    print("perfbench %s seed=%d: %d timed runs in %.1f s, %d failed" %
          (wl, seed, attempted, time.monotonic() - t0, len(failures)))
    if walls:
        # The highest percentile with at least ten samples above it.
        n, tail = len(walls), ""
        if n >= 21:
            tail = ", p%d %.4f" % (100 * (n - 10) // n, sorted(walls)[n - 11])
        print("  %-12s %10.4f s      median of %d (min %.4f, max %.4f%s)" %
              ("wall_s", metrics["wall_s"], n, min(walls), max(walls), tail))
    print("  %-12s %10.3f Mbp/s  %.1f Mbp input" % ("mbp_per_s", metrics["mbp_per_s"], mbp))
    print("  %-12s %10.4f s      median of %d set-ups (create+save+load) in %d batches" %
          ("setup_s", metrics["setup_s"], len(setups), len(setup_batches)))
    print("  %-12s %10.1f MB     median per-run high-water" %
          ("peak_rss_mb", metrics["peak_rss_mb"]))
    if first is not None:
        print("  %-12s %10.3f MB     exact, cross-rank KmerGen-Comm" %
              ("exchange_mb", first["exchange_bytes"] / 1e6))
        print("  %-12s %10d        exact; reference %d" %
              ("components", first["components"], prep["components"]))
    print("  %-12s %10.4f        %d / %d" %
          ("failed_frac", len(failures) / max(attempted, 1), len(failures), attempted))
    return metrics, attempted, len(failures)


def by_median_wall(runs):
    return sorted(runs, key=lambda r: r["wall_s"])[len(runs) // 2]


def per_layer(wl, seed, workdir, prep, names):
    st = setup(wl, workdir)
    # Untraced and traced runs alternate; the traced run with the median
    # wall supplies the phase split and spans.
    runs = {"untraced": [], "traced": []}
    checks = {}  # checked item -> reasons it failed
    for i in range(TRACE_PAIRS):
        for kind, extra in (("untraced", []), ("traced", ["--trace", "1"])):
            run, err = timed_run(wl, workdir, extra)
            if err is not None:
                raise BenchError("%s run: %s" % (kind, err))
            first = runs["untraced"][0] if runs["untraced"] else None
            checks["%s run %d" % (kind, i + 1)] = check_run(run, prep, first)
            runs[kind].append(run)
    untraced = by_median_wall(runs["untraced"])
    traced = by_median_wall(runs["traced"])
    untraced_rss = median([r["peak_rss_mb"] for r in runs["untraced"]])
    baseline = None
    if wl == "xl-1rank":
        baseline, err = timed_run(wl, workdir, ["--threads", "1"])
        if err is not None:
            raise BenchError("T=1 baseline: " + err)
        checks["T=1 baseline"] = check_run(baseline, prep, untraced)
    rep, _ = harness(["replay", "--workload", wl, "--dir", workdir], workdir)
    bad = [] if rep["ok"] else ["layer replay disagrees with the reference"]
    if "kmer.sk_records" in rep:
        if rep["kmer.sk_records"] != traced["superkmer_records"]:
            bad.append("replayed super-k-mer records != run")
        if rep["sk_shipped_bytes"] != traced["exchange_bytes"]:
            bad.append("replayed shipped stream bytes != run exchange bytes")
    checks["replay"] = bad

    steps = traced["steps"]
    # The slowest rank's steps run one after another; steps in step_times
    # but in no rank's map (PackedIngest) run before the ranks start.  Their
    # sum must fit in the wall.  Summing step_times instead would add
    # per-step maxima of different ranks, which overlap in time.
    slow = traced["slowest_rank_steps"]
    serial_s = sum(slow.values()) + sum(v for k, v in steps.items() if k not in slow)
    checks["traced run steps"] = [] if serial_s <= traced["wall_s"] else [
        "slowest rank's steps %.4f s > wall %.4f s" % (serial_s, traced["wall_s"])]
    m = {name: 0.0 for name in names}
    m.update({k: v for k, v in rep.items() if k in names})
    for name, step in PHASES.items():
        m[name] = steps.get(step, 0.0)
    m["index.create_s"] = median(st["create_s"])
    m["index.hist_s"] = median(st["hist_s"])
    m["index.save_s"] = median(st["save_s"])
    m["index.load_s"] = median(st["load_s"])
    m["index.mb"] = st["index_bytes"] / 1e6
    m["kmer.sk_ratio"] = traced["superkmer_ratio"]
    m["mpsim.exchange_mb"] = traced["exchange_bytes"] / 1e6
    m["mpsim.msgs"] = traced["messages"]
    m["mpsim.sim_comm_s"] = traced["sim_comm_s"]
    m["mpsim.merge_mb"] = traced["merge_comm_bytes"] / 1e6
    m["mpsim.scatter_mb"] = traced["label_scatter_bytes"] / 1e6
    m["rank_imbalance"] = traced["rank_imbalance"]
    m["dsu.cc_iterations"] = traced["cc_iterations"]
    m["part.bin_skew"] = traced["bin_skew"]
    m["memmodel.estimate_mb"] = traced["memmodel_bytes"] / 1e6
    m["memmodel.coverage"] = m["memmodel.estimate_mb"] / untraced_rss
    m["tuple_buffer_mb"] = traced["max_tuple_buffer_bytes"] / 1e6
    m["sched.unattributed_s"] = traced["wall_s"] - serial_s
    m["trace_overhead"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    if baseline is not None:
        t1, tn = baseline["steps"], steps
        threads = 4
        m["scale.t1_wall_s"] = baseline["wall_s"]
        for metric, step in (("scale.kmergen_eff", "KmerGen"), ("scale.localsort_eff", "LocalSort"),
                             ("scale.localcc_eff", "LocalCC")):
            m[metric] = t1.get(step, 0.0) / (threads * tn[step]) if tn.get(step) else 0.0

    os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
    trace_path = os.path.join(BUILD_ROOT, "traces", "%s-seed%d.json" % (wl, seed))
    with open(trace_path, "w") as f:
        json.dump({"workload": wl, "seed": seed, "run_metaprep": traced["spans"],
                   "replay": rep["spans"], "steps": steps}, f, indent=1)

    print("perfbench %s seed=%d traced: median wall %.4f s (untraced %.4f s) of %d each; "
          "spans in %s" % (wl, seed, traced["wall_s"], untraced["wall_s"], TRACE_PAIRS,
                           os.path.relpath(trace_path, ROOT)))
    for name, unit in names.items():
        print("  %-28s %14.6g %s" % (name, m[name], unit))
    failed = 0
    for item, reasons in checks.items():
        if reasons:
            failed += 1
            log("[%s] %s failed: %s" % (wl, item, "; ".join(reasons)))
    return m, len(checks), failed


def main():
    end_to_end_units, per_layer_units, run_seconds = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not 0 <= a.seed < 1 << 64:
        ap.error("--seed must be in [0, 2**64)")
    build()
    t_start = time.monotonic()
    workdir = os.path.join(BUILD_ROOT, "work-%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        prep, _ = harness(["prepare", "--workload", a.workload, "--seed", str(a.seed),
                           "--dir", workdir], workdir)
        if a.trace:
            units = per_layer_units
            values, attempted, failed = per_layer(a.workload, a.seed, workdir, prep, units)
        else:
            values, attempted, failed = end_to_end(a.workload, a.seed, a.seconds, workdir, prep,
                                                   t_start)
            units = end_to_end_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(2)
