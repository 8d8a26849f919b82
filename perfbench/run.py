#!/usr/bin/env python3
"""snowkit benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload sim-wide --seed 1 --seconds 30 --trace 0

Builds snowkit, the snowkit_server daemon and perfbench_driver (Release, in
.bench_build/ or $CARGO_TARGET_DIR), then repeats trials of the workload for
--seconds.  Every trial is a fresh process that runs a fixed number of
operations (see driver.cpp for why), so a run is a set of equal trials and
the reported value of each metric is its median over them.

--trace 0 prints every end-to-end metric.  --trace 1 runs untraced/traced
trial pairs and prints every per-layer metric plus trace_overhead_pct.  The
last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run is correct when every trial completed every operation, every history
passed the tag-order check (verify_ok = 1), and, on the simulator, every
trial of the seed (traced or not) produced the same virtual-time latencies
and counts.  An incorrect run prints its result and exits 1; a run that
cannot build or run a trial prints no result and exits 2; a non-Release
build exits 3.  Each run's provenance, per-trial raw values and result are
also written to <build>/runs/ for compare.py and steadiness.py.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-wide", "sim-writes", "tcp-paced")

# (name, unit) in BENCHMARK.json order.  STEADINESS.md says why the
# sojourn percentiles and the p99 latencies are per-layer diagnostics.
END_TO_END = [
    ("read_p50_us", "us"), ("write_p50_us", "us"),
    ("cpu_us_per_op", "us"), ("completed_frac", "ratio"),
    ("wire_bytes_per_op", "B"), ("msgs_per_op", "count"),
    ("read_rounds_mean", "count"), ("read_versions_mean", "count"),
    ("rss_mb", "MB"), ("verify_ok", "bool"), ("verify_s", "s"),
    ("setup_s", "s"),
]

# The fewest payload types that carry >= 90% of a workload's bytes, united
# over the workloads: adapt-tag-arr (sim-wide); repl-append, repl-append-ack,
# tag-arr, finalize, write-val, update-coor (sim-writes); tag-arr,
# read-val-resp, read-val, read-done (tcp-paced, as seen by the client).
PAYLOADS = ("adapt-tag-arr", "tag-arr", "update-coor", "write-val", "finalize",
            "read-val", "read-val-resp", "read-done", "repl-append", "repl-append-ack")

PER_LAYER = (
    [("sim.step_self_ns", "ns"), ("sim.trace_actions_per_op", "count")]
    + [(f"msg.{kind}.{p}", unit) for p in PAYLOADS
       for kind, unit in (("encode_ns", "ns"), ("decode_ns", "ns"), ("bytes", "B"))]
    + [(f"proto.handler_ns.{p}", "ns") for p in PAYLOADS]
    + [("proto.coorlist.push_ns", "ns"), ("proto.coorlist.tag_arr_ns", "ns"),
       ("proto.versionstore.insert_ns", "ns"), ("proto.versionstore.get_ns", "ns"),
       ("proto.versionstore.live_max", "count"), ("proto.replica.msgs_per_write", "count"),
       ("history.finish_ns.first_tenth", "ns"), ("history.finish_ns.last_tenth", "ns"),
       ("history.snapshot_s", "s"), ("core.cpu_drift_x", "x"),
       ("workload.arrival_ns", "ns"), ("metrics.wire_on_send_ns", "ns"),
       ("core.gen_lag_max_ms", "ms"), ("core.achieved_rate_frac", "ratio"),
       ("core.sojourn_p50_us", "us"), ("core.sojourn_p95_us", "us"),
       ("core.sojourn_p99_us", "us"),
       ("net.client_cpu_us_per_op", "us"), ("net.server_cpu_us_per_op", "us"),
       ("net.vcsw_per_op", "count"), ("net.nvcsw_per_op", "count"),
       ("net.syscalls_per_op", "count"), ("net.frames_per_syscall", "count"),
       ("net.epoll_wakeups_per_op", "count"), ("net.mailbox_bursts_per_op", "count"),
       ("net.backpressure_events", "count"), ("audit.on_send_ns", "ns"),
       ("tail.read_p95_us", "us"), ("tail.read_p99_us", "us"),
       ("tail.write_p95_us", "us"), ("tail.write_p99_us", "us"),
       ("trace_overhead_pct", "%")]
)

# Per-layer metrics taken from the untraced trial of each pair: they are
# counts or timings of the system itself, which tracing would perturb.
FROM_UNTRACED = ("core.", "net.", "tail.")
# Per-layer names of values the driver reports under another key.
RENAMED = {"core.sojourn_p50_us": "sojourn_p50_us", "core.sojourn_p95_us": "sojourn_p95_us",
           "core.sojourn_p99_us": "sojourn_p99_us", "tail.read_p95_us": "read_p95_us",
           "tail.read_p99_us": "read_p99_us", "tail.write_p95_us": "write_p95_us",
           "tail.write_p99_us": "write_p99_us"}

MIN_TRIALS = 3
TRIAL_TIMEOUT_S = 120
RUN_LIMIT_S = 160  # trial time after the build; a run must end within 180 s


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    """Configures and builds the Release binaries; exits 2 on failure."""
    cmake_dir = bdir / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(cmake_dir), "-j", jobs,
              "--target", "perfbench_driver", "snowkit_server"]]
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return cmake_dir


def cache_value(cmake_dir, key):
    for line in (cmake_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    h = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(cmake_dir):
    compiler = cache_value(cmake_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "compiler": f"{compiler} ({version})",
        "build_type": cache_value(cmake_dir, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def run_trial(cmake_dir, bdir, workload, seed, traced, index):
    cmd = [str(cmake_dir / "perfbench_driver"), "--workload", workload, "--seed", str(seed),
           "--tmp", str(bdir / "tmp")]
    if traced:
        cmd.append("--trace")
        if index == 0:  # one span file per run is enough, and they are large
            spans = bdir / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans", str(spans / f"{workload}.tsv")]
    pin = None
    if workload != "tcp-paced":
        # A simulator trial is one thread.  The vCPUs of a shared host run at
        # different speeds, so successive trials rotate over the CPUs this
        # process may use and every run samples all of them.
        cpus = sorted(os.sched_getaffinity(0))
        cpu = cpus[index % len(cpus)]
        pin = lambda: os.sched_setaffinity(0, {cpu})
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=TRIAL_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        log(f"perfbench: trial timed out after {TRIAL_TIMEOUT_S}s:", " ".join(cmd))
        sys.exit(2)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log("perfbench: trial failed:", " ".join(cmd))
        sys.exit(2)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(trials, key):
    return statistics.median(t.get(key, 0.0) for t in trials)


# Read/write latency percentiles pool the raw samples of every trial (the
# driver's nearest-rank rule), so a run's p99 rests on all its operations.
POOLED = {"read_p50_us": ("read_lat_ns", 0.50), "read_p99_us": ("read_lat_ns", 0.99),
          "write_p50_us": ("write_lat_ns", 0.50), "write_p99_us": ("write_lat_ns", 0.99),
          "read_p95_us": ("read_lat_ns", 0.95), "write_p95_us": ("write_lat_ns", 0.95)}


def pooled(trials, name):
    key, q = POOLED[name]
    values = sorted(v for t in trials for v in t[key])
    return values[min(int(q * len(values)), len(values) - 1)] / 1000.0


def value_of(trials, name):
    if name in POOLED:
        return pooled(trials, name)
    if name == "verify_ok":
        return min(t[name] for t in trials)
    return median(trials, name)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    cmake_dir = build(bdir)
    prov = provenance(cmake_dir)
    if prov["build_type"] != "Release":
        log(f"perfbench: refusing to report from a {prov['build_type'] or 'untyped'} build")
        sys.exit(3)
    print("provenance:", json.dumps(prov, sort_keys=True), flush=True)

    # Trials run until --seconds are used up (at least MIN_TRIALS), and never
    # past RUN_LIMIT_S.
    untraced, traced = [], []
    t0 = time.monotonic()
    while True:
        t_trial = time.monotonic()
        n = len(untraced)
        untraced.append(run_trial(cmake_dir, bdir, args.workload, args.seed, False, n))
        if args.trace:
            traced.append(run_trial(cmake_dir, bdir, args.workload, args.seed, True, n))
        took = time.monotonic() - t_trial
        now = time.monotonic()
        enough = len(untraced) >= (1 if args.trace else MIN_TRIALS)
        if (enough and now - t0 + took > args.seconds) or now - t0 + took > RUN_LIMIT_S:
            break

    trials = untraced + traced
    problems = []
    for t in trials:
        if t["completed"] != t["attempted"]:
            problems.append(f"only {t['completed']:.0f} of {t['attempted']:.0f} ops completed")
        if t["verify_ok"] != 1:
            problems.append("history failed the tag-order check")
    fingerprints = {t["virt_fingerprint"] for t in trials if "virt_fingerprint" in t}
    if len(fingerprints) > 1:
        problems.append(f"simulator not deterministic: fingerprints {sorted(fingerprints)}")

    metrics = {}
    if args.trace:
        cpu_u, cpu_t = median(untraced, "cpu_us_per_op"), median(traced, "cpu_us_per_op")
        for name, unit in PER_LAYER:
            if name == "trace_overhead_pct":
                value = (cpu_t - cpu_u) / cpu_u * 100.0
            else:
                src = untraced if name.startswith(FROM_UNTRACED) else traced
                value = value_of(src, RENAMED.get(name, name))
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": value_of(trials, name), "unit": unit}

    attempted = int(sum(t["attempted"] for t in trials))
    failed = int(sum(t["attempted"] - t["completed"] for t in trials))
    if problems:
        failed = max(failed, 1)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    for t in trials:
        t.pop("read_lat_ns", None)
        t.pop("write_lat_ns", None)
    runs = bdir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "problems": problems,
              "trials": untraced, "traced_trials": traced, "result": result}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    log(f"perfbench: {args.workload} seed {args.seed}: {len(untraced)} trial(s)"
        + (f" + {len(traced)} traced" if traced else "")
        + f" in {time.monotonic() - t0:.1f}s")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    for p in problems:
        log("perfbench: INCORRECT:", p)
    print(json.dumps(result), flush=True)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
