#!/usr/bin/env python3
"""Steadiness report: N runs per workload, each with another seed.

    python3 perfbench/steadiness.py --runs 10 --seconds 30 [--first-seed 1] \
        [--workloads sim-wide,tcp-paced] [--out-dir DIR] [--report FILE]

Runs perfbench/run.py --trace 0 once per (workload, seed), seeds
first..first+N-1, keeps each run's result JSON in --out-dir, and prints for
every workload and end-to-end metric the median, quartiles, min/max and the
spread (Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
Quartiles are statistics.quantiles(values, n=4) (its default, exclusive
method).  A spread above bound/3 is flagged "noisy"; above the bound,
"OVER".  With --report the table is also written as Markdown.

    python3 perfbench/steadiness.py --from-dir DIR [--report FILE]

re-tabulates runs already in DIR without running anything.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(workloads, seeds, seconds, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    for wl in workloads:
        for seed in seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(proc.stderr[-2000:], file=sys.stderr)
                sys.exit(f"run failed: {wl} seed {seed} (exit {proc.returncode})")
            (out_dir / f"{wl}-seed{seed}.json").write_text(last + "\n")
            print(f"{wl} seed {seed}: {time.monotonic() - t0:.1f}s", file=sys.stderr, flush=True)


def load_dir(out_dir):
    """{workload: [result, ...]} from <workload>-seed<N>.json files."""
    runs = {}
    for path in sorted(out_dir.glob("*-seed*.json")):
        wl = path.name.rsplit("-seed", 1)[0]
        runs.setdefault(wl, []).append(json.loads(path.read_text()))
    return runs


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else 0.0}


def table(runs, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rows = []
    for wl, results in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values)
            flag = ""
            if name != "setup_s":
                flag = "OVER" if s["spread"] > bound else "noisy" if s["spread"] > bound / 3 else ""
            rows.append((wl, name, len(values), s, bound, flag))
    return rows


def render(rows):
    lines = ["| workload | metric | n | median | Q1 | Q3 | min | max | spread | bound | flag |",
             "|---|---|---|---|---|---|---|---|---|---|---|"]
    for wl, name, n, s, bound, flag in rows:
        lines.append(f"| {wl} | {name} | {n} | {s['median']:.4g} | {s['q1']:.4g} | "
                     f"{s['q3']:.4g} | {s['min']:.4g} | {s['max']:.4g} | "
                     f"{s['spread']:.3f} | {bound} | {flag} |")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--out-dir", default=None, help="where run results go")
    ap.add_argument("--from-dir", default=None, help="tabulate existing results only")
    ap.add_argument("--report", default=None, help="also write the table as Markdown here")
    args = ap.parse_args()

    bench = load_bench()
    if args.from_dir:
        out_dir = Path(args.from_dir)
    else:
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in bench["workloads"]])
        out_dir = Path(args.out_dir or ROOT / ".bench_build" / "steadiness" /
                       time.strftime("%Y%m%dT%H%M%S"))
        seeds = range(args.first_seed, args.first_seed + args.runs)
        run_all(workloads, seeds, args.seconds or bench["run_seconds"], out_dir)
    rows = table(load_dir(out_dir), bench)
    text = render(rows)
    print(text)
    print(f"\nresults in {out_dir}", file=sys.stderr)
    if args.report:
        Path(args.report).write_text(text + "\n")


if __name__ == "__main__":
    main()
