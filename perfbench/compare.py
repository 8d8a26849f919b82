#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run results as written by steadiness.py --out-dir:
one <workload>-seed<N>.json per run, holding run.py's final JSON line.
Runs of the two sets are paired by workload and seed, so measure both
commits with the same seeds, alternating parent and change run by run: the
host's speed drifts by 10 % or more within half an hour (STEADINESS.md),
and two sets measured one after the other compare the host, not the code.
With a checkout of each commit:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      (cd parent && python3 perfbench/steadiness.py --first-seed $s --runs 1 --out-dir P)
      (cd change && python3 perfbench/steadiness.py --first-seed $s --runs 1 --out-dir C)
    done

(swap the two lines on every other seed so neither side always runs first).

For every workload and metric it prints each side's median and quartiles
and a verdict:

  better      the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's IQR;
  worse       the parent wins >= 9/10 of the pairs, same IQR condition;
  unresolved  anything else.

End-to-end metrics also get "bound": "ok" when the change's median is no
worse than the parent's by more than the bound in BENCHMARK.json, else
"EXCEEDED".  Exit status 1 when any bound is exceeded.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(d):
    runs = {}
    for path in sorted(Path(d).glob("*-seed*.json")):
        wl, seed = path.stem.rsplit("-seed", 1)
        runs.setdefault(wl, {})[int(seed)] = json.loads(path.read_text())["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(pairs, lower_is_better, parent_iqr, med_p, med_c):
    change_wins = sum(1 for p, c in pairs if (c < p if lower_is_better else c > p))
    parent_wins = sum(1 for p, c in pairs if (p < c if lower_is_better else p > c))
    apart = abs(med_c - med_p) > parent_iqr
    if apart and change_wins >= 0.9 * len(pairs):
        return "better", change_wins, parent_wins
    if apart and parent_wins >= 0.9 * len(pairs):
        return "worse", change_wins, parent_wins
    return "unresolved", change_wins, parent_wins


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    exceeded = False
    print(f"{'workload':11s} {'metric':34s} {'parent med [Q1,Q3]':>30s} "
          f"{'change med [Q1,Q3]':>30s} {'wins':>7s} {'verdict':>10s} {'bound':>9s}")
    for wl in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[wl]) & set(change[wl]))
        names = [n for n in spec if all(n in parent[wl][s] and n in change[wl][s] for s in seeds)]
        for name in names:
            p = [parent[wl][s][name]["value"] for s in seeds]
            c = [change[wl][s][name]["value"] for s in seeds]
            med_p, med_c = statistics.median(p), statistics.median(c)
            (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
            lower = spec[name]["better"] == "lower"
            v, cw, _ = verdict(list(zip(p, c)), lower, p3 - p1, med_p, med_c)
            bound = ""
            if "bound" in spec[name]:
                worse_by = (med_c - med_p) if lower else (med_p - med_c)
                ok = worse_by <= spec[name]["bound"] * abs(med_p)
                bound = "ok" if ok else "EXCEEDED"
                exceeded |= not ok
            print(f"{wl:11s} {name:34s} {f'{med_p:.4g} [{p1:.4g},{p3:.4g}]':>30s} "
                  f"{f'{med_c:.4g} [{c1:.4g},{c3:.4g}]':>30s} {f'{cw}/{len(seeds)}':>7s} "
                  f"{v:>10s} {bound:>9s}")
    sys.exit(1 if exceeded else 0)


if __name__ == "__main__":
    main()
