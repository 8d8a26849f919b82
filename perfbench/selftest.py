#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Builds the benchmark like run.py does, then checks, on short trials:
  (a) the verdict is not vacuous: flipping one READ value in a copy of a
      recorded history makes the tag-order check fail (verify_ok 0), on
      every workload;
  (b) the simulator workloads are deterministic: two trials with one seed
      give identical virtual-time latencies and counts, and so does a
      traced trial;
  (c) another seed generates other inputs, on every workload;
  (d) BENCHMARK.json lists exactly the metrics run.py reports.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

OPS = "1000"


def trial(cmake_dir, bdir, workload, seed, *extra):
    cmd = [str(cmake_dir / "perfbench_driver"), "--workload", workload, "--seed", str(seed),
           "--tmp", str(bdir / "tmp"), "--ops", OPS, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=run.TRIAL_TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        sys.exit(f"FAIL: trial did not run: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    bdir = run.build_dir()
    cmake_dir = run.build(bdir)

    for wl in run.WORKLOADS:
        t = trial(cmake_dir, bdir, wl, 1, "--selftest-vacuity")
        check(t["verify_ok"] == 1 and t["selftest.flipped"] == 1
              and t["selftest.flipped_verify_ok"] == 0,
              f"(a) {wl}: recorded history verifies, one flipped READ value does not")

    for wl in ("sim-wide", "sim-writes"):
        a = trial(cmake_dir, bdir, wl, 3)
        b = trial(cmake_dir, bdir, wl, 3)
        t = trial(cmake_dir, bdir, wl, 3, "--trace")
        check(a["virt_fingerprint"] == b["virt_fingerprint"],
              f"(b) {wl}: same seed, same virtual-time latencies and counts")
        check(a["virt_fingerprint"] == t["virt_fingerprint"],
              f"(b) {wl}: traced trial matches the untraced one")

    for wl in run.WORKLOADS:
        a = trial(cmake_dir, bdir, wl, 1)
        b = trial(cmake_dir, bdir, wl, 2)
        check(a["inputs_fingerprint"] != b["inputs_fingerprint"],
              f"(c) {wl}: seeds 1 and 2 generate different inputs")

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    check(listed == run.END_TO_END, "(d) BENCHMARK.json end_to_end matches run.py")
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    check(listed == run.PER_LAYER, "(d) BENCHMARK.json per_layer matches run.py")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
