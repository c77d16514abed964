"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workloads ch_dgm,heat5d_ldgm --seeds 1-10

Runs `run.py --trace 0` once per (workload, seed), one at a time, and
prints per workload and end-to-end metric the median and the quartile
spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
A spread above the bound means the benchmark cannot resolve a change of
that size; `setup_s` is exempt.  Every result line goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=str(ROOT / ".perfbench_out" / "spread.jsonl"))
    args = ap.parse_args(argv)

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst_ok = True
    with open(args.out, "a") as log:
        for workload in args.workloads.split(","):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            for seed in _seeds(args.seeds):
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f}s, correct="
                      f"{result['correct']} " + " ".join(
                          f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
            for name, vs in values.items():
                spread = measure.quartile_spread(vs) if len(vs) >= 2 else 0.0
                ok = name == "setup_s" or spread <= bounds[name]
                worst_ok &= ok
                print(f"  {workload:<14} {name:<14} median {measure.median(vs):<12.6g} "
                      f"spread {spread:.4f}  bound {bounds[name]}  {'ok' if ok else 'TOO WIDE'}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
