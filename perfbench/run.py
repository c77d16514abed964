"""The repository benchmark: one training workload, closed loop, one process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it times whole workload runs (each a seed list trained one
seed after another, as `ldgm run` does) back to back until S seconds have
passed, and times set-up in fresh processes.  With --trace 1 it alternates
untraced and traced workload runs, then repeats one traced run with BLAS at
one thread, and reports per-layer numbers.  Either way it then runs the
correctness gate and prints one line of JSON last.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def _die(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import ldgm from this checkout's source tree, and nowhere else."""
    pkg = ROOT / "src" / "ldgm"
    if not (pkg / "__init__.py").is_file():
        _die(f"no program source at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import ldgm
    if Path(ldgm.__file__).resolve().parent != pkg.resolve():
        _die(f"imported ldgm from {ldgm.__file__}, not from {pkg}")


def _benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _die(f"missing {path}")
    return json.loads(path.read_text())


# -- one workload run -------------------------------------------------------


def run_workload(cfg, out_dir: Path) -> list[dict]:
    """Train every seed of the config one after another, as `ldgm run` does."""
    from ldgm import cli
    from ldgm.errors import LdgmError
    from ldgm.trainer import TrainReport

    runs = []
    for seed in cfg.seeds:
        t0 = time.perf_counter()
        try:
            run_dir, status = cli.run_single(cfg, seed, out_dir)
        except LdgmError as e:
            run_dir, status = None, f"error: {type(e).__name__}: {e}"
        run = {"seed": seed, "status": status, "wall_s": time.perf_counter() - t0, "rows": []}
        if status == "ok":
            rows = run["rows"] = TrainReport.from_csv(run_dir / "report.csv").rows
            # the report's last row: Adam steps taken, training seconds so far
            run["steps_per_s"] = rows[-1][0] / rows[-1][6]
        runs.append(run)
    return runs


def _numeric(run: dict) -> list:
    """A report's rows without the wall-clock column."""
    return [row[:6] for row in run["rows"]]


def _completed(rounds: list[list[dict]]) -> list[dict]:
    """The seed runs of these workload runs that ended `ok`."""
    return [r for rd in rounds for r in rd if "steps_per_s" in r]


# -- set-up probes ------------------------------------------------------------


def probe_setup(config_path: Path, seed: int, out_dir: Path) -> float | None:
    """Seconds from process start to the first training step, or None on failure."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(config_path),
           str(seed), str(out_dir)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return None
    return float(proc.stdout.strip().splitlines()[-1]) - t0


# -- per-layer numbers from a traced run --------------------------------------


def per_layer(tracer, blas1, names: list[str], untraced_rate: float, traced_rate: float,
              aborts: int) -> dict:
    import measure

    steps = tracer.step_breakdown()
    if not steps or tracer.tape is None:
        raise RuntimeError("the traced run completed no training step")

    def mean_of(key):
        return sum(s[key] for s in steps) / len(steps)

    def ms(seconds):
        return [1e3 * s for s in seconds]

    def mean_ms(span):
        d = tracer.span_durations(span)
        return 1e3 * sum(d) / len(d) if d else 0.0

    prof = measure.tape_profile(*tracer.tape)
    if any(n != prof["nodes"] for n in tracer.tape_sizes):
        raise RuntimeError(f"tape size differs between runs: {sorted(set(tracer.tape_sizes))}")
    step_ms = ms(s["step"] for s in steps)
    p50 = measure.percentile(step_ms, 50)
    n_runs = len(tracer.span_durations("trainer.train_loop"))
    values = {
        "trainer.step_ms.p50": p50,
        "trainer.step_ms.p90": measure.percentile(step_ms, 90),
        "trainer.self_ms": 1e3 * mean_of("trainer.self"),
        "trainer.adam_ms": 1e3 * mean_of("trainer.adam"),
        "trainer.aborts": aborts,
        "network.bind_ms": 1e3 * mean_of("network.bind"),
        "network.jets_ms": 1e3 * mean_of("network.jets"),
        "network.forward_ms": 1e3 * mean_of("network.forward"),
        "network.calls": mean_of("network.calls"),
        "network.params": tracer.params,
        "loss.self_ms": 1e3 * mean_of("loss.self"),
        "ritz.self_ms": 1e3 * mean_of("ritz.self"),
        "autodiff.backward_ms": 1e3 * mean_of("autodiff.backward"),
        "autodiff.backward_us_per_node": 1e6 * mean_of("autodiff.backward") / prof["nodes"],
        "autodiff.tape_nodes": prof["nodes"],
        "autodiff.live_node_ratio": prof["live_ratio"],
        "autodiff.tape_mb": prof["bytes"] / 1e6,
        "autodiff.matmul_mflop": prof["flops"] / 1e6,
        "autodiff.mflops_per_s": prof["flops"] / 1e6 / (p50 / 1e3),
        "sampling.draw_ms": mean_ms("sampling.draw"),
        "metrics.eval_ms": mean_ms("metrics.eval"),
        "metrics.eval_points": measure.median(tracer.eval_points) if tracer.eval_points else 0,
        "reference.solve_ms": mean_ms("reference.solve"),
        "cli.write_ms": 1e3 * sum(tracer.span_durations("cli.write")) / max(n_runs, 1),
        "cli.ckpt_bytes": tracer.write_bytes / max(n_runs, 1),
        "trace.overhead_ratio": untraced_rate / traced_rate,
        "blas1.step_ms.p50": measure.percentile(ms(s["step"] for s in blas1.step_breakdown()), 50),
    }
    # op kinds BENCHMARK.json does not list are counted together as "other"
    values["autodiff.nodes.other"] = 0
    for op, count in prof["per_op"].items():
        key = f"autodiff.nodes.{op}"
        if key not in names:
            key = "autodiff.nodes.other"
        values[key] = values.get(key, 0) + count
    unlisted = sorted(k for k in values if k not in names)
    if unlisted:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unlisted}")
    parts = ("trainer.self", "trainer.adam", "network.bind", "network.jets",
             "network.forward", "loss.self", "ritz.self", "autodiff.backward")
    accounted = sum(mean_of(k) for k in parts) / mean_of("step")
    print(f"  step parts add up to {accounted:.6f} of the mean step; "
          f"mean step {1e3 * mean_of('step'):.3f} ms, p50 {p50:.3f} ms")
    # metrics of layers this workload does not reach read 0
    return {name: values.get(name, 0) for name in names}


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    spec = _benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    process_start = time.perf_counter()
    _import_program()
    import gate
    import measure
    from env import Blas, environment
    from spans import Tracer
    from workloads import WORKLOADS, config_text

    from ldgm.config import ExperimentConfig

    workload = WORKLOADS[args.workload]
    blas = Blas()
    env = environment(blas)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "workload.cfg"
        config_path.write_text(config_text(ROOT, workload, args.seed))
        cfg = ExperimentConfig.from_file(config_path)
        rounds: list[list[dict]] = []
        traced_rounds: list[list[dict]] = []
        blas1_rounds: list[list[dict]] = []  # BLAS at one thread: other rounding, no repeat check
        failures: list[str] = []
        attempted = 0

        def new_dir():
            return work / f"w{len(rounds) + len(traced_rounds) + len(blas1_rounds)}"

        setups = []
        if args.trace == 0:
            for k in range(SETUP_PROBES):
                attempted += 1
                s = probe_setup(config_path, cfg.seeds[0], work / f"probe{k}")
                if s is None:
                    failures.append(f"set-up probe {k} failed")
                else:
                    setups.append(s)
            rounds.append(run_workload(cfg, new_dir()))  # warm-up, not timed
            t0 = time.perf_counter()
            while len(rounds) < 3 or time.perf_counter() - t0 < args.seconds:
                rounds.append(run_workload(cfg, new_dir()))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            tracer = Tracer()
            rounds.append(run_workload(cfg, new_dir()))  # warm-up, not timed
            t0 = time.perf_counter()
            while not traced_rounds or time.perf_counter() - t0 < args.seconds:
                rounds.append(run_workload(cfg, new_dir()))
                with tracer.installed():
                    traced_rounds.append(run_workload(cfg, new_dir()))
            blas1 = Tracer()
            before = blas.threads()
            if blas.available:
                blas.set_threads(1)
            try:
                with blas1.installed():
                    blas1_rounds.append(run_workload(cfg, new_dir()))
            finally:
                if blas.available:
                    blas.set_threads(before)

        all_runs = [r for rd in rounds + traced_rounds + blas1_rounds for r in rd]
        attempted += len(all_runs)
        aborted = [r for r in all_runs if r["status"] != "ok"]
        failures += [f"seed {r['seed']}: {r['status']}" for r in aborted]

        # correctness gate, outside the timed window
        checks = {}
        checks["gradient"] = gate.gradient_check(cfg, cfg.seeds[0])
        checks["annihilation"] = gate.annihilation_check()
        finals = [r["rows"][-1][5] for r in rounds[0] if r["rows"]]
        checks["finite"] = (not aborted and len(finals) == len(cfg.seeds)
                            and all(math.isfinite(v) for v in finals),
                            f"{len(all_runs) - len(aborted)}/{len(all_runs)} runs ok, "
                            f"final rel_l2 of {len(finals)} seeds in "
                            f"[{min(finals, default=math.nan):.4g}, "
                            f"{max(finals, default=math.nan):.4g}]")
        reference = [_numeric(r) for r in rounds[0]]
        repeats = rounds[1:] + traced_rounds
        same = [[_numeric(r) for r in rd] == reference for rd in repeats]
        checks["repeat"] = (bool(same) and all(same),
                            f"{sum(same)}/{len(same)} repeats reproduce the first run's "
                            f"report (all columns but seconds) bit-exactly")
        attempted += len(checks)
        failures += [f"check {k}: {d}" for k, (ok, d) in checks.items() if not ok]

        n_ok = len(all_runs) - len(aborted)
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
              f"config {workload.config} seeds {cfg.seeds}, "
              f"{len(rounds)} untraced + {len(traced_rounds)} traced + "
              f"{len(blas1_rounds)} one-BLAS-thread workload runs")
        if args.trace == 0:
            # per seed run over all timed repeats; every seed of a workload does the
            # same work, and the median of these many short samples shrugs off the
            # slow spells of a shared machine
            timed = _completed(rounds[1:])
            by_name = {
                "setup_s": measure.median(setups) if setups else math.nan,
                "run_s": len(cfg.seeds) * measure.median([r["wall_s"] for r in timed]),
                "steps_per_s": measure.median([r["steps_per_s"] for r in timed]),
                "peak_rss_mb": peak_rss_mb,
                "rel_l2_final": measure.median(finals) if finals else math.nan,
                "ok_ratio": n_ok / len(all_runs),
            }
            listed = spec["end_to_end"]
            print(f"  {'abort_ratio':<16} {1 - n_ok / len(all_runs):<14.6g} ratio "
                  f"({len(aborted)} of {len(all_runs)} runs aborted)")
        else:
            untraced = measure.median([r["steps_per_s"] for r in _completed(rounds[1:])])
            traced = measure.median([r["steps_per_s"] for r in _completed(traced_rounds)])
            by_name = per_layer(tracer, blas1, [m["name"] for m in spec["per_layer"]],
                                untraced, traced, len(aborted))
            listed = spec["per_layer"]
        metrics = {m["name"]: {"value": by_name[m["name"]], "unit": m["unit"]} for m in listed}
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:<14.6g} {m['unit']}")
        for name, (ok, detail) in checks.items():
            print(f"  check {name}: {'ok' if ok else 'FAILED'} - {detail}")
        if blas1_rounds:
            same_bits = [_numeric(r) for r in blas1_rounds[0]] == reference
            print(f"  note: the one-BLAS-thread run {'reproduces' if same_bits else 'differs from'}"
                  f" the first run's report bit for bit")
        for f in failures:
            print(f"  failure: {f}")
        print("env " + json.dumps(env))

        result = {"correct": not failures, "attempted": attempted,
                  "failed": len(failures), "metrics": metrics}
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      env=env, config=config_path.read_text(), checks=checks,
                      setup_probes_s=setups,
                      workload_runs=[[{k: r.get(k) for k in ("seed", "status", "wall_s",
                                                              "steps_per_s")}
                                      for r in rd] for rd in rounds],
                      wall_s=time.perf_counter() - process_start)
        OUT.mkdir(exist_ok=True)
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            rows = [list(span) for span in
                    zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)]
            (OUT / f"{tag}.spans.json").write_text(json.dumps(rows))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
