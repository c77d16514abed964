"""Experiment runner: run, sweep, diagnose, reference, compare.

Runs are content-addressed by (config hash, seed); an existing completed
run directory is never overwritten.  All artifacts are plain text.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

from .config import NUMERIC_KEYS, ExperimentConfig
from .errors import ConfigError, LdgmError
from .metrics import derivative_scale_diagnostic, write_table
from .network import save_checkpoint
from .reference import SpectralCHConfig, solve_ch_spectral
from .trainer import TrainReport, train


def _run_dir(cfg: ExperimentConfig, out, seed: int) -> Path:
    name = cfg.raw["problem.name"]
    return Path(out) / f"{name}-{cfg.method}-{cfg.content_hash()}-seed{seed}"


@functools.lru_cache(maxsize=None)
def _ch_field(eps: float):
    """The spectral reference at one epsilon, solved once per process."""
    return solve_ch_spectral(SpectralCHConfig(epsilon=eps))


def _ch_truth(cfg: ExperimentConfig, run_dir: Path):
    field = _ch_field(cfg.values["problem.epsilon"])
    field.save_csv(run_dir / "reference.csv")
    return lambda x, t: field.interp(x[:, 0], t)


def run_single(cfg: ExperimentConfig, seed: int, out=None) -> tuple[Path, str]:
    """One training run; returns (directory, status string)."""
    out = out or cfg.out_dir
    run_dir = _run_dir(cfg, out, seed)
    status_path = run_dir / "status.txt"
    if status_path.exists():
        return run_dir, status_path.read_text().strip()
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.resolved").write_text(cfg.resolved_text())

    status = "ok"
    t0 = time.perf_counter()
    try:
        spec = cfg.problem()
        net_cfg = cfg.network(spec)
        truth = _ch_truth(cfg, run_dir) if spec.name == "cahn_hilliard" else None
        report, params = train(spec, cfg.method, net_cfg, cfg.sampler(), cfg.train(),
                               seed=seed, truth=truth, ritz_cfg=cfg.ritz())
        report.to_csv(run_dir / "report.csv")
        save_checkpoint(run_dir / "params.ckpt", net_cfg, params)
        write_table(run_dir / "summary.csv",
                    ("final_rel_l2", "final_J_total", "steps", "wall_seconds",
                     "tail_min_rel_l2", "tail_median_rel_l2"),
                    [(report.final_rel_l2,
                      report.column("J_total")[-1] if report.rows else math.nan,
                      report.column("step")[-1] if report.rows else 0,
                      time.perf_counter() - t0, *report.tail_rel_l2())])
    except LdgmError as e:
        status = f"abort: {type(e).__name__}: {e}"
    status_path.write_text(status + "\n")
    return run_dir, status


def _run_seed_job(args):
    raw, seed, out = args
    cfg = ExperimentConfig(raw)
    run_dir, status = run_single(cfg, seed, out)
    return seed, str(run_dir), status


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    # --seed goes through the seeds key's parser, so a bad seed fails before any run
    seeds = cfg.override("seeds", args.seed).seeds if args.seed is not None else cfg.seeds
    out = args.out or cfg.out_dir
    jobs = [(cfg.raw, s, out) for s in seeds]
    if args.jobs > 1 and len(jobs) > 1:
        # imported here, so no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_seed_job, jobs))
    else:
        results = [_run_seed_job(j) for j in jobs]
    failed = 0
    for seed, run_dir, status in results:
        print(f"seed {seed}: {status}  ({run_dir})")
        if status != "ok":
            failed += 1
    return 1 if failed else 0


def cmd_sweep(args) -> int:
    base = ExperimentConfig.from_file(args.config)
    axis = args.axis
    if axis not in NUMERIC_KEYS:
        raise ConfigError([axis], f"sweep axis must be a numeric config key, got {axis!r}")
    values = [v for v in args.values.split(",") if v.strip() != ""]
    cfgs = [base.override(axis, v) for v in values]  # every value parses before any run
    out = args.out or base.out_dir
    rows = []
    for v, cfg in zip(values, cfgs):
        seed = cfg.seeds[0]
        try:
            run_dir, status = run_single(cfg, seed, out)
            if status == "ok":
                report = TrainReport.from_csv(run_dir / "report.csv")
                seconds = report.column("seconds")[-1] if report.rows else math.nan
                rows.append((v, report.final_rel_l2, seconds, "ok"))
            else:
                rows.append((v, math.nan, math.nan, status))
        except LdgmError as e:
            rows.append((v, math.nan, math.nan, f"error: {e}"))
        print(f"{axis}={v}: {rows[-1][3]}  rel_l2={rows[-1][1]}")
    summary = Path(out) / f"sweep-{axis.replace('.', '_')}.csv"
    summary.parent.mkdir(parents=True, exist_ok=True)
    write_table(summary, (axis, "final_rel_l2", "wall_seconds", "status"), rows)
    print(f"wrote {summary}")
    return 0


def cmd_diagnose(args) -> int:
    if args.seed < 0:
        raise ConfigError(["--seed"], f"--seed must be an integer >= 0, got {args.seed}")
    report = derivative_scale_diagnostic(seed=args.seed)
    if report.skipped:
        print(f"diagnostic skipped: fit rel_l2={report.fit_rel_l2:.3g} above threshold")
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "derivative_scale.csv", ("order", "rel_discrepancy"), report.rows)
    print(f"fit rel_l2 = {report.fit_rel_l2:.3e}")
    for order, disc in report.rows:
        print(f"order {order}: relative discrepancy {disc:.3e}")
    return 0


def cmd_reference(args) -> int:
    cfg = SpectralCHConfig(grid_size=args.grid, dt=args.dt,
                           epsilon=args.epsilon, horizon=args.horizon)
    field = solve_ch_spectral(cfg)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    field.save_csv(args.out)
    print(f"wrote {args.out} ({field.values.shape[0]} time levels x "
          f"{field.values.shape[1]} points)")
    return 0


def cmd_compare(args) -> int:
    a = TrainReport.from_csv(args.report_a)
    b = TrainReport.from_csv(args.report_b)
    # one row per step both reports logged
    b_at = {step: (rel, sec) for step, rel, sec in
            zip(b.column("step"), b.column("rel_l2"), b.column("seconds"))}
    rows = [(step, rel, b_at[step][0], sec, b_at[step][1]) for step, rel, sec in
            zip(a.column("step"), a.column("rel_l2"), a.column("seconds")) if step in b_at]
    if not rows:
        raise LdgmError(f"{args.report_a} and {args.report_b} share no logged step")
    header = ("step", "rel_l2_a", "rel_l2_b", "seconds_a", "seconds_b")
    if args.out:
        write_table(args.out, header, rows)
        print(f"wrote {args.out}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ldgm",
                                description="order-reduced residual learning for PDEs")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="train one configuration (per seed)")
    r.add_argument("--config", required=True)
    r.add_argument("--seed", type=int, default=None, help="override the config seed list")
    r.add_argument("--out", default=None)
    r.add_argument("--jobs", type=int, default=1)
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sweep", help="vary one numeric key across values")
    s.add_argument("--config", required=True)
    s.add_argument("--axis", required=True)
    s.add_argument("--values", required=True, help="comma-separated values")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_sweep)

    d = sub.add_parser("diagnose", help="derivative-scale experiment")
    d.add_argument("--out", default="runs/diagnose")
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(fn=cmd_diagnose)

    f = sub.add_parser("reference", help="build and persist the spectral reference field")
    f.add_argument("--epsilon", type=float, default=0.1)
    f.add_argument("--grid", type=int, default=128, help="grid points, 2 or more")
    f.add_argument("--dt", type=float, default=0.01)
    f.add_argument("--horizon", type=float, default=1.0)
    f.add_argument("--out", default="runs/reference.csv")
    f.set_defaults(fn=cmd_reference)

    c = sub.add_parser("compare",
                       help="side-by-side error/time table at the steps two reports share")
    c.add_argument("report_a")
    c.add_argument("report_b")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (LdgmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
