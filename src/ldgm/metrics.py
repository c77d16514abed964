"""Error measurement and the derivative-scale diagnostic.

Evaluation grids are fixed per experiment and independent of training
samples.  Every grid is its spatial points x its times, held as those two
factors: evenly spaced points in one dimension, Monte-Carlo points (own
fixed seed) in higher dimensions, and 11 evenly spaced times for an
evolution problem.  Its rows are time-major: every point at the first
time, then every point at the next.  A stationary grid has no times, and
its rows are its points alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import Tape
from .errors import UndefinedMetricError
from .network import Network, NetworkConfig, init_xavier
from .system import ProblemSpec

METRIC_SEED = 90210  # separate from every training stream


@dataclass
class EvaluationGrid:
    """Every spatial point at every time, or the points alone when there are no times.

    Row j*n + i is (points[i], times[j]) for n points, so `x` and `t`
    (built on each read, never stored) are `np.tile(points, (nt, 1))` and
    `np.repeat(times, n)`: n*d + nt numbers where the rows take n*nt*(d+1).
    """
    points: np.ndarray            # (n, d)
    times: Optional[np.ndarray]   # (nt,), or None for a stationary problem

    def __len__(self) -> int:
        return len(self.points) * (1 if self.times is None else len(self.times))

    @property
    def x(self) -> np.ndarray:
        return self.points if self.times is None else np.tile(self.points, (len(self.times), 1))

    @property
    def t(self) -> Optional[np.ndarray]:
        return None if self.times is None else np.repeat(self.times, len(self.points))

    def rows(self, s: int, e: int):
        """Rows s..e-1 (up to the last) as (x, t): the same values as those rows of `x` and `t`."""
        if self.times is None:
            return self.points[s:e], None
        r = np.arange(s, min(e, len(self)))
        n = len(self.points)
        return self.points[r % n], self.times[r // n]


def evaluation_grid(spec: ProblemSpec, nx: int = 256, n_mc: int = 10_000) -> EvaluationGrid:
    """nx evenly spaced points in one dimension, n_mc Monte-Carlo points (METRIC_SEED)
    in more; for an evolution problem, 11 evenly spaced times from 0 to its horizon."""
    d = spec.spatial_dim
    lo, hi = np.array(spec.domain).T
    if d == 1:
        points = np.linspace(lo[0], hi[0], nx).reshape(-1, 1)
    else:
        points = lo + (hi - lo) * np.random.default_rng(METRIC_SEED).uniform(size=(n_mc, d))
    times = None if spec.stationary else np.linspace(0.0, spec.horizon, 11)
    return EvaluationGrid(points, times)


def relative_l2(candidate, truth) -> float:
    """||candidate - truth|| / ||truth|| in the discrete norm of the grid."""
    c = np.asarray(candidate, dtype=np.float64).ravel()
    u = np.asarray(truth, dtype=np.float64).ravel()
    denom = np.linalg.norm(u)
    if denom == 0.0:
        raise UndefinedMetricError("relative error against a zero field")
    return float(np.linalg.norm(c - u) / denom)


# The chunking fixes the bits: a product's rounding depends on its row count.
# A grid of up to WHOLE_GRID points (a 1-d grid has 2816) is walked whole, as
# the recorded walk did, so its products keep that walk's row counts.  A larger
# grid (heat5d's 110000 points at width 100) goes in EVAL_CHUNK-point chunks,
# whose values keep the bits of its earlier 8192-point chunks.  Within a
# training run the layer arrays (ch_dgm's 1.1 MB, heat5d's 800 KB) stay on the
# heap, whose thresholds `trainer.train` pins.  A chunk's inputs are built as
# it is walked and only its column 0 is kept, so neither its rows nor its head
# (1024 x 6 on heat5d's ldgm net) outlive it.
WHOLE_GRID = 8192
EVAL_CHUNK = 1024


def network_values(net: Network, grid: EvaluationGrid) -> np.ndarray:
    """Output 0 (u) over the grid, by the tape-free walk `net.evaluate`, chunk by chunk."""
    n = len(grid)
    chunk = n if n <= WHOLE_GRID else EVAL_CHUNK
    values = np.empty(n)
    for s in range(0, n, chunk):
        values[s:s + chunk] = net.evaluate(*grid.rows(s, s + chunk))[:, 0]
    return values


def network_relative_l2(net: Network, grid: EvaluationGrid, truth_vals) -> float:
    return relative_l2(network_values(net, grid), truth_vals)


# -- derivative-scale diagnostic ---------------------------------------------


@dataclass
class DerivativeScaleReport:
    skipped: bool
    fit_rel_l2: float
    rows: list = field(default_factory=list)  # (order, rel discrepancy vs ||D^k u||)

    def discrepancy(self, order: int) -> float:
        return dict(self.rows)[order]


def fit_sine_network(seed: int = 0) -> Network:
    """Regress a stationary 3x32 tanh network onto sin(pi x) at 256 points of [-1, 1].

    At most 4000 Adam steps at lr 2e-3; it stops early once the fit's
    relative L2 error is below 5e-3.
    """
    from . import autodiff as ad
    from .trainer import AdamState, adam_step

    cfg = NetworkConfig(input_dim=1, hidden_layers=3, width=32, output_dim=1)
    net = Network(cfg, init_xavier(cfg, seed))
    xs = np.linspace(-1.0, 1.0, 256).reshape(-1, 1)
    target = np.sin(np.pi * xs[:, 0])
    state = AdamState(net.params)
    # one batch for every step: record the loss once, replay it at each new point
    tape = Tape()
    bound = net.bind(tape)
    r = bound.forward(xs).out(0) - target
    loss = ad.mean(r * r)
    for step in range(4000):
        if step:
            tape.replay(net.params.arrays)
        grads = ad.backward(tape, loss)
        adam_step(net.params, [grads[v.idx] for v in bound.param_vars], state, 2e-3)
        if step % 100 == 0 and math.sqrt(float(loss.value)) / math.sqrt(0.5) < 5e-3:
            break
    return net


def derivative_scale_diagnostic(net: Optional[Network] = None,
                                seed: int = 0) -> DerivativeScaleReport:
    """Per-order discrepancy ||D^k phi - D^k u|| / ||D^k u|| for u = sin(pi x),
    k = 1..4, at 512 points of [-1, 1].

    The network must first approximate u itself to relative L2 error 0.01;
    otherwise the diagnostic is marked skipped rather than reported.
    """
    if net is None:
        net = fit_sine_network(seed=seed)
    xs = np.linspace(-1.0, 1.0, 512).reshape(-1, 1)
    out = net.bind(Tape()).forward_jets(xs, None, {0: 4})
    fit = relative_l2(out.out(0).value, np.sin(np.pi * xs[:, 0]))
    if fit >= 0.01:
        return DerivativeScaleReport(skipped=True, fit_rel_l2=fit)

    report = DerivativeScaleReport(skipped=False, fit_rel_l2=fit)
    for order in range(1, 5):
        d_phi = out.dx(0, 0, order).value
        # d^k/dx^k sin(pi x): cycle sin -> cos -> -sin -> -cos, scaled pi^k
        phase = [np.sin, np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z)][order % 4]
        d_u = np.pi ** order * phase(np.pi * xs[:, 0])
        report.rows.append((order, relative_l2(d_phi, d_u)))
    return report


def write_table(path, header, rows) -> None:
    """A CSV table: the header row, then one row per entry."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
