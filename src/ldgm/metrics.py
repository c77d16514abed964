"""Error measurement and the derivative-scale diagnostic.

Evaluation grids are fixed per experiment and independent of training
samples: a tensor-product (x, t) grid in one dimension, Monte-Carlo
spatial points (own fixed seed) in higher dimensions.
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
    x: np.ndarray                 # (P, d)
    t: Optional[np.ndarray]       # (P,) or None for stationary problems
    shape: Optional[tuple] = None  # (nx, nt) for 1-d tensor grids


def evaluation_grid(spec: ProblemSpec, nx: int = 256, nt: int = 11,
                    n_mc: int = 10_000, metric_seed: int = METRIC_SEED) -> EvaluationGrid:
    d = spec.spatial_dim
    if d == 1:
        lo, hi = spec.domain[0]
        xs = np.linspace(lo, hi, nx)
        if spec.stationary:
            return EvaluationGrid(xs.reshape(-1, 1), None, (nx,))
        ts = np.linspace(0.0, spec.horizon, nt)
        X, T = np.meshgrid(xs, ts, indexing="ij")
        return EvaluationGrid(X.reshape(-1, 1), T.ravel(), (nx, nt))
    rng = np.random.default_rng(metric_seed)
    lo = np.array([a for a, _ in spec.domain])
    hi = np.array([b for _, b in spec.domain])
    pts = lo + (hi - lo) * rng.uniform(size=(n_mc, d))
    if spec.stationary:
        return EvaluationGrid(pts, None)
    ts = np.linspace(0.0, spec.horizon, nt)
    x = np.tile(pts, (nt, 1))
    t = np.repeat(ts, n_mc)
    return EvaluationGrid(x, t)


def relative_l2(candidate, truth) -> float:
    """||candidate - truth|| / ||truth|| in the discrete norm of the grid."""
    c = np.asarray(candidate, dtype=np.float64).ravel()
    u = np.asarray(truth, dtype=np.float64).ravel()
    denom = np.linalg.norm(u)
    if denom == 0.0:
        raise UndefinedMetricError("relative error against a zero field")
    return float(np.linalg.norm(c - u) / denom)


def network_values(net: Network, grid: EvaluationGrid, output: int = 0,
                   chunk: int = 8192) -> np.ndarray:
    """Plain forward evaluation of one output over the grid, chunked."""
    vals = []
    n = grid.x.shape[0]
    for s in range(0, n, chunk):
        tape = Tape()
        out = net.bind(tape).forward(grid.x[s:s + chunk],
                                     None if grid.t is None else grid.t[s:s + chunk])
        vals.append(out.values[output].value)
    return np.concatenate(vals)


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


def fit_sine_network(width: int = 32, hidden_layers: int = 3, seed: int = 0,
                     steps: int = 4000, lr: float = 2e-3, n_train: int = 256,
                     stop_below: float = 5e-3) -> Network:
    """Regress a stationary tanh network onto sin(pi x) on [-1, 1]."""
    from . import autodiff as ad
    from .trainer import AdamState, adam_step

    cfg = NetworkConfig(input_dim=1, hidden_layers=hidden_layers, width=width,
                        output_dim=1)
    net = Network(cfg, init_xavier(cfg, seed))
    xs = np.linspace(-1.0, 1.0, n_train).reshape(-1, 1)
    target = np.sin(np.pi * xs[:, 0])
    state = AdamState(net.params)
    # one batch for every step: record the loss once, replay it at each new point
    tape = Tape()
    bound = net.bind(tape)
    r = bound.forward(xs).values[0] - target
    loss = ad.mean(r * r)
    schedule = ad.Schedule(tape, loss)
    for step in range(steps):
        if step:
            schedule.replay(net.params.arrays)
        grads = schedule.gradients()
        adam_step(net.params, [grads[v.idx] for v in bound.param_vars], state, lr)
        if step % 100 == 0 and math.sqrt(float(loss.value)) / math.sqrt(0.5) < stop_below:
            break
    return net


def derivative_scale_diagnostic(net: Optional[Network] = None, seed: int = 0,
                                fit_threshold: float = 0.01, max_order: int = 4,
                                n_eval: int = 512) -> DerivativeScaleReport:
    """Per-order discrepancy ||D^k phi - D^k u|| / ||D^k u|| for u = sin(pi x).

    The network must first approximate u itself to the stated threshold;
    otherwise the diagnostic is marked skipped rather than reported.
    """
    if net is None:
        net = fit_sine_network(seed=seed)
    xs = np.linspace(-1.0, 1.0, n_eval).reshape(-1, 1)
    tape = Tape()
    out = net.bind(tape).forward_with_derivatives(xs, None, directions=[0],
                                                  order=max_order)
    phi = out.values[0].value
    fit = relative_l2(phi, np.sin(np.pi * xs[:, 0]))
    if fit >= fit_threshold:
        return DerivativeScaleReport(skipped=True, fit_rel_l2=fit)

    report = DerivativeScaleReport(skipped=False, fit_rel_l2=fit)
    jet = out.jets[0][0]
    for order in range(1, max_order + 1):
        d_phi = jet.derivative(order).value
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
