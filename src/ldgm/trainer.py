"""Two-level training loop: sampling stages times optimizer steps.

Each stage draws a fresh batch and runs a fixed number of Adam steps on
it.  At a fixed BLAS thread count every run is a pure function of
(seed, configs): the sampler stream, the initialization and the update
rule are all deterministic, and the report's numeric columns (everything
but wall-clock) reproduce exactly.  The thread count is not part of a
run's inputs, and a change of it changes the bits (beam's criterion 3 run
ends at rel_l2 0.0011 with one OpenBLAS thread and 0.0065 with two).
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import metrics, ritz
from .autodiff import Tape, backward
from .errors import ConfigError, LdgmError, NonFiniteLossError
from .loss import dgm_loss, ldgm_loss
from .network import Network, NetworkConfig, ParameterSet, init_xavier
from .ritz import RitzConfig
from .sampling import SamplerConfig, draw_batch
from .system import ProblemSpec, ldgm_system


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    stages: int = 1000            # s_1
    steps_per_stage: int = 5      # s_2
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    schedule: Optional[str] = None  # None | "piecewise_log"
    log_every: int = 1

    def rate_at(self, step: int) -> float:
        if self.schedule == "piecewise_log":
            # 10^-floor(log10 k), clipped so it never exceeds the base rate
            return min(self.learning_rate, 10.0 ** (-math.floor(math.log10(max(step, 1)))))
        return self.learning_rate


class AdamState:
    """First/second moment accumulators, flat in parameter order, plus the update counter."""

    def __init__(self, params: ParameterSet):
        self.m = np.zeros(params.count)
        self.v = np.zeros(params.count)
        self.step = 0


def adam_step(params: ParameterSet, grads, state: AdamState, lr: float,
              beta1=0.9, beta2=0.999, eps=1e-8) -> tuple[ParameterSet, AdamState]:
    """Standard bias-corrected update over one flat vector; params and state advance.

    Elementwise it is the per-array update, bit for bit.  The parameter
    arrays are replaced by fresh ones, so arrays taken out of `params`
    before the step keep their values.
    """
    state.step += 1
    t = state.step
    g = np.concatenate([np.ravel(a) for a in grads])
    if not np.all(np.isfinite(g)):
        i = next(i for i, a in enumerate(grads) if not np.all(np.isfinite(a)))
        raise NonFiniteLossError(t, f"gradient of {params.names[i]}")
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    state.m = beta1 * state.m + (1.0 - beta1) * g
    state.v = beta2 * state.v + (1.0 - beta2) * (g * g)
    params.from_vector(params.to_vector() - lr * (state.m / c1) / (np.sqrt(state.v / c2) + eps))
    return params, state


@dataclass
class TrainReport:
    columns = ("step", "J_total", "J_e", "J_i", "J_b", "rel_l2", "seconds")
    rows: list[tuple] = field(default_factory=list)

    def log(self, step, j_total, j_e, j_i, j_b, rel_l2, seconds):
        self.rows.append((step, j_total, j_e, j_i, j_b, rel_l2, seconds))

    @property
    def final_rel_l2(self) -> float:
        return self.column("rel_l2")[-1] if self.rows else math.nan

    def tail_rel_l2(self) -> tuple[float, float]:
        """Min and median `rel_l2` over the last 10% of rows (at least one row)."""
        if not self.rows:
            return math.nan, math.nan
        tail = self.column("rel_l2")[-max(1, len(self.rows) // 10):]
        return float(np.min(tail)), float(np.median(tail))

    def column(self, name: str) -> list:
        """Every row's value of one column, looked up by its header name."""
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self, path) -> None:
        metrics.write_table(path, self.columns, self.rows)

    @classmethod
    def from_csv(cls, path) -> "TrainReport":
        rep = cls()
        with open(path, newline="") as f:
            r = csv.reader(f)
            header = tuple(next(r, ()))
            if header != cls.columns:
                raise LdgmError(f"{path}: report header {header} is not {cls.columns}")
            for row in r:
                rep.rows.append((int(row[0]),) + tuple(float(v) for v in row[1:]))
        return rep


def _run_stage(net: Network, batch, loss_fn, cfg: TrainConfig, state: AdamState) -> tuple:
    """One stage's Adam steps on one batch; the last step's J_total, J_e, J_i, J_b.

    The loss is recorded once, on a fresh tape, and every step after the
    first replays that tape at the parameters Adam produced, since only
    those differ within a stage.  Each step then differentiates it with
    `backward`.  The tape is freed on return, before the next stage records
    its own.
    """
    tape = Tape()
    bound = net.bind(tape)
    lb = loss_fn(bound, batch)
    for k in range(cfg.steps_per_stage):
        if k:
            tape.replay(net.params.arrays)
        if not math.isfinite(float(lb.J_total.value)):
            raise NonFiniteLossError(state.step + 1, "loss")
        grads_by_id = backward(tape, lb.J_total)
        grads = [grads_by_id[v.idx] for v in bound.param_vars]
        adam_step(net.params, grads, state, cfg.rate_at(state.step + 1),
                  cfg.beta1, cfg.beta2, cfg.epsilon)
    return tuple(float(v.value) for v in (lb.J_total, lb.J_e, lb.J_i, lb.J_b))


def train_loop(net: Network, draw, loss_fn, cfg: TrainConfig,
               metric: Optional[Callable] = None) -> tuple[TrainReport, ParameterSet]:
    """Generic engine behind `train`.

    draw(stage) -> batch; loss_fn(bound_net, batch) -> LossBreakdown;
    metric(net) -> relative error for the report (may be None).
    """
    report = TrainReport()
    state = AdamState(net.params)
    t0 = time.perf_counter()
    for stage in range(cfg.stages):
        last = _run_stage(net, draw(stage), loss_fn, cfg, state)
        if stage % cfg.log_every == 0 or stage == cfg.stages - 1:
            rel = metric(net) if metric is not None else math.nan
            report.log(state.step, *last, rel, time.perf_counter() - t0)
    return report, net.params


@dataclass(frozen=True)
class Method:
    """One residual method: its output count, its loss and where its points come from.

    `loss(spec, ritz_cfg)` returns loss_fn(bound, batch) -> LossBreakdown.  A
    variational method draws its quadrature points from the `ritz.*` keys.
    The losses are looked up by module attribute at call time, so a wrapper
    installed on `trainer.ldgm_loss` or `ritz.ldrm_loss` sees every call.
    """

    outputs: Callable[[ProblemSpec], int]
    loss: Callable
    variational: bool = False


def _ldgm(spec: ProblemSpec, ritz_cfg: RitzConfig):
    form = ldgm_system(spec)
    return lambda bound, batch: ldgm_loss(form, bound, batch)


METHODS = {
    "ldgm": Method(lambda spec: ldgm_system(spec).size, _ldgm),
    "dgm": Method(lambda spec: 1,
                  lambda spec, rc: lambda bound, batch: dgm_loss(spec, bound, batch)),
    "ldrm": Method(lambda spec: spec.spatial_dim + 1,
                   lambda spec, rc: lambda bound, batch: ritz.ldrm_loss(spec, bound, batch, rc),
                   variational=True),
    "drm": Method(lambda spec: 1,
                  lambda spec, rc: lambda bound, batch: ritz.drm_loss(spec, bound, batch, rc),
                  variational=True),
}


def method_entry(method: str, spec: Optional[ProblemSpec] = None) -> Method:
    """The method's table entry; given a problem, first check that the two fit.

    A variational method needs a stationary problem and a residual method
    an evolution problem; a mismatch is a config error before any walk.
    """
    if method not in METHODS:
        raise ConfigError(["method"], f"method must be one of {tuple(METHODS)}, got {method!r}")
    entry = METHODS[method]
    if spec is not None and entry.variational != spec.stationary:
        need = "a stationary" if entry.variational else "an evolution"
        kind = "stationary" if spec.stationary else "an evolution problem"
        raise ConfigError(["method", "problem.name"],
                          f"method {method!r} needs {need} problem; {spec.name!r} is {kind}")
    return entry


def default_network_config(spec: ProblemSpec, method: str,
                           hidden_layers=3, width=50, activation="tanh") -> NetworkConfig:
    return NetworkConfig(
        input_dim=spec.spatial_dim + (0 if spec.stationary else 1),
        hidden_layers=hidden_layers, width=width,
        output_dim=method_entry(method, spec).outputs(spec),
        hidden_activation=activation)


def train(spec: ProblemSpec, method: str, net_cfg: NetworkConfig,
          sampler_cfg: SamplerConfig, train_cfg: TrainConfig, seed: int = 0,
          truth: Optional[Callable] = None,
          ritz_cfg: RitzConfig = RitzConfig()) -> tuple[TrainReport, ParameterSet]:
    """Run the nested stage/step loop for one residual method.

    `truth(x, t) -> values` enables the relative-error column; for problems
    with a closed form it defaults to the exact solution.  Every method draws
    its points from `sampler_cfg`; only the variational losses read
    `ritz_cfg`, and only its penalty.
    """
    loss_fn = method_entry(method, spec).loss(spec, ritz_cfg)
    net = Network(net_cfg, init_xavier(net_cfg, seed))

    if truth is None and spec.solution is not None:
        truth = spec.exact
    metric = None
    if truth is not None:
        grid = metrics.evaluation_grid(spec)
        truth_vals = truth(grid.x, grid.t)
        metric = lambda n: metrics.network_relative_l2(n, grid, truth_vals)  # noqa: E731

    effective_sampler = dataclasses.replace(sampler_cfg, seed=sampler_cfg.seed + seed)
    draw = lambda stage: draw_batch(effective_sampler, spec, stage)  # noqa: E731
    return train_loop(net, draw, loss_fn, train_cfg, metric)


def success_rate(spec: ProblemSpec, method: str, net_cfg: NetworkConfig,
                 sampler_cfg: SamplerConfig, train_cfg: TrainConfig,
                 seeds, threshold: float = 0.01) -> tuple[float, list[float]]:
    """Fraction of seeds whose final relative error beats the threshold.

    Diverging runs (non-finite loss) count as failures, not crashes.
    """
    finals = []
    for seed in seeds:
        try:
            report, _ = train(spec, method, net_cfg, sampler_cfg, train_cfg, seed=seed)
            finals.append(report.final_rel_l2)
        except NonFiniteLossError:
            finals.append(math.inf)
    ok = sum(1 for v in finals if v < threshold)
    return ok / len(finals), finals
