"""Correctness checks run outside the timed window.

Each check returns (ok, detail); a failed check counts as a failed
operation in the benchmark result.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ldgm.autodiff import Tape, backward
from ldgm.loss import dgm_loss, ldgm_loss
from ldgm.network import AnalyticNetwork, Network, init_xavier
from ldgm.ritz import drm_loss, ldrm_loss
from ldgm.sampling import SamplerConfig, draw_batch
from ldgm.system import get_problem, ldgm_system, rewrite_first_order

GRAD_TOL = 1e-5          # relative gap between tape gradient and central difference
ANNIHILATION_TOL = 1e-9  # criterion 2's bound on every loss component


def _first_batch_loss(cfg, spec, seed):
    """The workload's own loss on the batch its first stage trains on."""
    method = cfg.method
    if method in ("ldgm", "dgm"):
        sampler = cfg.sampler()
        batch = draw_batch(dataclasses.replace(sampler, seed=sampler.seed + seed), spec, 0)
        if method == "ldgm":
            form = ldgm_system(spec)
            return lambda bound: ldgm_loss(form, bound, batch)
        return lambda bound: dgm_loss(spec, bound, batch)
    rc = cfg.ritz()
    batch = draw_batch(SamplerConfig(interior=rc.interior, initial=0, boundary=rc.boundary,
                                     seed=rc.seed + seed), spec, 0)
    loss = ldrm_loss if method == "ldrm" else drm_loss
    return lambda bound: loss(spec, bound, batch, rc)


def gradient_check(cfg, seed: int, h: float = 1e-6):
    """Tape gradient of J_total against central differences at init.

    Checks the largest-gradient entry of the first, a middle and the last
    weight matrix.
    """
    spec = cfg.problem()
    net_cfg = cfg.network(spec)
    params = init_xavier(net_cfg, seed)
    loss_of = _first_batch_loss(cfg, spec, seed)

    def total(vec):
        p = params.copy()
        p.from_vector(vec)
        tape = Tape()
        bound = Network(net_cfg, p).bind(tape)
        return loss_of(bound).J_total, tape, bound

    vec = params.to_vector()
    out, tape, bound = total(vec)
    grads_by_id = backward(tape, out)
    grads = [grads_by_id[v.idx] for v in bound.param_vars]
    offsets = np.cumsum([0] + [a.size for a in params.arrays])
    weights = [i for i, a in enumerate(params.arrays) if a.ndim == 2]
    worst = 0.0
    for i in (weights[0], weights[len(weights) // 2], weights[-1]):
        j = int(np.argmax(np.abs(grads[i])))
        k = offsets[i] + j
        step = np.zeros_like(vec)
        step[k] = h
        fd = (float(total(vec + step)[0].value) - float(total(vec - step)[0].value)) / (2 * h)
        g = float(grads[i].ravel()[j])
        worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-12))
    return worst < GRAD_TOL, f"max relative gap {worst:.2e} (<{GRAD_TOL:g})"


def annihilation_check():
    """Closed-form mkdv and 5-d heat solutions zero both residual losses."""
    worst = 0.0
    for spec in (get_problem("mkdv"), get_problem("heat_nd", d=5)):
        chain = rewrite_first_order(spec)
        system_net = AnalyticNetwork([str(e) for e in chain.exact_outputs], spec.spatial_dim)
        strong_net = AnalyticNetwork([str(spec.exact_expr)], spec.spatial_dim)
        batch = draw_batch(SamplerConfig(seed=11), spec, stage=0)
        lb = ldgm_loss(chain, system_net.bind(Tape()), batch)
        db = dgm_loss(spec, strong_net.bind(Tape()), batch)
        for v in (lb.J_e, lb.J_i, lb.J_b, db.J_e, db.J_i, db.J_b):
            worst = max(worst, float(v.value))
    ok = math.isfinite(worst) and worst < ANNIHILATION_TOL
    return ok, f"max loss component {worst:.2e} (<{ANNIHILATION_TOL:g})"
