"""Variational losses for the clamped fourth-order problem.

Both are one energy assembly on a slot table (see `system`), which gives
the Laplacian and the normal derivative through a `DerivativeView`.  The
split form trades the Laplacian for a divergence: on the first-order
roster p = phi_1, q = (phi_2..phi_{d+1}) with q_i = d p/d x_i,

    J = |O| * mean[ 1/2 (div q)^2 - f p + ||grad p - q||^2 ]
      + lambda * |dO| * mean[ p^2 + (q.n)^2 ],

so only first derivatives of any output appear.  The baseline is the
table ((0, 0),): it keeps the Laplacian of p and needs order-2 jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeError
from .loss import LossBreakdown
from .sampling import SampleBatch
from .sampling import draw_batch  # noqa: F401  (perfbench/spans.py wraps ldgm.ritz.draw_batch)
from .system import DerivativeView, ProblemSpec, gap, gradient_slots, slot_jet_orders


@dataclass(frozen=True)
class RitzConfig:
    penalty: float = 500.0     # boundary weight lambda
    # copies of sampler.* (`ExperimentConfig.ritz`) for the benchmark's gate; the losses
    # read only the penalty
    interior: int = 400
    boundary: int = 100
    seed: int = 0


def _measures(spec: ProblemSpec) -> tuple[float, float]:
    sides = np.array([b - a for a, b in spec.domain])
    # in 1-d, np.prod of no sides is 1: the surface is the two end points
    surface = sum(2.0 * np.prod(np.delete(sides, ax)) for ax in range(spec.spatial_dim))
    return float(np.prod(sides)), float(surface)


def _energy(spec: ProblemSpec, bound, batch: SampleBatch, cfg: RitzConfig,
            slots: tuple) -> LossBreakdown:
    """J = J_e + lambda * J_b on the roster `slots` names: the terms `energy` and `boundary`."""
    d = spec.spatial_dim
    if bound.output_dim != len(slots):
        raise ShapeError(f"roster needs {len(slots)} outputs, got {bound.output_dim}")
    f = spec.source(batch.interior_x)
    volume, surface = _measures(spec)

    walk, bwalk = bound.forward_sets([
        (batch.interior_x, None, slot_jet_orders(slots, [(2, i) for i in range(d)])),
        (batch.boundary_x, None, slot_jet_orders(slots, [(1, i) for i in range(d)]))])
    lap = DerivativeView(walk, slots).lap()
    integrand = 0.5 * lap * lap - walk.out(0) * f
    for i in range(1, len(slots)):
        g = gap(walk, slots, i)
        integrand = integrand + g * g
    J_e = ad.mean(integrand) * volume

    view = DerivativeView(bwalk, slots)
    dn = view.d(1, 0)
    if d > 1:
        # pick each point's normal derivative by masking on its face axis
        axes = batch.boundary_axis
        dn = dn * (axes == 0).astype(np.float64)
        for i in range(1, d):
            dn = dn + view.d(1, i) * (axes == i).astype(np.float64)
    p = bwalk.out(0)
    J_b = ad.mean(p * p + dn * dn) * surface

    return LossBreakdown([("energy", "e", J_e), ("boundary", "b", J_b)],
                         J_total=J_e + cfg.penalty * J_b)


def ldrm_loss(spec: ProblemSpec, bound, batch: SampleBatch,
              cfg: RitzConfig) -> LossBreakdown:
    """Split form on the first-order roster (p, q)."""
    return _energy(spec, bound, batch, cfg, gradient_slots(spec.spatial_dim))


def drm_loss(spec: ProblemSpec, bound, batch: SampleBatch,
             cfg: RitzConfig) -> LossBreakdown:
    """Strong baseline on the roster (p,)."""
    return _energy(spec, bound, batch, cfg, ((0, 0),))
