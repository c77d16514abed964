"""Variational losses for the clamped fourth-order problem.

The split form trades the Laplacian for a divergence: with outputs
p = phi_1 and q = (phi_2..phi_{d+1}),

    J = |O| * mean[ 1/2 (div q)^2 - f p + ||grad p - q||^2 ]
      + lambda * |dO| * mean[ p^2 + (q.n)^2 ],

so only first derivatives of any output appear.  The baseline keeps the
Laplacian and therefore needs order-2 jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeError
from .loss import LossBreakdown, PointCtx
from .sampling import SampleBatch, SamplerConfig
from .sampling import draw_batch  # noqa: F401  (perfbench/spans.py wraps ldgm.ritz.draw_batch)
from .system import ProblemSpec


@dataclass(frozen=True)
class RitzConfig:
    penalty: float = 500.0     # boundary weight lambda
    interior: int = 400
    boundary: int = 100
    seed: int = 0

    def sampler(self) -> SamplerConfig:
        """The quadrature points' sampler; stationary problems draw no initial points."""
        return SamplerConfig(interior=self.interior, initial=0,
                             boundary=self.boundary, seed=self.seed)


def _measures(spec: ProblemSpec) -> tuple[float, float]:
    sides = np.array([b - a for a, b in spec.domain])
    volume = float(np.prod(sides))
    if spec.spatial_dim == 1:
        surface = 2.0
    else:
        surface = float(sum(2.0 * np.prod(np.delete(sides, ax))
                            for ax in range(spec.spatial_dim)))
    return volume, surface


def _breakdown(bound, J_e, J_b, lam: float) -> LossBreakdown:
    """J = J_e + lambda * J_b; there is no initial term."""
    return LossBreakdown(J_e, bound.tape.const(0.0), J_b, J_e + lam * J_b, {}, (1.0, 0.0, lam))


def ldrm_loss(spec: ProblemSpec, bound, batch: SampleBatch,
              cfg: RitzConfig) -> LossBreakdown:
    d = spec.spatial_dim
    if bound.output_dim != d + 1:
        raise ShapeError(f"split form needs {d + 1} outputs, got {bound.output_dim}")
    f = spec.params["source"](batch.interior_x)
    volume, surface = _measures(spec)

    ctx = PointCtx(bound, batch.interior_x, None, {i: 1 for i in range(d)}, d)
    div_q = ctx.dx(1, 0)
    for i in range(1, d):
        div_q = div_q + ctx.dx(1 + i, i)
    integrand = 0.5 * div_q * div_q - ctx.out(0) * f
    for i in range(d):
        gap = ctx.dx(0, i) - ctx.out(1 + i)
        integrand = integrand + gap * gap
    J_e = ad.mean(integrand) * volume

    bctx = PointCtx(bound, batch.boundary_x, None, {}, d)
    p = bctx.out(0)
    axes = batch.boundary_axis
    qn = bctx.out(1)
    if d > 1:
        # pick each point's normal component of q by masking on its face axis
        qn = qn * (axes == 0).astype(np.float64)
        for i in range(1, d):
            qn = qn + bctx.out(1 + i) * (axes == i).astype(np.float64)
    J_b = ad.mean(p * p + qn * qn) * surface

    return _breakdown(bound, J_e, J_b, cfg.penalty)


def drm_loss(spec: ProblemSpec, bound, batch: SampleBatch,
             cfg: RitzConfig) -> LossBreakdown:
    d = spec.spatial_dim
    if bound.output_dim != 1:
        raise ShapeError("baseline form needs a single output")
    f = spec.params["source"](batch.interior_x)
    volume, surface = _measures(spec)

    ctx = PointCtx(bound, batch.interior_x, None, {i: 2 for i in range(d)}, d)
    lap = ctx.dx(0, 0, order=2)
    for i in range(1, d):
        lap = lap + ctx.dx(0, i, order=2)
    integrand = 0.5 * lap * lap - ctx.out(0) * f
    J_e = ad.mean(integrand) * volume

    bctx = PointCtx(bound, batch.boundary_x, None, {i: 1 for i in range(d)}, d)
    p = bctx.out(0)
    axes = batch.boundary_axis
    dn = bctx.dx(0, 0, order=1) * (axes == 0).astype(np.float64)
    for i in range(1, d):
        dn = dn + bctx.dx(0, i, order=1) * (axes == i).astype(np.float64)
    J_b = ad.mean(p * p + dn * dn) * surface

    return _breakdown(bound, J_e, J_b, cfg.penalty)
