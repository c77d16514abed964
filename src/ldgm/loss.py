"""Residual losses over sampled batches, as tape-tracked scalars.

One assembly serves both residual methods: it evaluates a SystemForm on
the network, whether the form is an order-reduced rewrite (extra outputs,
low-order jets) or the strong form (one output, jets up to the PDE
order).  Each point set is walked once, to the jet orders its residuals
need.  Every term is a mean of squares over its batch, so totals are
batch-size invariant, and the total is their plain sum J_e + J_i + J_b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ShapeError, UnsupportedOrderError
from .network import TIME
from .sampling import SampleBatch
from .system import ProblemSpec, SystemForm, strong_form


@dataclass
class LossBreakdown:
    J_e: Var
    J_i: Var
    J_b: Var
    J_total: Var
    constraint_terms: dict


def _mse(v: Var) -> Var:
    return ad.mean(v * v)


class PointCtx:
    """Network outputs and their jets at one point set, from one walk.

    `orders` maps direction (spatial axis or TIME) to the jet order the
    residuals read there.  With `mirror_x` (a periodic boundary) the
    context also holds `.mirror`, the same walk at the mirror points.
    """

    def __init__(self, bound, x, t, orders, spatial_dim, mirror_x=None):
        walk = bound.forward_jets(x, t, orders)
        self.values = walk.values
        self.jets = walk.jets
        self.x = x
        self.t = t
        self.spatial_dim = spatial_dim
        self.mirror = (None if mirror_x is None
                       else PointCtx(bound, mirror_x, t, orders, spatial_dim))

    @property
    def size(self):
        return len(self.values)

    def out(self, i) -> Var:
        return self.values[i]

    def dt(self, i) -> Var:
        return self.jets[TIME][i].coeffs[1]

    def dx(self, i, axis=0, order=1) -> Var:
        jet = self.jets[axis][i]
        if jet.order < order:
            raise UnsupportedOrderError(
                f"direction {axis} was expanded to order {jet.order}, need {order}")
        return jet.derivative(order)


def ldgm_loss(system: SystemForm, bound, batch: SampleBatch) -> LossBreakdown:
    """Mean-square system residuals: evolution + constraints, initial, boundary."""
    spec = system.spec
    d = spec.spatial_dim
    if bound.output_dim != system.size:
        raise ShapeError(
            f"network has {bound.output_dim} outputs, roster needs {system.size}")

    ctx = PointCtx(bound, batch.interior_x, batch.interior_t, system.jet_orders, d)
    constraint_terms = {}
    J_e = _mse(system.evolution(ctx))
    for name, fn in system.constraints:
        term = _mse(fn(ctx))
        constraint_terms[name] = term
        J_e = J_e + term

    u0 = spec.initial(batch.initial_x)
    ictx = PointCtx(bound, batch.initial_x, np.zeros(len(batch.initial_x)), {}, d)
    J_i = _mse(ictx.out(0) - u0)

    periodic = spec.boundary.kind == "periodic"
    bctx = PointCtx(bound, batch.boundary_x, batch.boundary_t, system.boundary_orders, d,
                    mirror_x=batch.boundary_mirror_x if periodic else None)
    residuals = system.boundary(bctx)
    J_b = _mse(residuals[0])
    for r in residuals[1:]:
        J_b = J_b + _mse(r)

    return LossBreakdown(J_e, J_i, J_b, J_e + J_i + J_b, constraint_terms)


def dgm_loss(spec: ProblemSpec, bound, batch: SampleBatch) -> LossBreakdown:
    """Strong-form baseline: the same assembly on the one-variable system."""
    return ldgm_loss(strong_form(spec), bound, batch)
