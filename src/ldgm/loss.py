"""Residual losses over sampled batches, as tape-tracked scalars.

One assembly serves both residual methods: it evaluates a SystemForm on
the network, whether the form is an order-reduced rewrite (extra outputs,
low-order jets) or the strong form (one output, jets up to the PDE
order).  The interior points are walked to the jet orders the evolution
and constraints need.  The initial points are read by value alone, so they
share one walk with a boundary read by value alone; a boundary that reads
jets gets a walk of its own.  Every term is a mean of squares over its
batch, so totals are batch-size invariant, and the total is their plain
sum J_e + J_i + J_b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ShapeError
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


def ldgm_loss(system: SystemForm, bound, batch: SampleBatch) -> LossBreakdown:
    """Mean-square system residuals: evolution + constraints, initial, boundary."""
    spec = system.spec
    if bound.output_dim != system.size:
        raise ShapeError(
            f"network has {bound.output_dim} outputs, roster needs {system.size}")

    walk = bound.forward_jets(batch.interior_x, batch.interior_t, system.jet_orders)
    constraint_terms = {}
    J_e = _mse(system.evolution(walk))
    for name, fn in system.constraints:
        term = _mse(fn(walk))
        constraint_terms[name] = term
        J_e = J_e + term

    initial = (batch.initial_x, np.zeros(len(batch.initial_x)))
    boundary = (batch.boundary_x, batch.boundary_t)
    orders = system.boundary_orders
    if any(orders.values()):  # the boundary reads jets, the initial points values alone
        [iwalk], [bwalk] = bound.forward_sets([initial]), bound.forward_sets([boundary], orders)
    else:
        iwalk, bwalk = bound.forward_sets([initial, boundary], orders)
    J_i = _mse(iwalk.out(0) - spec.initial(batch.initial_x))
    residuals = system.boundary(bwalk)
    J_b = _mse(residuals[0])
    for r in residuals[1:]:
        J_b = J_b + _mse(r)

    return LossBreakdown(J_e, J_i, J_b, J_e + J_i + J_b, constraint_terms)


def dgm_loss(spec: ProblemSpec, bound, batch: SampleBatch) -> LossBreakdown:
    """Strong-form baseline: the same assembly on the one-variable system."""
    return ldgm_loss(strong_form(spec), bound, batch)
