"""Residual losses over sampled batches, as tape-tracked scalars.

One assembly serves both residual methods: it evaluates a SystemForm on
the network, whether the form is an order-reduced rewrite (extra outputs,
low-order jets) or the strong form (one output, jets up to the PDE
order).  One network walk carries every point set, each to its own jet
orders: the interior points to those the evolution and constraints need,
the initial points by value alone, the boundary points to those its
residuals read.  Every term is a mean of squares over its batch, so totals
are batch-size invariant, and the total is their plain sum J_e + J_i + J_b.
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

    walk, iwalk, bwalk = bound.forward_sets([
        (batch.interior_x, batch.interior_t, system.jet_orders),
        (batch.initial_x, np.zeros(len(batch.initial_x)), {}),
        (batch.boundary_x, batch.boundary_t, system.boundary_orders)])
    constraint_terms = {}
    J_e = _mse(system.evolution(walk))
    for name, fn in system.constraints:
        term = _mse(fn(walk))
        constraint_terms[name] = term
        J_e = J_e + term

    J_i = _mse(iwalk.out(0) - spec.initial(batch.initial_x))
    residuals = system.boundary(bwalk)
    J_b = sum(map(_mse, residuals[1:]), _mse(residuals[0]))

    return LossBreakdown(J_e, J_i, J_b, J_e + J_i + J_b, constraint_terms)


def dgm_loss(spec: ProblemSpec, bound, batch: SampleBatch) -> LossBreakdown:
    """Strong-form baseline: the same assembly on the one-variable system."""
    return ldgm_loss(strong_form(spec), bound, batch)
