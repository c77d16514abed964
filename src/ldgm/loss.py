"""Residual losses over sampled batches, as tape-tracked scalars.

One assembly serves both residual methods: it evaluates a SystemForm on
the network, whether the form is an order-reduced rewrite (extra outputs,
low-order jets) or the strong form (one output, jets up to the PDE
order).  One network walk carries every point set, each to its own jet
orders: the interior points to those the evolution and constraints need,
the initial points by value alone, the boundary points to those its
residuals read.  Every loss returns one table of its terms by name, each a
mean of squares over its batch (so batch-size invariant), and
`LossBreakdown` folds the totals from it.
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
    """One loss as an ordered table of `(name, group, term)`, group "e", "i" or "b".

    Each group folds left to right into J_e, J_i or J_b, once, here (0.0 if it
    has no terms); J_total is J_e + J_i + J_b unless the loss passes its own.
    """

    terms: list
    J_total: Var | None = None

    def __post_init__(self):
        for group in "eib":
            parts = [term for _, g, term in self.terms if g == group]
            setattr(self, "J_" + group, sum(parts[1:], parts[0]) if parts else 0.0)
        if self.J_total is None:
            self.J_total = self.J_e + self.J_i + self.J_b

    def first_nonfinite(self) -> str:
        """The first term in fold order whose value is not finite; J_total if none is."""
        return next((name for name, _, t in self.terms if not np.isfinite(t.value)), "J_total")


def _mse(v: Var) -> Var:
    return ad.mean(v * v)


def ldgm_loss(system: SystemForm, bound, batch: SampleBatch) -> LossBreakdown:
    """Mean-square residual terms: evolution, each constraint, initial, each boundary residual."""
    spec = system.spec
    if bound.output_dim != system.size:
        raise ShapeError(
            f"network has {bound.output_dim} outputs, roster needs {system.size}")

    walk, iwalk, bwalk = bound.forward_sets([
        (batch.interior_x, batch.interior_t, system.jet_orders),
        (batch.initial_x, np.zeros(len(batch.initial_x)), {}),
        (batch.boundary_x, batch.boundary_t, system.boundary_orders)])
    terms = [("evolution", "e", _mse(system.evolution(walk)))]
    terms += [(name, "e", _mse(fn(walk))) for name, fn in system.constraints]
    terms.append(("initial", "i", _mse(iwalk.out(0) - spec.initial(batch.initial_x))))
    terms += [(f"boundary[{k}]", "b", _mse(r)) for k, r in enumerate(system.boundary(bwalk))]
    return LossBreakdown(terms)


def dgm_loss(spec: ProblemSpec, bound, batch: SampleBatch) -> LossBreakdown:
    """Strong-form baseline: the same assembly on the one-variable system."""
    return ldgm_loss(strong_form(spec), bound, batch)
