"""Residual losses over sampled batches, as tape-tracked scalars.

One assembly serves both residual methods: it evaluates a SystemForm on
the network, whether the form is an order-reduced rewrite (extra outputs,
low-order jets) or the strong form (one output, jets up to the PDE
order).  The interior points are walked to the jet orders the evolution
and constraints need, and the other point sets once per set of jet orders
their residuals need (initial and value-only boundary points together, a
periodic boundary with its mirror points).  Every term is a mean of
squares over its batch, so totals are batch-size invariant, and the total
is their plain sum J_e + J_i + J_b.
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


def _walk_by_orders(bound, sets) -> list:
    """One walk per distinct set of jet orders over the (x, t, orders) sets.

    Returns each set's NetworkOutput in the order given.  An order-0
    direction is the value alone, so it does not keep two walks apart.
    """
    groups: dict = {}
    for i, (_, _, orders) in enumerate(sets):
        groups.setdefault(frozenset((dd, od) for dd, od in orders.items() if od), []).append(i)
    walks = [None] * len(sets)
    for members in groups.values():
        orders = {}
        for i in members:
            orders.update(sets[i][2])
        for i, walk in zip(members, bound.forward_sets([sets[i][:2] for i in members], orders)):
            walks[i] = walk
    return walks


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

    orders = system.boundary_orders
    sets = [(batch.initial_x, np.zeros(len(batch.initial_x)), {}),
            (batch.boundary_x, batch.boundary_t, orders)]
    if spec.boundary.kind == "periodic":
        sets.append((batch.boundary_mirror_x, batch.boundary_t, orders))
    iwalk, bwalk, *mirror = _walk_by_orders(bound, sets)
    J_i = _mse(iwalk.out(0) - spec.initial(batch.initial_x))
    if mirror:
        bwalk.mirror = mirror[0]
    residuals = system.boundary(bwalk)
    J_b = _mse(residuals[0])
    for r in residuals[1:]:
        J_b = J_b + _mse(r)

    return LossBreakdown(J_e, J_i, J_b, J_e + J_i + J_b, constraint_terms)


def dgm_loss(spec: ProblemSpec, bound, batch: SampleBatch) -> LossBreakdown:
    """Strong-form baseline: the same assembly on the one-variable system."""
    return ldgm_loss(strong_form(spec), bound, batch)
