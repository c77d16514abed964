"""PDE problem registry and order-reduction rewrites.

A ProblemSpec describes one initial boundary value problem
    u_t = F(u, Du, ..., D^k u)
through a callable `rhs` that reads derivatives from a view, so the same
definition serves the order-reduced roster (intermediate variables
approximated by extra network outputs), the strong form (derivatives from
high-order jets) and an analytic solution for exactness checks.

A SystemForm is one concrete rewrite.  Its slot table names each roster
output as a derivative of u: slot i holds the (axis, order) derivative.
Every residual reads a walk through the `network.NetworkOutput` that the
walk returned, and u's derivatives through one `DerivativeView` on that
table: a derivative with a slot is that output, any other is the jet of
the slot holding the nearest lower order on the same axis.  The first-order
rewrites then need first derivatives of roster variables only; the strong
form is the table ((0, 0),), every derivative from jets of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import OrderError, ShapeError, UnavailableError
from .network import TIME


@dataclass(frozen=True)
class BoundaryCond:
    """Boundary targets as (derivative order, data) pairs.

    Dirichlet penalizes the listed derivative orders of u against their
    data, Neumann penalizes derivative variables, periodic pairs opposite
    faces (targets ignored).  Data is a constant or a callable g(x, t).
    """

    kind: str
    targets: tuple = ()

    def data(self, i, x, t):
        g = self.targets[i][1]
        if callable(g):
            return np.asarray(g(x, t), dtype=np.float64)
        return np.full(x.shape[0], float(g))


@dataclass
class ProblemSpec:
    name: str
    spatial_dim: int
    domain: tuple[tuple[float, float], ...]
    horizon: Optional[float]
    pde_order: int
    rhs: Optional[Callable]
    initial: Optional[Callable]
    boundary: Optional[BoundaryCond]
    exact_expr: Optional[object] = None   # symbolic source of `solution` (sympy syntax)
    solution: Optional[Callable] = None   # numpy closed form u(x, t) of exact_expr
    params: dict = field(default_factory=dict)
    ldgm_form: Optional[Callable] = None      # override for the trained first-order system
    dgm_boundary: Optional[Callable] = None   # override for strong-form boundary residuals

    @property
    def stationary(self) -> bool:
        return self.horizon is None

    def exact(self, x, t=None):
        """Closed-form solution values, if the problem has one."""
        if self.solution is None:
            raise UnavailableError(f"{self.name} has no closed-form solution")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if not self.stationary:
            t = np.asarray(t, dtype=np.float64).reshape(-1)
        v = self.solution(x, t)
        return np.broadcast_to(np.asarray(v, dtype=np.float64), (x.shape[0],)).copy()


@dataclass
class SystemForm:
    """One rewrite of a ProblemSpec as a system of residuals."""

    spec: ProblemSpec
    roster: tuple[str, ...]
    jet_orders: dict                 # direction -> jet order needed at interior points
    evolution: Callable              # interior walk (a NetworkOutput) -> residual
    constraints: tuple               # ((name, walk -> residual), ...)
    boundary: Callable               # boundary walk -> list of residuals
    boundary_orders: dict = field(default_factory=dict)  # direction -> jet order at the boundary
    slots: tuple = ()                # roster slot i holds the (axis, order) derivative of u

    @property
    def size(self) -> int:
        return len(self.roster)

    @cached_property
    def exact_outputs(self) -> Optional[tuple]:
        """sympy exprs per roster slot, derived from `spec.exact_expr` on first access."""
        if self.spec.exact_expr is None or not self.slots:
            return None
        import sympy as sp
        u = sp.sympify(self.spec.exact_expr)
        return tuple(sp.diff(u, sp.Symbol(f"x{axis}"), order) for axis, order in self.slots)


# -- the slot table -----------------------------------------------------------


def gradient_slots(d: int) -> tuple:
    """Slots of the roster (u, u_x0, ..., u_x{d-1})."""
    return ((0, 0),) + tuple((i, 1) for i in range(d))


def _source(slots, p: int, axis: int) -> tuple[int, int]:
    """(slot, jet order) giving the p-th derivative of u along `axis`.

    A slot holding that derivative is read as is; any other derivative is
    the jet of the slot holding the nearest lower order on the same axis
    (u, order 0, lies on every axis).
    """
    i = max((i for i, (a, q) in enumerate(slots) if q <= p and (q == 0 or a == axis)),
            key=lambda i: slots[i][1])
    return i, p - slots[i][1]


def slot_jet_orders(slots, needs) -> dict:
    """direction -> jet order a walk needs to read every (order, axis) in `needs`."""
    orders = {}
    for p, axis in needs:
        orders[axis] = max(orders.get(axis, 0), _source(slots, p, axis)[1])
    return orders


def gap(walk, slots, i: int):
    """Slot i's constraint: the jet of the slot one order below it on its axis, minus slot i."""
    axis, p = slots[i]
    return walk.dx(_source(slots, p - 1, axis)[0], axis) - walk.out(i)


class DerivativeView:
    """u and its derivatives at one point set, read through a slot table."""

    def __init__(self, walk, slots):
        self.walk, self.slots = walk, slots
        self.x, self.t = walk.x, walk.t

    @property
    def u(self):
        """u itself, read from the walk on first use (a residual may not read it)."""
        return self.walk.out(0)

    def d(self, p: int, axis: int = 0):
        i, j = _source(self.slots, p, axis)
        return self.walk.dx(i, axis, order=j) if j else self.walk.out(i)

    def lap(self):
        s = self.d(2, 0)
        for i in range(1, self.walk.spatial_dim):
            s = s + self.d(2, i)
        return s


# -- rewrites -----------------------------------------------------------------


def _form(spec: ProblemSpec, roster, slots, constraints=(), boundary=None) -> SystemForm:
    """The form on a slot table: evolution, boundary residuals and walk orders.

    A periodic boundary pairs u and each derivative of order below k along
    every spatial axis across faces; any other boundary penalizes the
    listed derivative orders of u against their data.  `boundary` replaces
    the residuals, not the walk.
    """
    k, d = spec.pde_order, spec.spatial_dim
    if spec.stationary:
        raise OrderError("rewrites apply to evolution problems")
    if k < 1 or (d > 1 and k > 2):
        raise OrderError(f"pde order {k} in {d}-d: rewrites need order >= 1, and <= 2 above 1-d")
    bc = spec.boundary
    periodic = bc.kind == "periodic"
    if periodic:
        needs = [(0, 0)] + [(p, axis) for axis in range(d) for p in range(1, k)]
    else:
        needs = [(order, 0) for order, _ in bc.targets]
        if d > 1 and any(p for p, _ in needs):
            raise ShapeError("derivative boundary data is 1-d only")

    def evolution(walk):
        return walk.dt(0) - spec.rhs(DerivativeView(walk, slots))

    def residuals(bwalk):
        here = DerivativeView(bwalk, slots)
        if periodic:
            there = DerivativeView(bwalk.mirror, slots)
            return [here.d(p, axis) - there.d(p, axis) for p, axis in needs]
        return [here.d(p, axis) - bc.data(i, here.x, here.t) for i, (p, axis) in enumerate(needs)]

    return SystemForm(
        spec=spec, roster=roster,
        jet_orders={**slot_jet_orders(slots, [(k, axis) for axis in range(d)]), TIME: 1},
        evolution=evolution, constraints=constraints, boundary=boundary or residuals,
        boundary_orders=slot_jet_orders(slots, needs), slots=slots)


def rewrite_first_order(spec: ProblemSpec) -> SystemForm:
    """Roster (u, v_1..v_{k-1}); only first derivatives appear in the system."""
    k, d = spec.pde_order, spec.spatial_dim
    if d == 1:
        roster = ("u",) + tuple("u_" + "x" * i for i in range(1, k))
        slots = tuple((0, i) for i in range(k))
        names = [f"{roster[i]} = D {roster[i - 1]}" for i in range(1, k)]
    else:
        roster = ("u",) + tuple(f"u_x{i}" for i in range(d))
        slots = gradient_slots(d)
        names = [f"u_x{i} = d u/d x{i}" for i in range(d)]
    constraints = tuple((name, lambda walk, i=i: gap(walk, slots, i))
                        for i, name in enumerate(names, start=1))
    return _form(spec, roster, slots, constraints)


def strong_form(spec: ProblemSpec) -> SystemForm:
    """The trivial rewrite: roster (u,), the PDE residual from order-k jets of u.

    Boundary points are walked once, to the largest order the residuals
    read; a problem's `dgm_boundary` replaces the residuals, not the walk.
    """
    return _form(spec, ("u",), ((0, 0),), boundary=spec.dgm_boundary)


def ldgm_system(spec: ProblemSpec) -> SystemForm:
    """The first-order system a training run uses (problem override wins)."""
    if spec.ldgm_form is not None:
        return spec.ldgm_form(spec)
    return rewrite_first_order(spec)


# -- builtin problems ---------------------------------------------------------


def _fcubic(u):
    # double-well derivative f(u) = u - u^3
    return u - u * u * u


def beam() -> ProblemSpec:
    return ProblemSpec(
        name="beam", spatial_dim=1, domain=((0.0, 2 * math.pi),), horizon=1.0,
        pde_order=4,
        rhs=lambda v: -v.d(4),
        initial=lambda x: np.sin(x[:, 0]),
        boundary=BoundaryCond("dirichlet", ((0, 0.0), (2, 0.0))),
        exact_expr="exp(-t)*sin(x0)",
        solution=lambda x, t: np.exp(-t) * np.sin(x[:, 0]))


def _ch_ldgm_form(spec: ProblemSpec) -> SystemForm:
    eps = spec.params["epsilon"]

    def evolution(walk):
        return walk.dt(0) - walk.dx(3, 0)

    constraints = (
        ("phi + eps*(u_x)_x + f(u)",
         lambda walk: walk.out(2) + eps * walk.dx(1, 0) + _fcubic(walk.out(0))),
        ("u_x = (u)_x", lambda walk: walk.out(1) - walk.dx(0, 0)),
        ("phi_x = (phi)_x", lambda walk: walk.out(3) - walk.dx(2, 0)),
    )

    def boundary(bwalk):
        # flux-free walls penalize the derivative variables themselves
        return [bwalk.out(1), bwalk.out(3)]

    return SystemForm(spec=spec, roster=("u", "u_x", "phi", "phi_x"),
                      jet_orders={0: 1, TIME: 1},
                      evolution=evolution, constraints=constraints, boundary=boundary)


def _ch_dgm_boundary(spec: ProblemSpec):
    eps = spec.params["epsilon"]

    def boundary(bwalk):
        u = bwalk.out(0)
        d1 = bwalk.dx(0, 0, order=1)
        d3 = bwalk.dx(0, 0, order=3)
        # phi_x with phi = -eps*u_xx - f(u)
        phi_x = -eps * d3 - (1.0 - 3.0 * u * u) * d1
        return [d1, phi_x]

    return boundary


def cahn_hilliard(epsilon: float = 0.1) -> ProblemSpec:
    def rhs(v):
        u = v.u
        return -epsilon * v.d(4) + 6.0 * u * v.d(1) * v.d(1) - (1.0 - 3.0 * u * u) * v.d(2)

    spec = ProblemSpec(
        name="cahn_hilliard", spatial_dim=1, domain=((0.0, 2 * math.pi),), horizon=1.0,
        pde_order=4, rhs=rhs,
        initial=lambda x: np.cos(x[:, 0]),
        boundary=BoundaryCond("neumann", ((1, 0.0), (3, 0.0))),
        params={"epsilon": epsilon},
        ldgm_form=_ch_ldgm_form)
    spec.dgm_boundary = _ch_dgm_boundary(spec)
    return spec


def allen_cahn(epsilon: float = 1.0) -> ProblemSpec:
    return ProblemSpec(
        name="allen_cahn", spatial_dim=1, domain=((0.0, 2 * math.pi),), horizon=1.0,
        pde_order=2,
        rhs=lambda v: epsilon * v.lap() + _fcubic(v.u),
        initial=lambda x: np.cos(x[:, 0]),
        boundary=BoundaryCond("periodic"),
        params={"epsilon": epsilon})


def mkdv() -> ProblemSpec:
    def u(x, t):
        return np.tanh(2 * t + x[:, 0] - 1)

    return ProblemSpec(
        name="mkdv", spatial_dim=1, domain=((-2.0, 2.0),), horizon=1.0,
        pde_order=3,
        rhs=lambda v: 6.0 * v.u * v.u * v.d(1) - v.d(3),
        initial=lambda x: np.tanh(x[:, 0] - 1.0),
        boundary=BoundaryCond("dirichlet", ((0, u),)),
        exact_expr="tanh(x0 + 2*t - 1)", solution=u)


def heat_nd(d: int = 5) -> ProblemSpec:
    def source(x, t):
        return 2.0 * d * (t + 1.0) + np.sum(x * (1.0 - x), axis=1)

    def g(x, t):
        return np.sum(x * (1.0 - x), axis=1) * (t + 1.0)

    def u(x, t):  # exact_expr's sum order, not np.sum's
        s = x[:, 0] * (1 - x[:, 0])
        for i in range(1, d):
            s = s + x[:, i] * (1 - x[:, i])
        return (t + 1) * s

    expr = "+".join(f"x{i}*(1-x{i})" for i in range(d))
    return ProblemSpec(
        name="heat_nd", spatial_dim=d, domain=tuple(((0.0, 1.0),) * d), horizon=1.0,
        pde_order=2,
        rhs=lambda v: v.lap() + source(v.x, v.t),
        initial=lambda x: np.sum(x * (1.0 - x), axis=1),
        boundary=BoundaryCond("dirichlet", ((0, g),)),
        exact_expr=f"({expr})*(t + 1)", solution=u,
        params={"d": d})


def bilaplacian_ritz(d: int = 1) -> ProblemSpec:
    """Clamped fourth-order elliptic benchmark with a manufactured solution.

    u = prod_i s_i with s_i = sin^2(pi x_i) and c_i = cos^2(pi x_i).  Since
    d^2 s_i = 2 pi^2 (c_i - s_i) and d^4 s_i = 8 pi^4 (s_i - c_i), the source is
        f = sum_i 8 pi^4 (s_i - c_i) prod_{k != i} s_k
            + sum_{i<j} 8 pi^4 (c_i - s_i)(c_j - s_j) prod_{k != i,j} s_k.
    """
    k4 = 8 * math.pi ** 4

    def sines(x):
        return [np.sin(np.pi * x[:, i]) ** 2 for i in range(d)]

    def source(x):
        s = sines(x)
        c = [np.cos(np.pi * x[:, i]) ** 2 for i in range(d)]
        rest = lambda *skip: math.prod(s[m] for m in range(d) if m not in skip)  # noqa: E731
        f = 0.0
        for i in range(d):
            f = f + (k4 * s[i] - k4 * c[i]) * rest(i)
            for j in range(i + 1, d):
                f = f + k4 * (c[i] - s[i]) * (c[j] - s[j]) * rest(i, j)
        return f

    return ProblemSpec(
        name="bilaplacian_ritz", spatial_dim=d, domain=tuple(((0.0, 1.0),) * d),
        horizon=None, pde_order=4, rhs=None,
        initial=None,
        boundary=BoundaryCond("dirichlet", ((0, 0.0), (1, 0.0))),
        exact_expr="*".join(f"sin(pi*x{i})**2" for i in range(d)),
        solution=lambda x, t=None: math.prod(sines(x)),
        params={"source": source})


_REGISTRY = {
    "beam": beam,
    "cahn_hilliard": cahn_hilliard,
    "allen_cahn": allen_cahn,
    "mkdv": mkdv,
    "heat_nd": heat_nd,
    "bilaplacian_ritz": bilaplacian_ritz,
}


def builtin_problems() -> list[ProblemSpec]:
    return [beam(), cahn_hilliard(), allen_cahn(), mkdv(), heat_nd(), bilaplacian_ritz()]


def get_problem(name: str, **params) -> ProblemSpec:
    if name not in _REGISTRY:
        raise KeyError(f"unknown problem {name!r}; have {sorted(_REGISTRY)}")
    return _REGISTRY[name](**params)
