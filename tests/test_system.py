import dataclasses
import math

import numpy as np
import pytest
import sympy

from ldgm.autodiff import Tape
from ldgm.errors import ShapeError, UnavailableError
from ldgm.network import AnalyticNetwork
from ldgm.sampling import SamplerConfig, draw_batch
from ldgm.loss import ldgm_loss
from ldgm.metrics import evaluation_grid
from ldgm.system import (ProblemSpec, builtin_problems, get_problem, ldgm_system,
                         rewrite_first_order, strong_form)


def advection() -> ProblemSpec:
    # first-order evolution: u_t = -u_x, handy as the no-reduction case
    return ProblemSpec(
        name="advection", spatial_dim=1, domain=((0.0, 2 * math.pi),), horizon=1.0,
        pde_order=1,
        rhs=lambda v: -v.d(1),
        initial=lambda x: np.sin(x[:, 0]),
        boundary=((0, lambda x, t: np.sin(x[:, 0] - t)),),
        exact_expr="sin(x0 - t)", solution=lambda x, t: np.sin(x[:, 0] - t))


def kdv_like() -> ProblemSpec:
    return ProblemSpec(
        name="kdv", spatial_dim=1, domain=((-2.0, 2.0),), horizon=1.0,
        pde_order=3,
        rhs=lambda v: -6.0 * v.u * v.d(1) - v.d(3),
        initial=lambda x: np.zeros(len(x)),
        boundary=((0, 0.0),))


def test_first_order_rewrite_rosters():
    assert rewrite_first_order(get_problem("heat_nd", d=3)).roster == (
        "u", "u_x0", "u_x1", "u_x2")
    form = rewrite_first_order(kdv_like())
    assert form.roster == ("u", "u_x", "u_xx")
    assert len(form.constraints) == 2
    assert rewrite_first_order(advection()).roster == ("u",)
    assert rewrite_first_order(get_problem("beam")).roster == ("u", "u_x", "u_xx", "u_xxx")


def test_ch_training_roster_matches_four_variable_system():
    form = ldgm_system(get_problem("cahn_hilliard", epsilon=0.1))
    assert form.roster == ("u", "u_x", "phi", "phi_x")
    assert len(form.constraints) == 3


def test_builtin_exact_values():
    assert get_problem("beam").exact([[math.pi / 2]], [0.0])[0] == pytest.approx(1.0)
    assert get_problem("mkdv").exact([[1.0]], [0.0])[0] == pytest.approx(0.0, abs=1e-15)
    assert get_problem("mkdv").exact([[2.0]], [1.0])[0] == pytest.approx(math.tanh(3.0))
    h5 = get_problem("heat_nd", d=5)
    assert h5.exact([[0.5] * 5], [1.0])[0] == pytest.approx(2.5)
    assert h5.exact([[0.0] * 5], [0.3])[0] == pytest.approx(0.0, abs=1e-15)


def test_registry_lists_expected_problems():
    names = [p.name for p in builtin_problems()]
    assert names == ["beam", "cahn_hilliard", "mkdv", "heat_nd", "bilaplacian_ritz"]
    with pytest.raises(KeyError):
        get_problem("nope")
    with pytest.raises(UnavailableError):
        get_problem("cahn_hilliard").exact([[0.0]], [0.0])


def drift_2d() -> ProblemSpec:
    # u_t = lap u - u_x1: the first derivative along x1, not x0, must be read
    return ProblemSpec(
        name="drift_2d", spatial_dim=2, domain=((0.0, 1.0), (0.0, 1.0)), horizon=1.0,
        pde_order=2,
        rhs=lambda v: v.lap() - v.d(1, 1),
        initial=lambda x: x[:, 1],
        boundary=((0, lambda x, t: x[:, 1] - t),),
        exact_expr="x1 - t", solution=lambda x, t: x[:, 1] - t)


def _max_system_residual(form, n_points=1000, seed=0):
    """Largest |residual| over evolution+constraints with the exact field injected."""
    spec = form.spec
    assert form.exact_outputs is not None
    mock = AnalyticNetwork([str(e) for e in form.exact_outputs], spec.spatial_dim)
    cfg = SamplerConfig(interior=n_points, initial=10, boundary=10, seed=seed)
    batch = draw_batch(cfg, spec, stage=0)
    walk = mock.bind(Tape()).forward_jets(batch.interior_x, batch.interior_t, form.jet_orders)
    worst = np.max(np.abs(form.evolution(walk).value))
    for _, fn in form.constraints:
        worst = max(worst, np.max(np.abs(fn(walk).value)))
    return worst


@pytest.mark.parametrize("name,kwargs", [
    ("beam", {}), ("mkdv", {}), ("heat_nd", {"d": 1}), ("heat_nd", {"d": 3}),
])
def test_exact_solutions_annihilate_both_rewrites(name, kwargs):
    spec = get_problem(name, **kwargs)
    assert _max_system_residual(rewrite_first_order(spec)) < 1e-9


@pytest.mark.parametrize("rewrite", [rewrite_first_order, strong_form])
def test_derivatives_are_read_along_their_own_axis(rewrite):
    form = rewrite(drift_2d())
    assert _max_system_residual(form) < 1e-12
    mock = AnalyticNetwork([str(e) for e in form.exact_outputs], 2)
    lb = ldgm_loss(form, mock.bind(Tape()), draw_batch(SamplerConfig(seed=3), form.spec, 0))
    assert float(lb.J_total.value) < 1e-25


@pytest.mark.parametrize("rewrite", [rewrite_first_order, strong_form])
def test_derivative_boundary_data_above_1d_is_refused_when_the_form_is_built(rewrite):
    spec = dataclasses.replace(drift_2d(), boundary=((1, 0.0),))
    with pytest.raises(ShapeError, match="derivative boundary data is 1-d only"):
        rewrite(spec)


@pytest.mark.parametrize("rewrite", [rewrite_first_order, strong_form])
def test_evolution_problem_without_boundary_targets_is_refused_when_the_form_is_built(rewrite):
    # the loss would otherwise index an empty residual list at the first step
    with pytest.raises(ShapeError, match="kdv has no boundary targets"):
        rewrite(dataclasses.replace(kdv_like(), boundary=()))


def test_advection_exact_annihilates_single_variable_form():
    form = rewrite_first_order(advection())
    assert _max_system_residual(form) < 1e-9


def test_ldgm_loss_components_vanish_on_exact_solution():
    spec = get_problem("beam")
    form = rewrite_first_order(spec)
    mock = AnalyticNetwork([str(e) for e in form.exact_outputs], 1)
    batch = draw_batch(SamplerConfig(seed=3), spec, stage=0)
    lb = ldgm_loss(form, mock.bind(Tape()), batch)
    for v in (lb.J_e, lb.J_i, lb.J_b, lb.J_total):
        assert float(v.value) < 1e-9


# -- numpy closed forms against their symbolic source ---------------------------

CLOSED_FORMS = ([("beam", {}), ("mkdv", {})]
                + [("heat_nd", {"d": d}) for d in range(1, 6)]
                + [("bilaplacian_ritz", {"d": d}) for d in range(1, 4)])


def _point_sets(spec, n=500, seed=5):
    """The problem's evaluation grid, then uniform random points in its domain."""
    grid = evaluation_grid(spec)
    rng = np.random.default_rng(seed)
    lo, hi = np.array(spec.domain).T
    x = lo + (hi - lo) * rng.uniform(size=(n, spec.spatial_dim))
    t = None if spec.stationary else spec.horizon * rng.uniform(size=n)
    return [(grid.x, grid.t), (x, t)]


def _lambdified(spec, expr):
    """sympy's numpy printing of expr, called the way the problem's callables are."""
    import sympy as sp
    xs = sp.symbols(f"x0:{spec.spatial_dim}")
    fn = sp.lambdify(list(xs) + ([] if spec.stationary else [sp.Symbol("t")]), expr, "numpy")
    return lambda x, t: np.broadcast_to(
        fn(*[x[:, i] for i in range(spec.spatial_dim)], *([] if spec.stationary else [t])),
        (x.shape[0],))


@pytest.mark.parametrize("name,kwargs", CLOSED_FORMS)
def test_closed_form_equals_lambdified_exact_expr_bit_for_bit(name, kwargs):
    spec = get_problem(name, **kwargs)
    want = _lambdified(spec, spec.exact_expr)
    for x, t in _point_sets(spec):
        assert spec.exact(x, t).tobytes() == np.ascontiguousarray(want(x, t)).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bilaplacian_source_against_expanded_symbolic_bilaplacian(d):
    import sympy as sp
    spec = get_problem("bilaplacian_ritz", d=d)
    xs = sp.symbols(f"x0:{d}")
    lap = lambda e: sum(sp.diff(e, s, 2) for s in xs)  # noqa: E731
    want = _lambdified(spec, sp.expand(lap(lap(sp.sympify(spec.exact_expr)))))
    for x, _ in _point_sets(spec):
        got, ref = spec.source(x), want(x, None)
        if d == 1:
            assert got.tobytes() == ref.tobytes()
        else:
            # other summation order: gaps of 3.9e-16 (d=2) and 4.0e-16 (d=3) of max|f|
            gap = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert gap < 8 * np.finfo(np.float64).eps


def _old_exact_outputs(spec):
    """The roster expressions as the rewrite built them eagerly with sympy."""
    import sympy as sp
    u = sp.sympify(spec.exact_expr)
    if spec.spatial_dim == 1:
        return tuple(sp.diff(u, sp.Symbol("x0"), i) for i in range(spec.pde_order))
    return (u,) + tuple(sp.diff(u, sp.Symbol(f"x{i}")) for i in range(spec.spatial_dim))


@pytest.mark.parametrize("name,kwargs", [
    ("beam", {}), ("mkdv", {}), ("heat_nd", {"d": 1}), ("heat_nd", {"d": 5}),
])
def test_exact_outputs_are_the_eager_expressions(name, kwargs):
    spec = get_problem(name, **kwargs)
    form = rewrite_first_order(spec)
    assert form.exact_outputs == _old_exact_outputs(spec)
    assert form.exact_outputs is form.exact_outputs
    assert strong_form(spec).exact_outputs == (sympy.sympify(spec.exact_expr),)
