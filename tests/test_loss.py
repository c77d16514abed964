import dataclasses
import math

import numpy as np
import pytest

from ldgm.autodiff import JET_ORDER_CAP, Tape, backward
from ldgm.errors import ShapeError, UnsupportedOrderError
from ldgm.loss import dgm_loss, ldgm_loss
from ldgm.network import (AnalyticNetwork, BoundAnalytic, BoundNetwork, Network, NetworkConfig,
                          init_xavier)
from ldgm.ritz import RitzConfig
from ldgm.sampling import SamplerConfig, draw_batch
from ldgm.system import (_REGISTRY, builtin_problems, get_problem, ldgm_system,
                         rewrite_first_order)
from ldgm.trainer import METHODS, default_network_config

from oracles import central_gradient, relative
from test_system import advection


def small_net(spec, m, seed=0, width=5, layers=2):
    cfg = NetworkConfig(input_dim=spec.spatial_dim + 1, hidden_layers=layers,
                        width=width, output_dim=m)
    return Network(cfg, init_xavier(cfg, seed))


def test_exact_mock_annihilates_ldgm_components():
    spec = get_problem("beam")
    form = ldgm_system(spec)
    mock = AnalyticNetwork([str(e) for e in form.exact_outputs], 1)
    batch = draw_batch(SamplerConfig(seed=1), spec, stage=0)
    lb = ldgm_loss(form, mock.bind(Tape()), batch)
    assert float(lb.J_e.value) < 1e-9
    assert float(lb.J_i.value) < 1e-9
    assert float(lb.J_b.value) < 1e-9


def test_exact_mock_annihilates_dgm_components():
    spec = get_problem("heat_nd", d=1)
    mock = AnalyticNetwork([str(spec.exact_expr)], 1)
    batch = draw_batch(SamplerConfig(seed=2), spec, stage=0)
    lb = dgm_loss(spec, mock.bind(Tape()), batch)
    for v in (lb.J_e, lb.J_i, lb.J_b):
        assert float(v.value) < 1e-9


def test_ch_equation_loss_has_four_summands():
    spec = get_problem("cahn_hilliard", epsilon=0.1)
    form = ldgm_system(spec)
    net = small_net(spec, form.size)
    batch = draw_batch(SamplerConfig(seed=0), spec, stage=0)
    lb = ldgm_loss(form, net.bind(Tape()), batch)
    # the evolution residual and the 3 constraints
    assert [name for name, group, _ in lb.terms if group == "e"] == [
        "evolution", *(name for name, _ in form.constraints)]
    assert len(form.constraints) == 3


def _fold(values):
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def test_every_loss_folds_its_term_table_into_its_totals():
    """For every method on every builtin problem, each group's terms fold left to
    right to its total bit for bit (0.0 for a group with no terms), and J_total
    is J_e + J_i + J_b, or J_e + penalty * J_b for the variational methods."""
    rc = RitzConfig(penalty=7.5)
    for spec in builtin_problems() + [get_problem("bilaplacian_ritz", d=2)]:
        batch = draw_batch(SamplerConfig(interior=6, initial=4, boundary=5, seed=3), spec, 0)
        for method, entry in METHODS.items():
            if entry.variational != spec.stationary:
                continue
            cfg = default_network_config(spec, method, hidden_layers=2, width=5)
            lb = entry.loss(spec, rc)(Network(cfg, init_xavier(cfg, 1)).bind(Tape()), batch)
            groups = {}
            for name, group, term in lb.terms:
                groups.setdefault(group, []).append(np.float64(term.value))
            je, ji, jb = (_fold(groups[g]) if g in groups else 0.0 for g in "eib")
            assert float(lb.J_e.value) == je and float(lb.J_b.value) == jb, (spec.name, method)
            if entry.variational:
                assert [name for name, _, _ in lb.terms] == ["energy", "boundary"]
                assert lb.J_i == 0.0
                assert float(lb.J_total.value) == je + rc.penalty * jb
            else:
                assert float(lb.J_i.value) == ji
                assert float(lb.J_total.value) == (je + ji) + jb, (spec.name, method)


def test_roster_size_mismatch_raises():
    spec = get_problem("beam")
    form = ldgm_system(spec)
    net = small_net(spec, form.size + 1)
    batch = draw_batch(SamplerConfig(seed=0), spec, stage=0)
    with pytest.raises(ShapeError):
        ldgm_loss(form, net.bind(Tape()), batch)


def test_dgm_with_low_jet_cap_errors():
    # the strong form of an order-7 problem needs jets above the walk's cap
    spec = dataclasses.replace(get_problem("beam"), pde_order=7)
    assert spec.pde_order > JET_ORDER_CAP
    net = small_net(spec, 1)
    batch = draw_batch(SamplerConfig(seed=0), spec, stage=0)
    with pytest.raises(UnsupportedOrderError):
        dgm_loss(spec, net.bind(Tape()), batch)


_WALK_PROBLEMS = [
    ("beam", {}), ("cahn_hilliard", {}), ("mkdv", {}), ("heat_nd", {"d": 3}), ("bilaplacian_ritz", {"d": 1}), ("bilaplacian_ritz", {"d": 2}),
]


# the boundary points carry jets where the boundary residuals read a
# derivative that no roster output holds
_BOUNDARY_JETS = {
    "beam": {"ldgm": False, "dgm": True},  # dgm reads u_xx at the boundary
    "cahn_hilliard": {"ldgm": False, "dgm": True},
    "mkdv": {"ldgm": False, "dgm": False},
    "heat_nd": {"ldgm": False, "dgm": False},
    "bilaplacian_ritz": {"ldrm": False, "drm": True},  # drm reads the normal derivative
}


def _loss_cases():
    return [pytest.param(name, kwargs, method, id=f"{method}-{name}{kwargs.get('d', '')}")
            for name, kwargs in _WALK_PROBLEMS for method, entry in METHODS.items()
            if entry.variational == get_problem(name, **kwargs).stationary]


def _small_loss(name, kwargs, method, layers=1):
    spec = get_problem(name, **kwargs)
    net_cfg = default_network_config(spec, method, hidden_layers=layers, width=4)
    net = Network(net_cfg, init_xavier(net_cfg, 0))
    batch = draw_batch(SamplerConfig(interior=6, initial=4, boundary=4, seed=1), spec, 0)
    tape = Tape()
    METHODS[method].loss(spec, RitzConfig())(net.bind(tape), batch)
    return batch, tape


@pytest.mark.parametrize("name,kwargs,method", _loss_cases())
def test_each_point_set_is_walked_once(monkeypatch, name, kwargs, method):
    """Every loss makes one forward_sets call: all its point sets, each with its own orders."""
    walked = []
    sets_walk = BoundNetwork.forward_sets

    def recording(self, sets):
        walked.append([(id(x), orders) for x, _, orders in sets])
        return sets_walk(self, sets)

    monkeypatch.setattr(BoundNetwork, "forward_sets", recording)
    batch, _ = _small_loss(name, kwargs, method)
    [call] = walked
    names = ["interior_x", "boundary_x"] if METHODS[method].variational else [
        "interior_x", "initial_x", "boundary_x"]
    assert [x for x, _ in call] == [id(getattr(batch, a)) for a in names]
    jets = [any(orders.values()) for _, orders in call]
    assert jets == [True] + [False] * (len(names) - 2) + [_BOUNDARY_JETS[name][method]]


@pytest.mark.parametrize("name,kwargs,method", _loss_cases())
def test_each_layer_records_one_affine_node_per_loss(name, kwargs, method):
    # every builtin problem under every method that fits it
    assert {n for n, _ in _WALK_PROBLEMS} == set(_REGISTRY)
    _, tape = _small_loss(name, kwargs, method, layers=3)
    assert sum(node.op == "affine" for node in tape.nodes) == 3 + 1  # the head's is the last


@pytest.mark.parametrize("name,kwargs", [("beam", {}), ("mkdv", {}), ("heat_nd", {"d": 3})])
def test_stacked_walks_match_separate_walks(monkeypatch, name, kwargs):
    spec = get_problem(name, **kwargs)
    form = ldgm_system(spec)
    net = small_net(spec, form.size, seed=3)
    mock = AnalyticNetwork([str(e) for e in form.exact_outputs], spec.spatial_dim)
    batch = draw_batch(SamplerConfig(interior=8, initial=6, boundary=6, seed=4), spec, 0)

    def losses():
        tape = Tape()
        lb = ldgm_loss(form, net.bind(tape), batch)
        grads = backward(tape, lb.J_total)
        grad = np.concatenate([grads[i].ravel() for i in tape.params])
        return lb, grad, ldgm_loss(form, mock.bind(Tape()), batch)

    def one_set_at_a_time(walk):
        return lambda self, sets: [walk(self, [s])[0] for s in sets]

    stacked = losses()
    for cls in (BoundNetwork, BoundAnalytic):
        monkeypatch.setattr(cls, "forward_sets", one_set_at_a_time(cls.forward_sets))
    separate = losses()
    for term in ("J_i", "J_b"):
        a, b = (getattr(lb, term).value for lb in (stacked[0], separate[0]))
        assert relative(a, b) <= 1e-13, term
        a, b = (getattr(exact, term).value for exact in (stacked[2], separate[2]))
        assert a.tobytes() == b.tobytes(), term
    assert relative(stacked[1], separate[1]) <= 1e-13


def test_dgm_and_ldgm_initial_terms_agree_for_first_order_problem():
    spec = advection()
    form = rewrite_first_order(spec)
    assert form.size == 1
    net = small_net(spec, 1, seed=4)
    batch = draw_batch(SamplerConfig(seed=5), spec, stage=0)
    li = ldgm_loss(form, net.bind(Tape()), batch)
    di = dgm_loss(spec, net.bind(Tape()), batch)
    assert float(li.J_i.value) == float(di.J_i.value)


def _loss_for_vector(spec, method, vec, template, batch):
    net = Network(template.config, template.params.copy())
    net.params.from_vector(vec)
    tape = Tape()
    if method == "ldgm":
        lb = ldgm_loss(ldgm_system(spec), net.bind(tape), batch)
    else:
        lb = dgm_loss(spec, net.bind(tape), batch)
    return lb, tape, net


@pytest.mark.parametrize("name,kwargs", [
    ("beam", {}), ("cahn_hilliard", {}), ("heat_nd", {"d": 1}), ("mkdv", {}),
    ("heat_nd", {"d": 5}),
])
@pytest.mark.parametrize("method", ["ldgm", "dgm"])
def test_total_gradient_matches_finite_differences(name, kwargs, method):
    spec = get_problem(name, **kwargs)
    m = ldgm_system(spec).size if method == "ldgm" else 1
    template = small_net(spec, m, seed=6)
    batch = draw_batch(SamplerConfig(interior=7, initial=4, boundary=4, seed=7),
                       spec, stage=0)
    vec = template.params.to_vector()
    lb, tape, net = _loss_for_vector(spec, method, vec, template, batch)
    grads = backward(tape, lb.J_total)
    got = np.concatenate([grads[i].ravel() for i in tape.params])
    fd = central_gradient(
        lambda v: float(_loss_for_vector(spec, method, v, template, batch)[0].J_total.value),
        vec)
    assert relative(got, fd) < 1e-5, (name, method)


def test_nonnegative_components_and_weighted_additivity():
    rng = np.random.default_rng(11)
    spec = get_problem("mkdv")
    form = ldgm_system(spec)
    for trial in range(100):
        net = small_net(spec, form.size, seed=int(rng.integers(1 << 30)), width=4)
        batch = draw_batch(SamplerConfig(interior=5, initial=3, boundary=3,
                                         seed=int(rng.integers(1 << 30))), spec, 0)
        lb = ldgm_loss(form, net.bind(Tape()), batch)
        je, ji, jb, jt = (float(v.value) for v in (lb.J_e, lb.J_i, lb.J_b, lb.J_total))
        assert je >= 0 and ji >= 0 and jb >= 0
        assert jt == je + ji + jb


def test_equation_loss_converges_to_integral_residual():
    # fixed smooth non-solution: Monte-Carlo J_e approaches the true mean square
    spec = get_problem("beam")
    form = ldgm_system(spec)
    import sympy as sp
    x0, t = sp.symbols("x0 t")
    u = sp.sin(x0) * sp.cos(t) + 0.3 * t
    exprs = [str(sp.diff(u, x0, i)) for i in range(4)]
    mock = AnalyticNetwork(exprs, 1)

    # dense-grid reference for the mean of (u_t + u_xxxx)^2 over the box
    xs = np.linspace(0, 2 * math.pi, 401)
    ts = np.linspace(0, 1, 401)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    resid = (-np.sin(X) * np.sin(T) + 0.3) + np.sin(X) * np.cos(T)
    ref = np.trapezoid(np.trapezoid(resid**2, ts, axis=1), xs) / (2 * math.pi * 1.0)

    sizes = [100, 400, 1600, 6400]
    errs = []
    for n in sizes:
        devs = []
        for seed in range(30):
            batch = draw_batch(SamplerConfig(interior=n, initial=2, boundary=2,
                                             seed=seed), spec, stage=0)
            lb = ldgm_loss(form, mock.bind(Tape()), batch)
            devs.append(abs(float(lb.J_e.value) - ref))
        errs.append(np.mean(devs))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.65 < slope < -0.35, (slope, errs)
