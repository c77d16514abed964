import dataclasses

import numpy as np
import pytest
import sympy as sp

from ldgm.autodiff import Tape, backward
from ldgm.errors import ShapeError
from ldgm.network import AnalyticNetwork, Network, NetworkConfig, init_xavier
from ldgm.ritz import RitzConfig, drm_loss, ldrm_loss
from ldgm.sampling import SamplerConfig, draw_batch
from ldgm.system import get_problem

from oracles import central_gradient, relative


def zero_source_spec(d=1):
    spec = get_problem("bilaplacian_ritz", d=d)
    return dataclasses.replace(spec, source=lambda x: np.zeros(len(x)))


def zeroed_net(d, m):
    cfg = NetworkConfig(input_dim=d, hidden_layers=2, width=5, output_dim=m)
    params = init_xavier(cfg, seed=0)
    for i, a in enumerate(params.arrays):
        params.arrays[i] = np.zeros_like(a)
    return Network(cfg, params)


def test_zero_network_and_zero_source_minimize_both_losses():
    spec = zero_source_spec()
    batch = draw_batch(SamplerConfig(interior=50, initial=0, boundary=20, seed=0),
                       spec, stage=0)
    cfg = RitzConfig()
    l1 = ldrm_loss(spec, zeroed_net(1, 2).bind(Tape()), batch, cfg)
    l2 = drm_loss(spec, zeroed_net(1, 1).bind(Tape()), batch, cfg)
    assert float(l1.J_total.value) == 0.0
    assert float(l2.J_total.value) == 0.0


def test_boundary_penalty_is_monotone_in_lambda():
    spec = get_problem("bilaplacian_ritz", d=1)
    cfg0 = NetworkConfig(input_dim=1, hidden_layers=2, width=6, output_dim=2)
    net = Network(cfg0, init_xavier(cfg0, seed=3))
    batch = draw_batch(SamplerConfig(interior=40, initial=0, boundary=16, seed=1),
                       spec, stage=0)
    totals = []
    for lam in (1.0, 10.0, 100.0, 1000.0):
        lb = ldrm_loss(spec, net.bind(Tape()), batch, RitzConfig(penalty=lam))
        totals.append(float(lb.J_total.value))
        assert float(lb.J_b.value) > 0
    assert totals == sorted(totals)


def _mock_split(d=1):
    xs = sp.symbols(f"x0:{d}")
    p = sp.prod([sp.sin(sp.pi * s) ** 2 for s in xs])
    exprs = [str(p)] + [str(sp.diff(p, s)) for s in xs]
    return AnalyticNetwork(exprs, d, with_time=False)


@pytest.mark.parametrize("d", [1, 2])
def test_split_form_equals_baseline_when_q_is_grad_p(d):
    spec = get_problem("bilaplacian_ritz", d=d)
    batch = draw_batch(SamplerConfig(interior=64, initial=0, boundary=24, seed=2),
                       spec, stage=0)
    cfg = RitzConfig(penalty=500.0)
    split = ldrm_loss(spec, _mock_split(d).bind(Tape()), batch, cfg)
    xs = sp.symbols(f"x0:{d}")
    p = sp.prod([sp.sin(sp.pi * s) ** 2 for s in xs])
    base = drm_loss(spec, AnalyticNetwork([str(p)], d, with_time=False).bind(Tape()),
                    batch, cfg)
    assert abs(float(split.J_total.value) - float(base.J_total.value)) < 1e-10
    assert abs(float(split.J_b.value) - float(base.J_b.value)) < 1e-12


def test_baseline_interior_integrand_matches_direct_formula():
    spec = get_problem("bilaplacian_ritz", d=1)
    batch = draw_batch(SamplerConfig(interior=80, initial=0, boundary=10, seed=4),
                       spec, stage=0)
    lb = drm_loss(spec, AnalyticNetwork(["sin(pi*x0)**2"], 1, with_time=False).bind(Tape()),
                  batch, RitzConfig())
    x = batch.interior_x[:, 0]
    u = np.sin(np.pi * x) ** 2
    lap = 2 * np.pi**2 * np.cos(2 * np.pi * x)
    f = spec.source(batch.interior_x)
    direct = np.mean(0.5 * lap**2 - f * u) * 1.0
    assert abs(float(lb.J_e.value) - direct) < 1e-9


@pytest.mark.parametrize("method", ["ldrm", "drm"])
def test_gradients_match_finite_differences(method):
    spec = get_problem("bilaplacian_ritz", d=1)
    m = 2 if method == "ldrm" else 1
    cfg0 = NetworkConfig(input_dim=1, hidden_layers=2, width=5, output_dim=m)
    template = init_xavier(cfg0, seed=5)
    batch = draw_batch(SamplerConfig(interior=9, initial=0, boundary=4, seed=5),
                       spec, stage=0)
    loss = ldrm_loss if method == "ldrm" else drm_loss

    def run(vec):
        params = template.copy()
        params.from_vector(vec)
        tape = Tape()
        bound = Network(cfg0, params).bind(tape)
        lb = loss(spec, bound, batch, RitzConfig(penalty=7.0))
        return lb, tape, bound

    vec = template.to_vector()
    lb, tape, bound = run(vec)
    grads = backward(tape, lb.J_total)
    got = np.concatenate([grads[v.idx].ravel() for v in bound.param_vars])
    fd = central_gradient(lambda v: float(run(v)[0].J_total.value), vec)
    assert relative(got, fd) < 1e-5


def test_output_count_validation():
    spec = get_problem("bilaplacian_ritz", d=2)
    batch = draw_batch(SamplerConfig(interior=5, initial=0, boundary=4, seed=0),
                       spec, stage=0)
    with pytest.raises(ShapeError):
        ldrm_loss(spec, zeroed_net(2, 2).bind(Tape()), batch, RitzConfig())
    with pytest.raises(ShapeError):
        drm_loss(spec, zeroed_net(2, 3).bind(Tape()), batch, RitzConfig())
