import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ldgm import autodiff as ad
from ldgm.autodiff import Tape, backward
from ldgm.errors import InvalidNodeError
from ldgm.loss import ldgm_loss
from ldgm.network import AnalyticNetwork, Network, init_xavier
from ldgm.ritz import RitzConfig
from ldgm.sampling import SamplerConfig, draw_batch
from ldgm.system import builtin_problems, get_problem, ldgm_system, strong_form
from ldgm.trainer import METHODS, default_network_config

from oracles import (Jet, apply_activation, apply_sin, central_gradient, cos, div, exp,
                     jet_lift, log, matmul, nested_derivative, power, rdiv, relative, replay,
                     sin, sqrt)


def test_backward_identity():
    tape = Tape()
    p = tape.param(3.0)
    g = backward(tape, p)
    assert g[p.idx] == 1.0


def test_backward_square():
    tape = Tape()
    p = tape.param(3.0)
    y = p * p
    g = backward(tape, y)
    assert g[p.idx] == pytest.approx(6.0, rel=1e-14)


def _scalar_ops_catalog():
    return [
        ("add", lambda a, b: a + b),
        ("sub", lambda a, b: a - b),
        ("mul", lambda a, b: a * b),
        ("div", lambda a, b: div(a, b + 2.5)),
        ("addc", lambda a, b: a + 1.7),
        ("rsubc", lambda a, b: 1.7 - a),
        ("mulc", lambda a, b: 0.3 * a),
        ("rdivc", lambda a, b: rdiv(2.0, a + 3.0)),
        ("neg", lambda a, b: -a),
        ("powc", lambda a, b: power(a + 3.0, 2.5)),
        ("exp", lambda a, b: exp(a * 0.3)),
        ("log", lambda a, b: log(a + 3.0)),
        ("sqrt", lambda a, b: sqrt(a + 3.0)),
        ("tanh", lambda a, b: ad.tanh(a)),
        ("sigmoid", lambda a, b: (ad.tanh(a * 0.5) + 1.0) * 0.5),  # through the plain tanh node
        ("sin", lambda a, b: sin(a)),
        ("cos", lambda a, b: cos(a)),
        ("elu", lambda a, b: ad.taylor(a + 0.5, "elu", ())),
        ("mix", lambda a, b: ad.tanh(a * b) * exp(b * 0.2) + div(a, b + 2.5)),
    ]


@pytest.mark.parametrize("name,fn", _scalar_ops_catalog())
def test_elementary_gradients_match_central_differences(name, fn):
    rng = np.random.default_rng(7)
    for _ in range(100):
        a0, b0 = rng.uniform(-1.5, 1.5, size=2)

        def eval_at(v):
            tape = Tape()
            a = tape.param(v[0])
            b = tape.param(v[1])
            return fn(a, b), tape, (a, b)

        out, tape, (a, b) = eval_at((a0, b0))
        g = backward(tape, out)
        fd = central_gradient(lambda v: float(eval_at(v)[0].value), np.array([a0, b0]))
        got = np.array([g[a.idx], g[b.idx]])
        assert np.linalg.norm(got - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-8)


def test_matmul_broadcast_column_backward():
    rng = np.random.default_rng(3)
    w0 = rng.normal(size=(2, 4))
    b0 = rng.normal(size=4)
    x = rng.normal(size=(5, 2))

    def run(wflat):
        tape = Tape()
        w = tape.param(wflat[:8].reshape(2, 4))
        b = tape.param(wflat[8:])
        h = ad.tanh(matmul(tape.input(x), w) + b)
        return ad.mean(ad.take(h, (slice(None), 1)) * ad.take(h, (slice(None), 2))), tape, (w, b)

    vec = np.concatenate([w0.ravel(), b0])
    out, tape, (w, b) = run(vec)
    g = backward(tape, out)
    got = np.concatenate([g[w.idx].ravel(), g[b.idx]])
    fd = central_gradient(lambda v: float(run(v)[0].value), vec)
    assert relative(got, fd) < 1e-6


def test_full_tanh_network_gradient_matches_fd():
    # 3 hidden layers, width 50: loss gradient vs central differences
    rng = np.random.default_rng(11)
    shapes = [(2, 50), (50,), (50, 50), (50,), (50, 50), (50,), (50, 1), (1,)]
    vec = np.concatenate([rng.normal(scale=0.3, size=s).ravel() for s in shapes])
    x = rng.uniform(-1, 1, size=(4, 2))
    target = np.sin(x[:, 0])

    def run(v):
        tape = Tape()
        ps, off = [], 0
        for s in shapes:
            size = int(np.prod(s))
            ps.append(tape.param(v[off:off + size].reshape(s)))
            off += size
        h = tape.input(x)
        for i in range(0, 6, 2):
            h = ad.tanh(matmul(h, ps[i]) + ps[i + 1])
        y = ad.take(matmul(h, ps[6]) + ps[7], (slice(None), 0))
        r = y - target
        return ad.mean(r * r), tape, ps

    out, tape, ps = run(vec)
    g = backward(tape, out)
    got = np.concatenate([g[p.idx].ravel() for p in ps])
    fd = central_gradient(lambda v: float(run(v)[0].value), vec, h=1e-5)
    assert relative(got, fd) < 1e-6


def test_unreachable_parameter_gets_zero_gradient():
    tape = Tape()
    p = tape.param(2.0)
    q = tape.param(5.0)
    y = p * p
    g = backward(tape, y)
    assert g[q.idx] == 0.0


def test_overlapping_reads_of_one_node_sum_their_adjoints():
    """Two overlapping slices of one node, and one entry read twice: each entry's
    adjoint is the sum over the reads that touch it; an entry no read touches gets 0."""
    p0 = np.random.default_rng(5).normal(size=(5, 3))

    def run(v):
        tape = Tape()
        p = tape.param(v.reshape(5, 3))
        y = p * 3.0
        a, b = ad.take(y, (slice(0, 3),)), ad.take(y, (slice(1, 4),))
        s, r = ad.take(y, (2, 1)), ad.take(y, (2, 1))
        return ad.mean(a * a) + ad.mean(b * b * b) + s * r, tape, p

    out, tape, p = run(p0.ravel())
    got = backward(tape, out)[p.idx]
    y = 3.0 * p0
    want = np.zeros_like(y)
    want[0:3] += 2.0 * y[0:3] / 9
    want[1:4] += 3.0 * y[1:4] ** 2 / 9
    want[2, 1] += 2.0 * y[2, 1]
    assert relative(got, 3.0 * want) < 1e-14
    assert np.all(got[4] == 0.0)
    fd = central_gradient(lambda v: float(run(v)[0].value), p0.ravel())
    assert relative(got, fd) < 1e-8


def test_backward_rejects_foreign_output():
    t1, t2 = Tape(), Tape()
    p = t1.param(1.0)
    with pytest.raises(InvalidNodeError):
        backward(t2, p)


def test_op_without_a_reverse_is_an_invalid_node(monkeypatch):
    monkeypatch.setitem(ad.OPS, "cube", (lambda node, xs: xs[0] ** 3, None))
    tape = Tape()
    p = tape.param(2.0)
    with pytest.raises(InvalidNodeError, match="'cube' has no reverse"):
        tape.record("cube", (p.idx,))
    with pytest.raises(InvalidNodeError, match="'square' has no forward"):
        tape.record("square", (p.idx,))


# ops that only the tests record; tests/oracles.py registers them
_TEST_OPS = {"exp", "expm1", "log", "sqrt", "sin", "cos", "relu", "sum", "div", "rdivc",
             "powc", "where", "matmul"}


def test_op_table_holds_what_the_package_records():
    """Every builtin loss, on a trained network or on the analytic mock (whose
    head is a `const` leaf), records only ops of the package's own table, and
    that table holds nothing else but the plain tanh node; with the oracles
    imported the table also covers the ops only the tests record."""
    src = Path(ad.__file__).resolve().parents[1]
    own = subprocess.run(
        [sys.executable, "-c", "from ldgm import autodiff; print(*autodiff.OPS)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src))).stdout.split()
    recorded = set()
    for spec in builtin_problems() + [get_problem("bilaplacian_ritz", d=2)]:
        for method, entry in METHODS.items():
            if entry.variational != spec.stationary:
                continue
            batch = draw_batch(SamplerConfig(interior=6, initial=4, boundary=4, seed=1), spec, 0)
            for act in ad.ACTIVATION_KINDS:
                cfg = default_network_config(spec, method, hidden_layers=1, width=4,
                                             activation=act)
                tape = Tape()
                loss = entry.loss(spec, RitzConfig())(
                    Network(cfg, init_xavier(cfg, 0)).bind(tape), batch)
                backward(tape, loss.J_total)
                recorded |= {n.op for n in tape.nodes}
    for spec in (s for s in builtin_problems() if not s.stationary):
        forms = [f for f in (ldgm_system(spec), strong_form(spec)) if f.exact_outputs]
        batch = draw_batch(SamplerConfig(interior=4, initial=4, boundary=4, seed=1), spec, 0)
        for form in forms:
            tape = Tape()
            mock = AnalyticNetwork([str(e) for e in form.exact_outputs], spec.spatial_dim)
            backward(tape, ldgm_loss(form, mock.bind(tape), batch).J_total)
            recorded |= {n.op for n in tape.nodes}
    assert recorded <= set(own)
    assert set(own) - recorded == {"tanh"}
    assert set(own) | _TEST_OPS <= set(ad.OPS)


def test_replay_is_bit_exact_and_deterministic():
    def build():
        tape = Tape()
        p = tape.param(np.array([0.3, -0.7]))
        x = tape.input(np.linspace(-1, 1, 7))
        y = ad.mean(ad.tanh(ad.take(matmul(x.tape.const(np.ones((7, 1))), tape.const(np.ones((1, 2)))), (slice(None), 0)) * p.tape.const(1.0) + x * 0.5) * ad.taylor(x, "elu", ()))
        return tape, y

    t1, y1 = build()
    t2, y2 = build()
    assert y1.value.tobytes() == y2.value.tobytes()
    assert replay(t1)


# -- jets (the test-side algebra in oracles.py) -----------------------------


def test_jet_lift_definition():
    tape = Tape()
    x = tape.input(2.0)
    j = jet_lift(x, 1.0, 2)
    assert [float(c.value) for c in j.coeffs] == [2.0, 1.0, 0.0]
    assert float(jet_lift(x, 1.0, 0).primal.value) == 2.0


def test_zero_seed_stays_zero_through_ops():
    tape = Tape()
    x = tape.input(0.8)
    j = jet_lift(x, 0.0, 3)
    out = apply_activation(j * j + 1.5, "tanh")
    for c in out.coeffs[1:]:
        assert float(c.value) == 0.0


def test_order_zero_jet_matches_primal():
    tape = Tape()
    x = tape.input(0.37)
    j = jet_lift(x, 1.0, 0)
    out = apply_activation(j * 2.0 - 0.1, "elu")
    direct = ad.taylor(x * 2.0 - 0.1, "elu", ())
    assert float(out.primal.value) == float(direct.value)


def test_jet_product_is_cauchy_convolution():
    rng = np.random.default_rng(5)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    tape = Tape()
    ja = Jet([tape.const(v) for v in a])
    jb = Jet([tape.const(v) for v in b])
    prod = ja * jb
    full = np.convolve(a, b)[:5]
    got = np.array([float(c.value) for c in prod.coeffs])
    assert np.allclose(got, full, rtol=1e-14, atol=1e-14)


def test_jet_division_inverts_product():
    rng = np.random.default_rng(6)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    b[0] += 3.0
    tape = Tape()
    ja = Jet([tape.const(v) for v in a])
    jb = Jet([tape.const(v) for v in b])
    back = (ja * jb) / jb
    got = np.array([float(c.value) for c in back.coeffs])
    assert np.allclose(got, a, rtol=1e-12, atol=1e-12)


def test_tanh_jet_at_zero_matches_known_coefficients():
    tape = Tape()
    x = tape.input(0.0)
    out = apply_activation(jet_lift(x, 1.0, 4), "tanh")
    got = [float(c.value) for c in out.coeffs]
    # derivative ladder at 0: (0, 1, 0, -2, 0) -> coefficients (0, 1, 0, -1/3, 0)
    assert got == pytest.approx([0.0, 1.0, 0.0, -1.0 / 3.0, 0.0], abs=1e-15)


def test_identity_activation_leaves_jet_unchanged():
    # elu is the identity where z0 > 0: its taylor node passes every coefficient through
    stack = np.array([[1.3, 0.2], [0.4, -1.1], [-2.0, 0.5], [0.7, 3.0]])  # z0, three coefficients
    out = ad.taylor(Tape().input(stack), "elu", (1, 1, 1), 1, 1)
    assert out.value.tobytes() == stack.tobytes()


def sigmoid_jet(x):
    """The jet of sigmoid(x) = (1 + tanh(x/2)) / 2, through the tanh recurrence."""
    return apply_activation(x * 0.5, "tanh") * 0.5 + 0.5


def test_sigmoid_jet_order3_matches_nested_fd():
    tape = Tape()
    x0 = 0.7
    out = sigmoid_jet(jet_lift(tape.input(x0), 1.0, 3))
    got = float(out.coeffs[3].value) * math.factorial(3)
    fd = nested_derivative(lambda x: 1 / (1 + np.exp(-x)), x0, 3)
    assert abs(got - fd) / abs(fd) < 1e-5


@pytest.mark.parametrize("kind,np_fn", [
    ("tanh", np.tanh),
    ("sigmoid", lambda x: 1 / (1 + np.exp(-x))),
    ("elu", lambda x: np.where(x > 0, x, np.expm1(x))),
])
def test_jet_coefficients_match_nested_fd_up_to_order4(kind, np_fn):
    rng = np.random.default_rng(9)
    for _ in range(10):
        w, b, x0 = rng.uniform(0.4, 1.2, size=3)
        x0 += 0.3  # keep elu clear of its kink

        def f(x):
            return np_fn(w * x + b) * np_fn(-0.5 * x)

        tape = Tape()
        jx = jet_lift(tape.input(x0), 1.0, 4)
        act = sigmoid_jet if kind == "sigmoid" else lambda j: apply_activation(j, kind)
        out = act(jx * w + b) * act(jx * -0.5)
        for order in range(1, 5):
            got = float(out.coeffs[order].value) * math.factorial(order)
            want = nested_derivative(f, x0, order)
            assert abs(got - want) <= 1e-4 * max(abs(want), 1e-6), (kind, order)


def test_forward_over_reverse_matches_parameter_fd():
    # d/dtheta of a jet coefficient == finite differences of that coefficient
    x0 = 0.4
    theta0 = np.array([0.9, -0.6, 0.31])

    def coeff(theta, order):
        tape = Tape()
        p = [tape.param(v) for v in theta]
        jx = jet_lift(tape.input(x0), 1.0, 2)
        out = apply_activation(jx * p[0] + p[1], "tanh") * p[2]
        return out.coeffs[order], tape, p

    for order in (1, 2):
        c, tape, p = coeff(theta0, order)
        g = backward(tape, c)
        got = np.array([float(g[q.idx]) for q in p])
        fd = central_gradient(lambda v: float(coeff(v, order)[0].value), theta0)
        assert relative(got, fd) < 1e-5


def test_elu_jet_order2_takes_the_left_branch_at_the_kink():
    tape = Tape()
    at_kink = apply_activation(jet_lift(tape.input(np.array([0.5, 0.0])), 1.0, 2), "elu")
    # z0 == 0 is the exp side: elu(0), exp(0), exp(0)/2
    assert [float(c.value[1]) for c in at_kink.coeffs] == [0.0, 1.0, 0.5]
    assert [float(c.value[0]) for c in at_kink.coeffs] == [0.5, 1.0, 0.0]
    away = jet_lift(tape.input(np.array([0.5, -0.4])), 1.0, 2)
    out = apply_activation(away, "elu")
    # second derivative: 0 on the positive branch, e^x on the negative one
    d2 = out.coeffs[2].value * 2
    assert d2[0] == pytest.approx(0.0, abs=1e-12)
    assert d2[1] == pytest.approx(np.exp(-0.4), rel=1e-12)


def test_sin_cos_jets():
    x0 = 0.3
    tape = Tape()
    j = jet_lift(tape.input(x0), 1.0, 4)
    s = apply_sin(j)
    want = [np.sin(x0), np.cos(x0), -np.sin(x0) / 2, -np.cos(x0) / 6, np.sin(x0) / 24]
    got = [float(c.value) for c in s.coeffs]
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


# -- elu's value form and the order-1 block ------------------------------------


def _elu_by_select(z):
    return np.where(z > 0, z, np.expm1(z))


def test_elu_value_is_the_select_bit_for_bit():
    edges = np.array([-np.inf, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, np.inf])
    draws = np.random.default_rng(23).normal(size=10_000)
    for z in (edges, draws, draws.reshape(100, 100)):
        assert ad._value("elu", z).tobytes() == _elu_by_select(z).tobytes()
    for z in edges:  # 0-d input, as the scalar gradient checks pass it
        got = ad._value("elu", np.array(z))
        assert np.shape(got) == () and np.asarray(got).tobytes() == _elu_by_select(z).tobytes()
    assert np.isnan(ad._value("elu", np.array([np.nan, -np.nan]))).all()
    assert np.isnan(ad._value("elu", np.array(np.nan)))


def _order1_stack(kind, d):
    """An order-1 walk array ((1 + d) * 4, 3): z0 of 4 points, then x_1 of d directions.

    elu's preactivations include -1e-12, 0 and 1e-12, on both sides of its kink.
    """
    xv = np.random.default_rng(d).normal(size=(1 + d, 4, 3))
    if kind == "elu":
        xv[0, 0] = [-1e-12, 0.0, 1e-12]
    return xv.reshape(-1, 3)


def _taylor_node(kind, xv):
    tape = Tape()
    y = ad.taylor(tape.input(xv), kind, (len(xv) // 4 - 1,), 4, 4)
    return tape.nodes[y.idx]


def _difference(f, h, side):
    """f'(0) by central differences, or one-sided (second order) on a kink's side."""
    if side == 0:
        return (f(h) - f(-h)) / (2 * h)
    return side * (-3 * f(0.0) + 4 * f(side * h) - f(2 * side * h)) / (2 * h)


@pytest.mark.parametrize("kind,d", [(kind, d) for kind in ad.ACTIVATION_KINDS for d in (1, 2, 6)])
def test_order1_block_matches_finite_differences(kind, d):
    xv = _order1_stack(kind, d)
    z0 = xv[:4]
    node = _taylor_node(kind, xv)
    h = 1e-6
    # the jet takes elu's exp side at z0 <= 0 and the identity's at z0 > 0; next
    # to the kink the differences stay on that side
    near = (np.abs(z0) < 3 * h) & (kind == "elu")
    side = np.where(near, np.where(z0 > 0, 1, -1), 0)
    slope = np.array([_difference(lambda e: ad._value(kind, np.array(z + e)), h, s)
                      for z, s in zip(z0.ravel(), side.ravel())]).reshape(z0.shape)
    assert np.allclose(node.value[4:].reshape(d, 4, 3), xv[4:].reshape(d, 4, 3) * slope,
                       rtol=1e-8, atol=1e-9)
    g = np.random.default_rng(d).normal(size=xv.shape)
    got = ad.OPS["taylor"][1](node, g, [xv])[0]
    for i in np.ndindex(xv.shape):
        e = np.zeros_like(xv)
        e[i] = 1.0
        fd = _difference(lambda t: np.sum(g * _taylor_node(kind, xv + t * e).value), h,
                         side[i] if i[0] < 4 else 0)
        assert abs(got[i] - fd) <= 1e-7 * max(1.0, abs(fd)), (i, got[i], fd)
