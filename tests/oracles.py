"""Independent numerical oracles used across the test suite.

Most of this is deliberately written without the package's autodiff or
FFT machinery: plain finite differences, naive DFT summation, and a dense
linear-algebra time stepper, so the main implementations are checked
against genuinely separate code paths.  The jet section is the exception:
it records on the package's tape (with the ops only the tests use, which
register their forwards and reverses in the package's op table), but it
is a second, scalar implementation of the truncated-Taylor algebra and
recurrences (and a second interpreter of the tape), written apart from
the network's own jet walk so that each checks the other.
"""

import dataclasses

import numpy as np

from ldgm import autodiff as ad
from ldgm.errors import UnavailableError
from ldgm.network import Network, ParameterSet, _layer_plan

# step sizes tuned per order for Richardson-extrapolated central stencils
_FD_STEPS = {1: 1e-5, 2: 5e-4, 3: 8e-3, 4: 4e-2}


def central_gradient(f, x, h=1e-5):
    """Central-difference gradient of scalar f over a flat parameter vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def _stencil(f, x, order, h):
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
    if order == 4:
        return (f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h) + f(x - 2 * h)) / h**4
    raise ValueError(order)


def nested_derivative(f, x, order, h=None):
    """d^order f/dx^order by central stencils with two Richardson levels."""
    h = h or _FD_STEPS[order]
    d1 = _stencil(f, x, order, h)
    d2 = _stencil(f, x, order, h / 2)
    d4 = _stencil(f, x, order, h / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d4 - d2) / 3
    return (16 * r2 - r1) / 15


def naive_dft(x):
    """O(N^2) unitary DFT by direct summation."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    m = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return m @ x / np.sqrt(n)


def dense_ch_solver(u0, epsilon, dt, n_steps):
    """Semi-implicit biharmonic-splitting stepper built on dense matrices.

    Derivative operators come from the explicit DFT matrix (no FFT), and
    each step solves a dense linear system in physical space.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    n = u0.size
    idx = np.arange(n)
    f_mat = np.exp(-2j * np.pi * np.outer(idx, idx) / n)
    f_inv = np.conj(f_mat) / n
    k = np.where(idx <= n // 2, idx, idx - n)
    d2 = np.real(f_inv @ np.diag(-(k.astype(float) ** 2)) @ f_mat)
    d4 = np.real(f_inv @ np.diag(k.astype(float) ** 4) @ f_mat)
    lhs = np.eye(n) + dt * epsilon * d4
    u = u0.copy()
    for _ in range(n_steps):
        fu = u - u**3
        u = np.linalg.solve(lhs, u - dt * (d2 @ fu))
    return u


def relative(a, b):
    """Norm-wise relative discrepancy."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def exact_solution(spec, x, t) -> np.ndarray:
    """Hand-coded closed forms, kept independent of the registry's path."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if spec.name == "beam":
        return np.exp(-t) * np.sin(x[:, 0])
    if spec.name == "mkdv":
        return np.tanh(x[:, 0] + 2.0 * t - 1.0)
    if spec.name == "heat_nd":
        return np.sum(x * (1.0 - x), axis=1) * (t + 1.0)
    raise UnavailableError(f"{spec.name} has no closed-form solution here")


# -- ops only the tests record --------------------------------------------------
# Each puts its forward and reverse in the package's op table, so the tape
# records, replays and differentiates it like the package's own ops;
# `replay` below recomputes the unary ones from _FORWARD.


_FORWARD = {}


def _unary(op, forward, reverse):
    """Tape op `op` of one var; reverse(g, x, y) gives the adjoint of x."""
    ad.OPS[op] = (lambda node, xs: forward(xs[0]),
                  lambda node, g, xs: (reverse(g, xs[0], node.value),))
    _FORWARD[op] = forward
    return lambda x: x.tape.record(op, (x.idx,))


exp = _unary("exp", np.exp, lambda g, x, y: g * y)
expm1 = _unary("expm1", np.expm1, lambda g, x, y: g * np.exp(x))
log = _unary("log", np.log, lambda g, x, y: g / x)
sqrt = _unary("sqrt", np.sqrt, lambda g, x, y: g * 0.5 / y)
sin = _unary("sin", np.sin, lambda g, x, y: g * np.cos(x))
cos = _unary("cos", np.cos, lambda g, x, y: -g * np.sin(x))
relu = _unary("relu", lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0))
total = _unary("sum", lambda x: np.asarray(np.sum(x)), lambda g, x, y: np.broadcast_to(g, x.shape))


def div(a, b):
    return ad.tape_of(a, b).record("div", (a.idx, b.idx))


def rdiv(c, x):
    """c / x for a constant c."""
    return x.tape.record("rdivc", (x.idx,), np.asarray(c, dtype=np.float64))


def power(x, p):
    """x ** p for a constant p."""
    return x.tape.record("powc", (x.idx,), float(p))


def where(mask, a, b):
    """Elementwise select with a constant (non-differentiated) mask."""
    return ad.tape_of(a, b).record("where", (a.idx, b.idx), np.asarray(mask, dtype=bool))


def matmul(a, b):
    return ad.tape_of(a, b).record("matmul", (a.idx, b.idx))


ad.OPS.update({
    "div": (lambda node, xs: xs[0] / xs[1],
            lambda node, g, xs: (g / xs[1], -g * xs[0] / (xs[1] * xs[1]))),
    "rdivc": (lambda node, xs: node.aux / xs[0],
              lambda node, g, xs: (-g * node.aux / (xs[0] * xs[0]),)),
    "powc": (lambda node, xs: xs[0] ** node.aux,
             lambda node, g, xs: (g * node.aux * xs[0] ** (node.aux - 1.0),)),
    "where": (lambda node, xs: np.where(node.aux, xs[0], xs[1]),
              lambda node, g, xs: (g * node.aux, g * ~node.aux)),
    "matmul": (lambda node, xs: xs[0] @ xs[1],
               lambda node, g, xs: ad._matmul_vjp(xs[0], xs[1], g)),
})


# -- Taylor jets on the tape --------------------------------------------------


class Jet(ad.Jet):
    """The library's jet container plus the truncated Taylor algebra.

    An order-0 jet behaves exactly like its primal value; products follow
    the Cauchy convolution of the truncated algebra.
    """

    __slots__ = ()

    @property
    def primal(self):
        return self.coeffs[0]

    def __add__(self, other):
        if isinstance(other, ad.Jet):
            return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)])
        return Jet([self.coeffs[0] + other] + self.coeffs[1:])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ad.Jet):
            return Jet([a - b for a, b in zip(self.coeffs, other.coeffs)])
        return Jet([self.coeffs[0] - other] + self.coeffs[1:])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, ad.Jet):
            return Jet([c * other for c in self.coeffs])
        if other.order != self.order:
            raise ValueError("jet orders differ")
        a, b = self.coeffs, other.coeffs
        out = []
        for j in range(len(a)):
            s = a[0] * b[j]
            for i in range(1, j + 1):
                s = s + a[i] * b[j - i]
            out.append(s)
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, ad.Jet):
            return Jet([c * (1.0 / np.asarray(other, dtype=np.float64)) for c in self.coeffs])
        if other.order != self.order:
            raise ValueError("jet orders differ")
        a, b = self.coeffs, other.coeffs
        out = [div(a[0], b[0])]
        for j in range(1, len(a)):
            s = a[j]
            for i in range(1, j + 1):
                s = s - b[i] * out[j - i]
            out.append(div(s, b[0]))
        return Jet(out)


def jet_lift(x, direction_seed: float, order: int) -> Jet:
    """Seed a jet: coeffs (x, seed, 0, ..., 0)."""
    if order < 0:
        raise ValueError("jet order must be >= 0")
    if order == 0:
        return Jet([x])
    tape = x.tape
    shape = x.value.shape
    seed = tape.const(np.full(shape, float(direction_seed)))
    zeros = [tape.const(np.zeros(shape)) for _ in range(order - 1)]
    return Jet([x, seed] + zeros)


def _compose(x, y0, gcoeff) -> Jet:
    """Univariate composition y = f(x) given y0 and the coefficients of f'(x(s)).

    gcoeff(m, ys) returns coefficient m of the derivative series, built from
    the output coefficients computed so far; the standard recurrence is
        j * y_j = sum_{i=1..j} i * x_i * g_{j-i}.
    """
    k = x.order
    xs = x.coeffs
    ys = [y0]
    gs = []
    for j in range(1, k + 1):
        gs.append(gcoeff(j - 1, ys))
        s = xs[1] * gs[j - 1]
        for i in range(2, j + 1):
            s = s + float(i) * xs[i] * gs[j - i]
        ys.append(s if j == 1 else s * (1.0 / j))
    return Jet(ys)


def _conv(a, b, m):
    s = a[0] * b[m]
    for i in range(1, m + 1):
        s = s + a[i] * b[m - i]
    return s


def _tanh_series(m, ys):
    """Coefficient m of tanh'(x(s)) = 1 - tanh^2, from the output coefficients ys found so far."""
    return (1.0 - _conv(ys, ys, m)) if m == 0 else -_conv(ys, ys, m)


def apply_activation(x, kind: str):
    """Compose an activation with a jet via the truncated-Taylor recurrences."""
    x0 = x.coeffs[0]
    if kind == "tanh":
        return _compose(x, ad.tanh(x0), _tanh_series)
    if kind == "elu":
        # one-sided: the identity where z0 > 0, the exp side elsewhere (z0 == 0 too)
        neg = elu_exp_side(x)
        return Jet([where(x0.value > 0, p, n) for p, n in zip(x.coeffs, neg.coeffs)])
    raise ValueError(f"unknown activation kind {kind!r}")


def elu_exp_side(x) -> Jet:
    """The jet of expm1 at x: elu's branch where z0 <= 0.

    y' = exp(x) = y + 1, so the derivative series after its first term is
    y itself.
    """
    x0 = x.coeffs[0]
    slope = exp(x0)
    return _compose(x, expm1(x0), lambda m, ys: slope if m == 0 else ys[m])


def apply_sin(x) -> Jet:
    return _sin_cos(x)[0]


def apply_cos(x) -> Jet:
    return _sin_cos(x)[1]


def _sin_cos(x):
    # paired recurrence: s' = c x', c' = -s x'
    k = x.order
    xs = x.coeffs
    ss = [sin(xs[0])]
    cs = [cos(xs[0])]
    for j in range(1, k + 1):
        s = xs[1] * cs[j - 1]
        c = xs[1] * ss[j - 1]
        for i in range(2, j + 1):
            s = s + float(i) * xs[i] * cs[j - i]
            c = c + float(i) * xs[i] * ss[j - i]
        ss.append(s if j == 1 else s * (1.0 / j))
        cs.append(c * (-1.0 / j))
    return Jet(ss), Jet(cs)


def network_jets(net, x, t, orders: dict):
    """Jets of every output along each direction in `orders`, from the jets above.

    orders maps a spatial axis or "t" to a jet order.  Each direction gets
    its own walk over the trained layers of `net`, one affine map and one
    activation at a time on a fresh tape, as a reference for the network's
    own jet walk.  Returns {direction: [jet per output]}.
    """
    cfg = net.config
    tape = ad.Tape()
    p = {name: tape.param(a) for name, a in zip(net.params.names, net.params.arrays)}
    X = np.column_stack([x, t])
    xin = tape.input(X)

    def affine(h, w, b):
        return Jet([ad.affine(h.coeffs[0], p[w], p[b])] + [matmul(c, p[w]) for c in h.coeffs[1:]])

    *hidden, (w_out, b_out, _) = _layer_plan(cfg)
    jets = {}
    for dd, order in orders.items():
        seed = np.zeros_like(X)
        seed[:, X.shape[1] - 1 if dd == "t" else dd] = 1.0
        coeffs = [xin, tape.const(seed)] + [tape.const(np.zeros_like(X)) for _ in range(order - 1)]
        h = Jet(coeffs[:order + 1])
        for w, b, _ in hidden:
            h = apply_activation(affine(h, w, b), cfg.hidden_activation)
        y = affine(h, w_out, b_out)
        jets[dd] = [Jet([ad.take(c, (slice(None), j)) for c in y.coeffs])
                    for j in range(cfg.output_dim)]
    return jets


def sigmoid_net(net, head: bool = False):
    """A tanh network computing `net` with sigmoid units, sigmoid(z) = (1 + tanh(z/2)) / 2.

    head=False reads every hidden unit of the tanh net `net` as a sigmoid:
    each preactivation is halved, and each sigmoid's scale and offset of 1/2
    is folded into the layer after it.  head=True keeps the tanh units and
    puts a sigmoid over each output instead: one more tanh layer (the head's
    map halved, padded with zero units to the width) read out by a head of
    weight and offset 1/2.  So the package's two kinds carry the sigmoid
    nets the per-kind test matrices check.
    """
    cfg = net.config
    assert cfg.hidden_activation == "tanh"
    p = dict(zip(net.params.names, net.params.arrays))
    if head:
        w_out, b_out = p["w_out"], p["b_out"]
        width, m = w_out.shape
        assert m <= width, "the sigmoid layer needs a unit per output"
        w, b = np.zeros((width, width)), np.zeros(width)
        w[:, :m], b[:m] = 0.5 * w_out, 0.5 * b_out
        p[f"w_h{cfg.hidden_layers}"], p[f"b_h{cfg.hidden_layers}"] = w, b
        p["w_out"], p["b_out"] = 0.5 * np.eye(width, m), np.full(m, 0.5)
        cfg = dataclasses.replace(cfg, hidden_layers=cfg.hidden_layers + 1)
    else:
        plan = _layer_plan(cfg)
        for i, (w, b, _) in enumerate(plan):
            W, B = p[w], p[b]
            if i == 0:
                p[w], p[b] = 0.5 * W, 0.5 * B
            elif i < len(plan) - 1:
                p[w], p[b] = 0.25 * W, 0.25 * W.sum(axis=0) + 0.5 * B
            else:
                p[w], p[b] = 0.5 * W, 0.5 * W.sum(axis=0) + B
    names = [n for w, b, _ in _layer_plan(cfg) for n in (w, b)]
    return Network(cfg, ParameterSet(names, [p[n] for n in names]))


def _taylor_values(xv, kind, blocks):
    """The value of a `taylor` node, one direction at a time through `_compose`.

    With no blocks xv is the preactivation; otherwise direction r holds
    coefficient j in slot 1 + sum(blocks[:j-1]) + r while r < blocks[j-1].
    """
    z0 = xv[0] if blocks else xv
    if kind == "elu":
        with np.errstate(over="ignore"):  # its exp side is masked out where z0 > 0
            y0 = np.expm1(z0)
            slope = np.exp(z0)
        series = lambda m, ys: slope if m == 0 else ys[m]  # noqa: E731
    else:
        y0, series = np.tanh(z0), _tanh_series
    if not blocks:
        return np.where(z0 > 0, z0, y0) if kind == "elu" else y0
    starts = np.cumsum((1,) + tuple(blocks))
    out = np.empty_like(xv)
    out[0] = y0
    for r in range(blocks[0]):
        slots = [starts[j] + r for j in range(len(blocks)) if r < blocks[j]]
        out[slots] = _compose(Jet([z0] + [xv[s] for s in slots]), y0, series).coeffs[1:]
    return np.where(z0 > 0, xv, out) if kind == "elu" else out


def replay(tape) -> bool:
    """Recompute every node from the record; True iff all values match bit-for-bit."""
    vals: list[np.ndarray] = []
    for node in tape.nodes:
        op, ins, aux = node.op, node.inputs, node.aux
        if op in ("const", "input", "param"):
            v = node.value
        elif op == "add":
            v = np.add(vals[ins[0]], vals[ins[1]])
        elif op == "sub":
            v = np.subtract(vals[ins[0]], vals[ins[1]])
        elif op == "mul":
            v = np.multiply(vals[ins[0]], vals[ins[1]])
        elif op == "div":
            v = np.divide(vals[ins[0]], vals[ins[1]])
        elif op == "addc":
            v = np.add(vals[ins[0]], aux)
        elif op == "rsubc":
            v = aux - vals[ins[0]]
        elif op == "mulc":
            v = np.multiply(vals[ins[0]], aux)
        elif op == "rdivc":
            v = aux / vals[ins[0]]
        elif op == "neg":
            v = -vals[ins[0]]
        elif op == "powc":
            v = vals[ins[0]] ** aux
        elif op in _FORWARD:
            v = _FORWARD[op](vals[ins[0]])
        elif op == "tanh":
            v = np.tanh(vals[ins[0]])
        elif op == "where":
            v = np.where(aux, vals[ins[0]], vals[ins[1]])
        elif op == "matmul":
            v = vals[ins[0]] @ vals[ins[1]]
        elif op == "affine":
            x, w, b = (vals[i] for i in ins)
            if x.ndim == 2:
                v = x @ w + b
            else:  # a jet stack: slice by slice, the bias on the value slot only
                v = np.stack([x[s] @ w for s in range(x.shape[0])])
                v[0] = v[0] + b
        elif op == "taylor":
            v = _taylor_values(vals[ins[0]], *aux)
        elif op == "take":
            v = vals[ins[0]][aux]
        elif op == "mean":
            v = np.asarray(np.mean(vals[ins[0]]))
        else:  # pragma: no cover
            raise NotImplementedError(op)
        vals.append(v)
        a, b = np.asarray(v), node.value
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True
