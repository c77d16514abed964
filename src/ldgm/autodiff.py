"""Tape-based reverse-mode differentiation plus the Taylor-jet container.

The tape records every elementary operation on float64 arrays.  A tracked
value is a handle into the tape; a 0-d array is the plain scalar case, and
batched evaluation stores one array per node (same recorded computation,
evaluated at many sample points at once).  Reverse mode gives exact
gradients with respect to nodes flagged as parameters.  A jet holds the
truncated Taylor coefficients of a value along one input direction; the
network computes them (see `network`), and because each coefficient is
itself a tape node, any derivative a jet produces remains differentiable
with respect to the parameters (one reverse pass suffices).

The network computes jets on jet stacks: one array whose slot 0 is a value
and whose further slots are the Taylor coefficients of every direction.
`affine` maps a whole stack with one product and `taylor` applies an
activation to it through the Taylor recurrence, each as one node with a
hand-written reverse, so the layers' part of the tape grows with the
number of layers and not with the jet orders.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidNodeError

JET_ORDER_CAP = 6

ACTIVATION_KINDS = ("tanh", "sigmoid", "elu", "identity", "relu")


class Node:
    __slots__ = ("op", "inputs", "aux", "value", "is_param")

    def __init__(self, op, inputs, aux, value, is_param=False):
        self.op = op
        self.inputs = inputs
        self.aux = aux
        self.value = value
        self.is_param = is_param


class Tape:
    """Append-only record of a computation.

    Node ids are topologically ordered by construction: an operation can
    only reference nodes that already exist.  A tape is single-writer;
    concurrent evaluation uses one tape per worker.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def _push(self, op, inputs, aux, value, is_param=False) -> "Var":
        self.nodes.append(Node(op, inputs, aux, value, is_param))
        return Var(self, len(self.nodes) - 1)

    def const(self, value) -> "Var":
        return self._push("const", (), None, np.asarray(value, dtype=np.float64))

    def input(self, value) -> "Var":
        """A leaf that is differentiable but not a parameter (e.g. x, t)."""
        return self._push("input", (), None, np.asarray(value, dtype=np.float64))

    def param(self, value) -> "Var":
        return self._push("param", (), None, np.asarray(value, dtype=np.float64), is_param=True)

    def __len__(self):
        return len(self.nodes)


class Var:
    """Handle to one tape node."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: Tape, idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.nodes[self.idx].value

    def item(self) -> float:
        return float(self.value)

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic ------------------------------------------------------

    def _binary(self, op, other, fn):
        t = self.tape
        if isinstance(other, Var):
            if other.tape is not t:
                raise InvalidNodeError("operands recorded on different tapes")
            return t._push(op, (self.idx, other.idx), None, fn(self.value, other.value))
        c = np.asarray(other, dtype=np.float64)
        return t._push(op + "c", (self.idx,), c, fn(self.value, c))

    def __add__(self, other):
        return self._binary("add", other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return self._binary("sub", other, np.subtract)
        return self.__add__(-np.asarray(other, dtype=np.float64))

    def __rsub__(self, other):
        c = np.asarray(other, dtype=np.float64)
        return self.tape._push("rsubc", (self.idx,), c, c - self.value)

    def __mul__(self, other):
        return self._binary("mul", other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            return self._binary("div", other, np.divide)
        return self.__mul__(1.0 / np.asarray(other, dtype=np.float64))

    def __rtruediv__(self, other):
        c = np.asarray(other, dtype=np.float64)
        return self.tape._push("rdivc", (self.idx,), c, c / self.value)

    def __neg__(self):
        return self.tape._push("neg", (self.idx,), None, -self.value)

    def __pow__(self, p):
        p = float(p)
        return self.tape._push("powc", (self.idx,), p, self.value ** p)


def _unary(op, x: Var, value, aux=None) -> Var:
    return x.tape._push(op, (x.idx,), aux, value)


def exp(x: Var) -> Var:
    return _unary("exp", x, np.exp(x.value))


def log(x: Var) -> Var:
    return _unary("log", x, np.log(x.value))


def sqrt(x: Var) -> Var:
    return _unary("sqrt", x, np.sqrt(x.value))


def tanh(x: Var) -> Var:
    return _unary("tanh", x, np.tanh(x.value))


def sigmoid(x: Var) -> Var:
    return _unary("sigmoid", x, 0.5 * (np.tanh(0.5 * x.value) + 1.0))


def sin(x: Var) -> Var:
    return _unary("sin", x, np.sin(x.value))


def cos(x: Var) -> Var:
    return _unary("cos", x, np.cos(x.value))


def elu(x: Var, alpha: float = 1.0) -> Var:
    v = x.value
    return _unary("elu", x, np.where(v > 0, v, alpha * np.expm1(v)), float(alpha))


def relu(x: Var) -> Var:
    return _unary("relu", x, np.maximum(x.value, 0.0))


def where(mask: np.ndarray, a: Var, b: Var) -> Var:
    """Elementwise select with a constant (non-differentiated) mask."""
    if a.tape is not b.tape:
        raise InvalidNodeError("operands recorded on different tapes")
    mask = np.asarray(mask, dtype=bool)
    return a.tape._push("where", (a.idx, b.idx), mask, np.where(mask, a.value, b.value))


def matmul(a: Var, b: Var) -> Var:
    if a.tape is not b.tape:
        raise InvalidNodeError("operands recorded on different tapes")
    return a.tape._push("matmul", (a.idx, b.idx), None, a.value @ b.value)


def affine(x: Var, w: Var, b: Var) -> Var:
    """x @ w + b as one node (the network's layer primitive).

    A 3-d x is a jet stack: slot 0 holds the value and slots 1.. its Taylor
    coefficients.  The product runs slice by slice (each slice gives the
    bits of the 2-d product) and only the value slot is shifted by b.
    """
    if x.tape is not w.tape or x.tape is not b.tape:
        raise InvalidNodeError("operands recorded on different tapes")
    if x.value.ndim == 2:
        return x.tape._push("affine", (x.idx, w.idx, b.idx), None, x.value @ w.value + b.value)
    v = np.matmul(x.value, w.value)
    v[0] += b.value
    return x.tape._push("affine", (x.idx, w.idx, b.idx), None, v)


def column(y: Var, j: int) -> Var:
    """Extract column j of a 2-d node."""
    return y.tape._push("col", (y.idx,), int(j), y.value[:, j])


def take(y: Var, index) -> Var:
    """y[index] for a basic (slicing) index, e.g. one coefficient of a jet stack."""
    return y.tape._push("take", (y.idx,), index, y.value[index])


def total(x: Var) -> Var:
    return _unary("sum", x, np.asarray(np.sum(x.value)))


def mean(x: Var) -> Var:
    return _unary("mean", x, np.asarray(np.mean(x.value)))


def var_activation(x: Var, kind: str, alpha: float = 1.0) -> Var:
    if kind == "tanh":
        return tanh(x)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "elu":
        return elu(x, alpha)
    if kind == "identity":
        return x
    if kind == "relu":
        return relu(x)
    raise ValueError(f"unknown activation kind {kind!r}")


# -- Taylor-mode activations on jet stacks ---------------------------------


def taylor(x: Var, kind: str, blocks: tuple, alpha: float = 1.0) -> Var:
    """An activation applied to a jet stack, recorded as one node.

    Slot 0 of x holds the preactivation z0.  Coefficient j >= 1 of the
    first blocks[j-1] directions fills the next blocks[j-1] slots; the
    directions are ordered by decreasing jet order, so each block is a
    prefix of the one before it.  The output coefficients follow
        j * y_j = sum_{i=1..j} i * x_i * g_{j-i},
    with the derivative series g built from y itself (tanh: 1 - y^2,
    sigmoid: y - y^2, exp: y).  Every step runs on a whole block in the
    operation order of the scalar recurrence, so each slot gets the bits
    of the per-direction computation.  elu takes the exp series where
    z0 <= 0 and the identity elsewhere; relu carries order-1 slots only
    (its higher orders do not exist, and the network refuses them).
    """
    xv = x.value
    z0 = xv[0]
    y = np.empty_like(xv)
    y0 = y[0]
    if kind == "tanh":
        np.tanh(z0, out=y0)
        saved = _series(xv, y, 1.0 - y0 * y0, blocks, kind)
    elif kind == "sigmoid":
        np.multiply(z0, 0.5, out=y0)
        np.tanh(y0, out=y0)
        y0 += 1.0
        y0 *= 0.5
        saved = _series(xv, y, y0 - y0 * y0, blocks, kind)
    elif kind == "elu":
        mask = z0 > 0
        e = np.empty_like(xv)
        # exp of the positive side is never used; clipping keeps it finite
        np.exp(np.minimum(z0, 0.0), out=e[0])
        gs = _series(xv, e, e[0], blocks, "exp")
        np.multiply(e, alpha, out=y)
        y0 -= alpha
        y = np.where(mask, xv, y)
        pos = mask.astype(np.float64)
        saved = (pos, (1.0 - pos) * alpha, e, gs)
    elif kind == "relu":
        saved = z0 > 0
        np.maximum(z0, 0.0, out=y0)
        np.multiply(xv[1:], saved, out=y[1:])
    else:
        raise ValueError(f"activation {kind!r} has no Taylor node")
    return x.tape._push("taylor", (x.idx,), (kind, tuple(blocks), float(alpha), saved), y)


def block_starts(blocks) -> list[int]:
    """starts[j-1] is the first slot of coefficient block j (starts[-1] = 1 + slots)."""
    starts = [1]
    for d in blocks:
        starts.append(starts[-1] + d)
    return starts


def _coef(a, starts, j, d):
    """Coefficient j of the first d directions of stack a (j = 0: the shared value)."""
    return a[0] if j == 0 else a[starts[j - 1]:starts[j - 1] + d]


def _series(x, y, g0, blocks, kind) -> list:
    """Fill coefficient blocks 1.. of y (y[0] set) from x; returns the series g.

    g[m] for m >= 1 covers the blocks[m] directions that need it.
    """
    starts = block_starts(blocks)
    gs = [g0]
    tmp = np.empty_like(x[1:starts[1]]) if len(blocks) > 1 else None
    for j in range(1, len(blocks) + 1):
        d = blocks[j - 1]
        if j >= 2:
            t = tmp[:d]
            m = j - 1
            ym = _coef(y, starts, m, d)
            if kind == "exp":
                g = ym
            else:
                g = y[0] * ym
                for a in range(1, m + 1):
                    g += np.multiply(_coef(y, starts, a, d), _coef(y, starts, m - a, d), out=t)
                if kind == "tanh":
                    np.negative(g, out=g)
                else:
                    np.subtract(ym, g, out=g)
            gs.append(g)
        out = _coef(y, starts, j, d)
        np.multiply(_coef(x, starts, 1, d), g0 if j == 1 else gs[j - 1][:d], out=out)
        for i in range(2, j + 1):
            np.multiply(_coef(x, starts, i, d), float(i), out=t)
            t *= g0 if i == j else gs[j - i][:d]
            out += t
        if j >= 2:
            out *= 1.0 / j
    return gs


def _series_vjp(x, y, gs, yb, blocks, kind):
    """Reverse of `_series`, in place: yb's coefficient slots go in holding the
    adjoints of y's and come out holding those of x's (slot 0 is untouched).

    The first sweep walks j from high to low: y_j hands its adjoint to
    g_{j-1}..g_0, then g_{j-1} hands its own to y_0..y_{j-1} through
    d conv_m / d y_a = 2 y_{m-a}.  The second sweep turns each y_i's
    adjoint into x_i's; x_i's needs no y_j with j < i, so it can take y_i's
    place.  Returns the adjoints that the coefficients pass to y_0 and g_0.
    """
    starts = block_starts(blocks)
    order = len(blocks)
    tmp = np.empty_like(x[1:starts[1]]) if order > 1 else None
    y0b, g0b, sum_d = np.zeros_like(x[0]), np.zeros_like(x[0]), np.empty_like(x[0])
    # g_m = y_m for exp, so its adjoint goes straight into yb
    gb = [None] + ([] if kind == "exp" else [np.zeros_like(g) for g in gs[1:]])
    for j in range(order, 0, -1):
        d = blocks[j - 1]
        t = None if tmp is None else tmp[:d]
        sb = _coef(yb, starts, j, d)
        if j >= 2:
            sb *= 1.0 / j
        for i in range(1, j + 1):
            m = j - i
            if m == 0:
                # g_0 is shared by the directions: sum their contributions
                np.einsum("d...,d...->...", sb, _coef(x, starts, i, d), out=sum_d)
                if i > 1:
                    sum_d *= float(i)
                g0b += sum_d
                continue
            np.multiply(sb, _coef(x, starts, i, d), out=t)
            if i > 1:
                t *= float(i)
            if kind == "exp":
                _coef(yb, starts, m, d)[...] += t
            else:
                gb[m][:d] += t
        if j >= 2 and kind != "exp":
            m = j - 1
            cb = gb[m]
            if kind == "sigmoid":
                _coef(yb, starts, m, d)[...] += cb
            cb *= -2.0
            y0b += np.einsum("d...,d...->...", cb, _coef(y, starts, m, d), out=sum_d)
            for a in range(1, m + 1):
                _coef(yb, starts, a, d)[...] += np.multiply(cb, _coef(y, starts, m - a, d), out=t)
    for i in range(1, order + 1):
        xi = _coef(yb, starts, i, blocks[i - 1])
        xi *= gs[0]
        for j in range(i + 1, order + 1):
            d = blocks[j - 1]
            xi[:d] += np.multiply(_coef(yb, starts, j, d), gs[j - i][:d], out=tmp[:d])
        if i > 1:
            xi *= float(i)
    return y0b, g0b


def _taylor_vjp(node: Node, xv: np.ndarray, g: np.ndarray) -> np.ndarray:
    kind, blocks, alpha, saved = node.aux
    if kind == "relu":
        return g * saved
    if kind == "elu":
        # float masks: the exp side's adjoints vanish where z0 > 0
        pos, neg_alpha, e, gs = saved
        xb = g * neg_alpha
        _, e0b = _series_vjp(xv, e, gs, xb, blocks, "exp")
        xb[1:] += g[1:] * pos
        xb0 = xb[0]
        xb0 += e0b
        xb0 *= e[0]
        xb0 += g[0] * pos
        return xb
    xb = g.copy()
    y0b, g0b = _series_vjp(xv, node.value, saved, xb, blocks, kind)
    # slot 0: (adjoint of y0 + y0b + g0b * dg0/dy0) * f'(z0), with f'(z0) = g0
    xb0 = xb[0]
    xb0 += y0b
    dg0 = np.multiply(node.value[0], -2.0, out=y0b)
    if kind == "sigmoid":
        dg0 += 1.0
    g0b *= dg0
    xb0 += g0b
    xb0 *= saved[0]
    return xb


# -- reverse mode ---------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _matmul_vjp(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Adjoints of a @ b; a 3-d a is a stack of row blocks sharing b."""
    if a.ndim == 2:
        return g @ b.T, a.T @ g
    g2 = g.reshape(-1, g.shape[-1])
    return (g2 @ b.T).reshape(a.shape), a.reshape(-1, a.shape[-1]).T @ g2


def backward(tape: Tape, output: Var, wrt=None) -> dict[int, np.ndarray]:
    """Adjoints of `output` for every parameter node (plus any `wrt` vars).

    Shared subexpressions accumulate by summation in a fixed reverse order,
    so two identical calls produce bit-identical gradients.  Nodes with no
    path to the output get an explicit zero gradient.
    """
    if output.tape is not tape or not (0 <= output.idx < len(tape.nodes)):
        raise InvalidNodeError("output is not a node on this tape")

    nodes = tape.nodes
    adj: list = [None] * (output.idx + 1)
    adj[output.idx] = np.ones_like(nodes[output.idx].value)

    owned: set[int] = set()  # adjoints this sweep allocated itself (safe to update in place)

    def acc(i, g):
        a = adj[i]
        adj[i] = g if a is None else a + g

    for i in range(output.idx, -1, -1):
        g = adj[i]
        if g is None:
            continue
        node = nodes[i]
        op = node.op
        if op in ("const", "input", "param"):
            continue
        ins = node.inputs
        if op == "affine":
            x, w, b = ins
            gx, gw = _matmul_vjp(nodes[x].value, nodes[w].value, g)
            acc(x, gx)
            acc(w, gw)
            # a jet stack's bias shifts its value slot only
            acc(b, _unbroadcast(g if g.ndim == 2 else g[0], nodes[b].value.shape))
        elif op == "taylor":
            acc(ins[0], _taylor_vjp(node, nodes[ins[0]].value, g))
        elif op == "take":
            # coefficients scatter into one buffer owned by this sweep
            src = ins[0]
            if src not in owned:
                a = adj[src]
                adj[src] = np.zeros_like(nodes[src].value) if a is None else a.copy()
                owned.add(src)
            adj[src][node.aux] += g
        elif op == "add":
            a, b = ins
            acc(a, _unbroadcast(g, nodes[a].value.shape))
            acc(b, _unbroadcast(g, nodes[b].value.shape))
        elif op == "sub":
            a, b = ins
            acc(a, _unbroadcast(g, nodes[a].value.shape))
            acc(b, _unbroadcast(-g, nodes[b].value.shape))
        elif op == "mul":
            a, b = ins
            acc(a, _unbroadcast(g * nodes[b].value, nodes[a].value.shape))
            acc(b, _unbroadcast(g * nodes[a].value, nodes[b].value.shape))
        elif op == "div":
            a, b = ins
            bv = nodes[b].value
            acc(a, _unbroadcast(g / bv, nodes[a].value.shape))
            acc(b, _unbroadcast(-g * nodes[a].value / (bv * bv), nodes[b].value.shape))
        elif op == "addc":
            acc(ins[0], _unbroadcast(g, nodes[ins[0]].value.shape))
        elif op == "rsubc":
            acc(ins[0], _unbroadcast(-g, nodes[ins[0]].value.shape))
        elif op == "mulc":
            acc(ins[0], _unbroadcast(g * node.aux, nodes[ins[0]].value.shape))
        elif op == "rdivc":
            xv = nodes[ins[0]].value
            acc(ins[0], _unbroadcast(-g * node.aux / (xv * xv), nodes[ins[0]].value.shape))
        elif op == "neg":
            acc(ins[0], -g)
        elif op == "powc":
            xv = nodes[ins[0]].value
            acc(ins[0], g * node.aux * xv ** (node.aux - 1.0))
        elif op == "exp":
            acc(ins[0], g * node.value)
        elif op == "log":
            acc(ins[0], g / nodes[ins[0]].value)
        elif op == "sqrt":
            acc(ins[0], g * 0.5 / node.value)
        elif op == "tanh":
            acc(ins[0], g * (1.0 - node.value * node.value))
        elif op == "sigmoid":
            acc(ins[0], g * node.value * (1.0 - node.value))
        elif op == "sin":
            acc(ins[0], g * np.cos(nodes[ins[0]].value))
        elif op == "cos":
            acc(ins[0], -g * np.sin(nodes[ins[0]].value))
        elif op == "elu":
            xv = nodes[ins[0]].value
            acc(ins[0], g * np.where(xv > 0, 1.0, node.value + node.aux))
        elif op == "relu":
            acc(ins[0], g * (nodes[ins[0]].value > 0))
        elif op == "where":
            a, b = ins
            acc(a, _unbroadcast(g * node.aux, nodes[a].value.shape))
            acc(b, _unbroadcast(g * ~node.aux, nodes[b].value.shape))
        elif op == "matmul":
            a, b = ins
            ga, gb = _matmul_vjp(nodes[a].value, nodes[b].value, g)
            acc(a, ga)
            acc(b, gb)
        elif op == "col":
            z = np.zeros_like(nodes[ins[0]].value)
            z[:, node.aux] = g
            acc(ins[0], z)
        elif op == "sum":
            acc(ins[0], np.broadcast_to(g, nodes[ins[0]].value.shape))
        elif op == "mean":
            xv = nodes[ins[0]].value
            acc(ins[0], np.broadcast_to(g / xv.size, xv.shape))
        else:  # pragma: no cover
            raise NotImplementedError(op)

    out: dict[int, np.ndarray] = {}
    for i, node in enumerate(nodes):
        if node.is_param:
            g = adj[i] if i <= output.idx else None
            out[i] = g if g is not None else np.zeros_like(node.value)
    if wrt is not None:
        for v in wrt:
            if v.tape is not tape:
                raise InvalidNodeError("wrt var is not on this tape")
            g = adj[v.idx] if v.idx <= output.idx else None
            out[v.idx] = g if g is not None else np.zeros_like(v.value)
    return out


# -- Taylor jets ---------------------------------------------------------


class Jet:
    """Truncated Taylor coefficients of a value along one input direction.

    coeffs[j] = (1/j!) * d^j f / ds^j, each coefficient a tape node.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self, j: int) -> Var:
        """d^j f/ds^j as a tape node (coefficient times j!)."""
        return self.coeffs[j] * float(math.factorial(j)) if j > 1 else self.coeffs[j]
