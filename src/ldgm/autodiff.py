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
    """x @ w + b as one node (the network's layer primitive)."""
    if x.tape is not w.tape or x.tape is not b.tape:
        raise InvalidNodeError("operands recorded on different tapes")
    return x.tape._push("affine", (x.idx, w.idx, b.idx), None, x.value @ w.value + b.value)


def column(y: Var, j: int) -> Var:
    """Extract column j of a 2-d node."""
    return y.tape._push("col", (y.idx,), int(j), y.value[:, j])


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
            acc(x, g @ nodes[w].value.T)
            acc(w, nodes[x].value.T @ g)
            acc(b, _unbroadcast(g, nodes[b].value.shape))
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
            acc(a, g @ nodes[b].value.T)
            acc(b, nodes[a].value.T @ g)
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
