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

Every tape op is one entry of the op table `OPS`: its forward, which
computes a node's value from its inputs' values, and its reverse.  The
functions that record an op compute its value through that forward,
`Tape.replay` reruns the same forwards in tape order at new parameter
values, and `backward` runs the reverses from the output down.  The tests
register a few ops of their own in the same table.

The network computes jets on jet stacks: one array whose slot 0 is a value
and whose further slots are the Taylor coefficients of every direction.
`affine` maps a whole stack with one product and `taylor` applies an
activation to it through the Taylor recurrence, each as one node with a
hand-written reverse, so the layers' part of the tape grows with the
number of layers and not with the jet orders.  With no coefficient slots
`taylor` is the plain activation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidNodeError

JET_ORDER_CAP = 6

ACTIVATION_KINDS = ("tanh", "elu")

# op -> (forward(node, xs), reverse(node, g, xs)), or None for a leaf.  Given
# the input values xs, a forward returns the node's value and may keep what
# its reverse reads in node.saved.  Given the node's adjoint g, a reverse
# returns one adjoint per input; the sweep sums a broadcast adjoint down to
# its input's shape and adds it to the input's adjoint.
OPS: dict = {"const": None, "input": None, "param": None}


class Node:
    __slots__ = ("op", "inputs", "aux", "value", "saved")

    def __init__(self, op, inputs, aux, value):
        self.op = op
        self.inputs = inputs
        self.aux = aux
        self.value = value
        self.saved = None


class Tape:
    """Append-only record of a computation.

    Node ids are topologically ordered by construction: an operation can
    only reference nodes that already exist.  So the tape is its own
    schedule: `replay` reruns it forwards and `backward` sweeps it in
    reverse.  A tape is single-writer; concurrent evaluation uses one tape
    per worker.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: list[int] = []  # the parameter leaves' ids, in tape order

    def push(self, op, value) -> "Var":
        """Append one leaf of `op`, holding `value`."""
        self.nodes.append(Node(op, (), None, np.asarray(value, dtype=np.float64)))
        return Var(self, len(self.nodes) - 1)

    def record(self, op, inputs, aux=None) -> "Var":
        """Append one node of `op`, its value computed by the op's forward."""
        fns = OPS.get(op) or (None, None)
        if None in fns:
            part = "forward" if fns[0] is None else "reverse"
            raise InvalidNodeError(f"tape op {op!r} has no {part} in the op table")
        nodes = self.nodes
        node = Node(op, inputs, aux, None)
        node.value = fns[0](node, [nodes[k].value for k in inputs])
        nodes.append(node)
        return Var(self, len(nodes) - 1)

    def const(self, value) -> "Var":
        return self.push("const", value)

    def input(self, value) -> "Var":
        """A leaf that is differentiable but not a parameter (e.g. x, t)."""
        return self.push("input", value)

    def param(self, value) -> "Var":
        v = self.push("param", value)
        self.params.append(v.idx)
        return v

    def replay(self, arrays) -> None:
        """Rebind the parameter leaves, one array each in tape order, and rerun every forward.

        The rerun is the recording at the new parameters, bit for bit, as
        long as the recorded computation does not branch on values; no op
        does (elu's side is a mask inside `taylor`).
        """
        nodes = self.nodes
        if len(arrays) != len(self.params):
            raise InvalidNodeError(f"{len(arrays)} arrays for {len(self.params)} parameter leaves")
        for i, a in zip(self.params, arrays):
            nodes[i].value = np.asarray(a, dtype=np.float64)
        for node in nodes:
            fns = OPS[node.op]
            if fns is not None:
                node.value = node.saved = None  # the old arrays' memory can take the new ones
                node.value = fns[0](node, [nodes[k].value for k in node.inputs])


def tape_of(*args: "Var") -> Tape:
    """The one tape that every operand is recorded on."""
    tape = args[0].tape
    for a in args:
        if a.tape is not tape:
            raise InvalidNodeError("operands recorded on different tapes")
    return tape


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


class Var:
    """Handle to one tape node."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: Tape, idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.nodes[self.idx].value

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic ------------------------------------------------------

    def _binary(self, op, other):
        t = self.tape
        if isinstance(other, Var):
            if other.tape is not t:
                raise InvalidNodeError("operands recorded on different tapes")
            return t.record(op, (self.idx, other.idx))
        return t.record(op + "c", (self.idx,), np.asarray(other, dtype=np.float64))

    def __add__(self, other):
        return self._binary("add", other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return self._binary("sub", other)
        return self.__add__(-np.asarray(other, dtype=np.float64))

    def __rsub__(self, other):
        return self.tape.record("rsubc", (self.idx,), np.asarray(other, dtype=np.float64))

    def __mul__(self, other):
        return self._binary("mul", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a constant (a product with its reciprocal)."""
        return self.__mul__(1.0 / np.asarray(other, dtype=np.float64))

    def __neg__(self):
        return self.tape.record("neg", (self.idx,))


# Var's arithmetic; a constant operand is the node's aux
OPS.update({
    "add": (lambda node, xs: np.add(xs[0], xs[1]), lambda node, g, xs: (g, g)),
    "sub": (lambda node, xs: np.subtract(xs[0], xs[1]), lambda node, g, xs: (g, -g)),
    "mul": (lambda node, xs: np.multiply(xs[0], xs[1]),
            lambda node, g, xs: (g * xs[1], g * xs[0])),
    "addc": (lambda node, xs: np.add(xs[0], node.aux), lambda node, g, xs: (g,)),
    "rsubc": (lambda node, xs: node.aux - xs[0], lambda node, g, xs: (-g,)),
    "mulc": (lambda node, xs: np.multiply(xs[0], node.aux),
             lambda node, g, xs: (g * node.aux,)),
    "neg": (lambda node, xs: -xs[0], lambda node, g, xs: (-g,)),
})


def mean(x: Var) -> Var:
    return x.tape.record("mean", (x.idx,))


OPS["mean"] = (lambda node, xs: np.asarray(np.mean(xs[0])),
               lambda node, g, xs: (np.broadcast_to(g / xs[0].size, xs[0].shape),))


def take(y: Var, index) -> Var:
    """y[index] for a basic (slicing) index, e.g. one column or one coefficient of a jet stack."""
    return y.tape.record("take", (y.idx,), index)


def _take_vjp(node, g, xs):
    a = np.zeros(xs[0].shape)
    a[node.aux] = g
    return (a,)


OPS["take"] = (lambda node, xs: xs[0][node.aux], _take_vjp)


def _matmul_vjp(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Adjoints of a @ b; a 3-d a is a stack of row blocks sharing b."""
    if a.ndim == 2:
        return g @ b.T, a.T @ g
    g2 = g.reshape(-1, g.shape[-1])
    return (g2 @ b.T).reshape(a.shape), a.reshape(-1, a.shape[-1]).T @ g2


def affine(x: Var, w: Var, b: Var) -> Var:
    """x @ w + b as one node (the network's layer primitive).

    A 3-d x is a jet stack: slot 0 holds the value and slots 1.. its Taylor
    coefficients.  The product runs slice by slice (each slice gives the
    bits of the 2-d product) and only the value slot is shifted by b.
    """
    return tape_of(x, w, b).record("affine", (x.idx, w.idx, b.idx))


def _affine(node, xs):
    x, w, b = xs
    if x.ndim == 2:
        return x @ w + b
    v = np.matmul(x, w)
    v[0] += b
    return v


# a jet stack's bias shifts its value slot only; its adjoint leaves summed over the rows
OPS["affine"] = (_affine, lambda node, g, xs: (*_matmul_vjp(xs[0], xs[1], g),
                                               np.add.reduce(g if g.ndim == 2 else g[0], axis=0)))


# -- activations --------------------------------------------------------------


def _value(kind: str, z: np.ndarray) -> np.ndarray:
    """The activation (tanh, or else elu) at z; both network walks take their values from here."""
    if kind == "tanh":
        return np.tanh(z)
    return np.where(z > 0, z, np.expm1(z))


def _slope(kind: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The derivative at z, from z and y = the value there.

    It is also the first term g_0 of the derivative series that the jet
    recurrence runs on.
    """
    if kind == "tanh":
        return 1.0 - y * y
    # exp(min(z, 0)) is 1 where z > 0, so it is elu's slope on both sides
    return np.exp(np.minimum(z, 0.0))


def tanh(x: Var) -> Var:
    """A plain tanh node (the network records `taylor` instead)."""
    return x.tape.record("tanh", (x.idx,), ("tanh", ()))


def taylor(x: Var, kind: str, blocks: tuple) -> Var:
    """An activation applied to a value or to a jet stack, recorded as one node.

    With no blocks x is the preactivation itself and the node is the plain
    activation.  Otherwise slot 0 of x holds the preactivation z0, and
    coefficient j >= 1 of the first blocks[j-1] directions fills the next
    blocks[j-1] slots; the directions are ordered by decreasing jet order,
    so each block is a prefix of the one before it.  The output coefficients
    follow
        j * y_j = sum_{i=1..j} i * x_i * g_{j-i},
    with the derivative series g built from y itself (tanh: 1 - y^2, elu
    where z0 <= 0: exp(z0), then g_m = y_m).  Every step runs on a whole
    block in the operation order of the scalar recurrence, so each slot
    gets the bits of the per-direction computation.  elu's jet is
    one-sided: the identity's where z0 > 0 and expm1's elsewhere, z0 == 0
    included, as its value and slope are.  Off z0 == 0 that is the exact
    jet (elu is analytic there) at any order.
    """
    return x.tape.record("taylor", (x.idx,), (kind, tuple(blocks)))


def _taylor(node, xs):
    """The forward of `taylor`; keeps the derivative series (elu: and its side masks)."""
    kind, blocks = node.aux
    xv = xs[0]
    if not blocks:
        return _value(kind, xv)
    z0 = xv[0]
    y = np.empty_like(xv)
    y[0] = _value(kind, z0)
    g0 = _slope(kind, z0, y[0])
    saved = _series(xv, y, g0, blocks, kind)
    if kind == "elu":
        # where z0 > 0, slot 0 and block 1 already hold the identity's jet (g0
        # is exactly 1 there); blocks 2.. take it from x.  The series keeps
        # views of the exp side's blocks 1..order-1, so those from 2 are copied
        # first.  The reverse takes the exp side as a float mask.
        pos = z0 > 0
        if len(blocks) > 1:
            saved[2:] = [g.copy() for g in saved[2:]]
            np.copyto(y[1 + blocks[0]:], xv[1 + blocks[0]:], where=pos)
        saved = (saved, (~pos).astype(np.float64))
    node.saved = saved
    return y


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

    g[m] for m >= 1 covers the blocks[m] directions that need it.  elu's
    exp side has elu' = y + 1: its series after g0 is y itself.
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
            if kind == "elu":
                g = ym
            else:
                g = y[0] * ym
                for a in range(1, m + 1):
                    g += np.multiply(_coef(y, starts, a, d), _coef(y, starts, m - a, d), out=t)
                np.negative(g, out=g)
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
    place.  Returns the adjoints that the coefficients pass to y_0 (tanh
    only; elu's series does not read y_0) and g_0.
    """
    starts = block_starts(blocks)
    order = len(blocks)
    tmp = np.empty_like(x[1:starts[1]]) if order > 1 else None
    is_tanh = kind == "tanh"
    y0b = np.zeros_like(x[0]) if is_tanh else None
    g0b, sum_d = np.zeros_like(x[0]), np.empty_like(x[0])
    # g_m = y_m for elu, so its adjoint goes straight into yb
    gb = [None] + ([np.zeros_like(g) for g in gs[1:]] if is_tanh else [])
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
            if is_tanh:
                gb[m][:d] += t
            else:
                _coef(yb, starts, m, d)[...] += t
        if j >= 2 and is_tanh:
            m = j - 1
            cb = gb[m]
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


def _taylor_vjp(node, g, xs):
    kind, blocks = node.aux
    xv = xs[0]
    if not blocks:
        return (g * _slope(kind, xv, node.value),)
    xb = g.copy()
    xb0 = xb[0]
    if kind == "elu":
        # y = x where z0 > 0: blocks 2.. hand their adjoints straight to x's
        # there, and g0 (1 there) takes none; block 1 is x_1 * g0 on both
        # sides.  Elsewhere the exp side, where g0 = y0 + 1 (so dg0/dy0 = 1)
        # and y0 feeds no other term.
        gs, neg = node.saved
        high = slice(1 + blocks[0], None)
        if len(blocks) > 1:
            xb[high] *= neg
        _, g0b = _series_vjp(xv, node.value, gs, xb, blocks, kind)
        if len(blocks) > 1:
            xb[high] += g[high] * (1.0 - neg)
        g0b *= neg
    else:
        gs = node.saved
        y0b, g0b = _series_vjp(xv, node.value, gs, xb, blocks, kind)
        xb0 += y0b
        g0b *= np.multiply(node.value[0], -2.0, out=y0b)  # dg0/dy0
    # slot 0: (adjoint of y0 + y0b + g0b * dg0/dy0) * f'(z0), with f'(z0) = g0
    xb0 += g0b
    xb0 *= gs[0]
    return (xb,)


OPS["taylor"] = OPS["tanh"] = (_taylor, _taylor_vjp)


# -- reverse mode ---------------------------------------------------------


def backward(tape: Tape, output: Var, wrt=None) -> dict[int, np.ndarray]:
    """Adjoints of `output` for every parameter node (plus any `wrt` vars).

    The sweep walks the tape back from the output and runs the reverse of
    each node that holds an adjoint; a node with no path to the output never
    gets one.  Shared subexpressions accumulate by summation in this fixed
    order, so two identical sweeps produce bit-identical gradients.  A
    parameter or `wrt` var with no path to the output gets an explicit zero.
    """
    if output.tape is not tape or not (0 <= output.idx < len(tape.nodes)):
        raise InvalidNodeError("output is not a node on this tape")
    wrt = list(wrt or ())
    if any(v.tape is not tape for v in wrt):
        raise InvalidNodeError("wrt var is not on this tape")
    keep = {v.idx for v in wrt}
    nodes = tape.nodes
    top = output.idx
    adj: list = [None] * (top + 1)
    adj[top] = np.ones_like(nodes[top].value)

    for i in range(top, -1, -1):
        g = adj[i]
        node = nodes[i]
        fns = OPS[node.op]
        if g is None or fns is None:
            continue
        if i not in keep:
            adj[i] = None  # spent: the sweep holds only the adjoints still to be read
        ins = node.inputs
        xs = [nodes[k].value for k in ins]
        for j, x, gj in zip(ins, xs, fns[1](node, g, xs)):
            if gj.shape != x.shape:
                gj = _unbroadcast(gj, x.shape)
            a = adj[j]
            adj[j] = gj if a is None else a + gj

    out: dict[int, np.ndarray] = {}
    for i in tape.params + [v.idx for v in wrt]:
        g = adj[i] if i <= top else None
        out[i] = g if g is not None else np.zeros_like(nodes[i].value)
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
