"""Feedforward multi-output networks with jet-lifted evaluation.

A network maps (x, t) -> m outputs through one chain: an input affine
layer and L-1 hidden affine layers, each followed by the hidden activation
(tanh or elu), then a linear head.  Every output shares every layer;
`_layer_plan` is the chain's one table.

Evaluation is one walk down that chain.  With input directions each
layer carries one jet stack, the shared primal plus every direction's
truncated Taylor coefficients, through one affine node and one Taylor-mode
activation node.  A plain forward pass is the walk with no directions: each
layer then carries the values alone, and its activation is the same
`taylor` node with no coefficient blocks.  `Network.evaluate` runs that
plain walk's functions on arrays, with no tape, for values no gradient
will be taken of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import ACTIVATION_KINDS, Tape, Var
from .errors import ConfigError, ShapeError, UnsupportedOrderError

TIME = "t"


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    hidden_layers: int
    width: int
    output_dim: int
    hidden_activation: str = "tanh"

    def __post_init__(self):
        kind = self.hidden_activation
        if kind not in ACTIVATION_KINDS:
            raise ConfigError(["hidden_activation"],
                              f"hidden_activation {kind!r} is not one of {ACTIVATION_KINDS}")
        if self.hidden_layers < 1 or self.width < 1 or self.output_dim < 1:
            raise ShapeError("hidden_layers, width and output_dim must all be >= 1")


def _layer_plan(cfg: NetworkConfig):
    """The chain in walk order: one (weight, bias, (fan_in, fan_out)) per affine layer.

    The input layer, the L-1 hidden layers, then the head.  Parameter names,
    their order and their shapes come from here alone.
    """
    names = [("w_in", "b_in")] + [(f"w_h{i}", f"b_h{i}") for i in range(1, cfg.hidden_layers)]
    dims = [cfg.input_dim] + [cfg.width] * cfg.hidden_layers + [cfg.output_dim]
    return [(w, b, (dims[i], dims[i + 1]))
            for i, (w, b) in enumerate(names + [("w_out", "b_out")])]


class ParameterSet:
    """Trainable weights in a fixed layer order."""

    def __init__(self, names, arrays):
        self.names = list(names)
        self.arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    @property
    def count(self) -> int:
        return sum(a.size for a in self.arrays)

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.names, [a.copy() for a in self.arrays])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays])

    def from_vector(self, v: np.ndarray) -> None:
        off = 0
        for i, a in enumerate(self.arrays):
            self.arrays[i] = v[off:off + a.size].reshape(a.shape).astype(np.float64)
            off += a.size

    def __eq__(self, other):
        return (isinstance(other, ParameterSet) and self.names == other.names
                and all(np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays)))


def _zero_params(cfg: NetworkConfig) -> ParameterSet:
    """Every parameter of the layer plan, zero."""
    names, arrays = [], []
    for w, b, (fan_in, fan_out) in _layer_plan(cfg):
        names += [w, b]
        arrays += [np.zeros((fan_in, fan_out)), np.zeros(fan_out)]
    return ParameterSet(names, arrays)


def init_xavier(cfg: NetworkConfig, seed: int) -> ParameterSet:
    """Uniform(-a, a) weights with a = sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    params = _zero_params(cfg)
    for i, w in enumerate(params.arrays):
        if w.ndim == 2:
            a = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            params.arrays[i] = rng.uniform(-a, a, size=w.shape)
    return params


def _layout(orders: dict):
    """The jet stack's layout for `orders`: (blocks, slots).

    A positive-order direction takes one slot per coefficient; the
    directions go by decreasing order, and blocks[j-1] counts those that
    reach order j (see `ad.taylor`).  slots maps (direction, k) to the
    stack slot of coefficient k; slot 0 holds the values.  No blocks means
    no stack: the walk carries the values alone.
    """
    for od in orders.values():
        if od < 0:
            raise UnsupportedOrderError(f"jet order {od} is negative")
        if od > ad.JET_ORDER_CAP:
            raise UnsupportedOrderError(f"jet order {od} exceeds cap {ad.JET_ORDER_CAP}")
    ranked = sorted((dd for dd in orders if orders[dd] > 0), key=lambda dd: -orders[dd])
    blocks = tuple(sum(orders[dd] >= j for dd in ranked)
                   for j in range(1, max(orders.values(), default=0) + 1))
    starts = ad.block_starts(blocks)
    slots = {(dd, k): starts[k - 1] + r for r, dd in enumerate(ranked)
             for k in range(1, orders[dd] + 1)}
    return blocks, slots


@dataclass
class NetworkOutput:
    """One point set of a walk: its points, and the walk's head read on demand.

    `head` is the walk's last node: the outputs' values, or the jet stack
    whose slot `slots[direction, k]` holds every output's coefficient k
    along a direction (slot 0 the values).  `rows` are this set's rows of
    a walk that stacked several sets.  A coefficient is one `take` of the
    head, recorded the first time it is read.
    """

    x: np.ndarray                   # (P, d) spatial points
    t: np.ndarray | None            # (P,) times, or None for a stationary network
    head: Var
    rows: slice
    slots: dict                     # (direction, k) -> the head's slot of coefficient k
    _reads: dict = field(default_factory=dict, repr=False)  # (output, slot) -> its take

    @property
    def spatial_dim(self) -> int:
        return self.x.shape[1]

    def coef(self, i, direction=None, k=0) -> Var:
        """Output i's Taylor coefficient k along `direction` (k = 0: its value)."""
        if k and (direction, k) not in self.slots:
            walked = max((j for dd, j in self.slots if dd == direction), default=0)
            raise UnsupportedOrderError(f"direction {direction!r} was expanded to order "
                                        f"{walked}, need {k}")
        slot = self.slots[direction, k] if k else 0
        node = self._reads.get((i, slot))
        if node is None:
            index = (slot, self.rows, i) if self.slots else (self.rows, i)
            node = self._reads[i, slot] = ad.take(self.head, index)
        return node

    def out(self, i) -> Var:
        return self.coef(i)

    def dt(self, i) -> Var:
        return self.coef(i, TIME, 1)

    def dx(self, i, axis=0, order=1) -> Var:
        """The order-th derivative along `axis`: coefficient times order!."""
        c = self.coef(i, axis, order)
        return c * float(math.factorial(order)) if order > 1 else c


def _split(points, head: Var, slots: dict) -> list[NetworkOutput]:
    """One NetworkOutput per (x, t) set of a walk that stacked their rows in order."""
    ends = list(accumulate((len(x) for x, _ in points), initial=0))
    spans = [slice(None)] if len(points) == 1 else list(map(slice, ends[:-1], ends[1:]))
    return [NetworkOutput(x, t, head, rows, slots) for (x, t), rows in zip(points, spans)]


def _points(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def _stack_inputs(cfg: NetworkConfig, x: np.ndarray, t) -> np.ndarray:
    """The network's input columns: the spatial points, then the times if it has any."""
    d = x.shape[1]
    if t is None:
        if cfg.input_dim != d:
            raise ShapeError(f"expected input_dim {cfg.input_dim}, got {d} (no time)")
        return x
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if cfg.input_dim != d + 1:
        raise ShapeError(f"expected input_dim {cfg.input_dim}, got {d}+time")
    if t.shape[0] != x.shape[0]:
        raise ShapeError("x and t batch sizes differ")
    return np.column_stack([x, t])


class Network:
    def __init__(self, config: NetworkConfig, params: ParameterSet):
        self.config = config
        self.params = params

    @property
    def output_dim(self) -> int:
        return self.config.output_dim

    def bind(self, tape: Tape) -> "BoundNetwork":
        return BoundNetwork(self, tape)

    def evaluate(self, x, t=None) -> np.ndarray:
        """The head's values, (P, output_dim), by a walk over plain arrays.

        Each layer runs the functions its recorded nodes run (`affine`, then
        the hidden activation's value), so the values have the bits of
        `bind(tape).forward(x, t)`.  Nothing is recorded, and each layer's
        array is dropped once the next layer has read it.
        """
        cfg = self.config
        arrays = dict(zip(self.params.names, self.params.arrays))
        *hidden, (w, b, _) = _layer_plan(cfg)
        h = _stack_inputs(cfg, _points(x), t)
        for hw, hb, _ in hidden:
            h = ad._value(cfg.hidden_activation, ad._affine(None, (h, arrays[hw], arrays[hb])))
        return ad._affine(None, (h, arrays[w], arrays[b]))


class BoundNetwork:
    """A network with its parameters registered on one tape."""

    def __init__(self, net: Network, tape: Tape):
        self.config = net.config
        self.tape = tape
        self.vars = {name: tape.param(a) for name, a in zip(net.params.names, net.params.arrays)}
        self.param_vars = [self.vars[name] for name in net.params.names]

    @property
    def output_dim(self) -> int:
        return self.config.output_dim

    # -- evaluation ------------------------------------------------------

    def forward(self, x, t=None) -> NetworkOutput:
        """Output values only: the jet walk with no directions."""
        return self.forward_jets(x, t)

    def forward_jets(self, x, t=None, orders: dict | None = None) -> NetworkOutput:
        """Jets for several directions in one pass over a shared primal chain.

        orders maps direction (spatial axis index or TIME) to the jet order
        wanted along it; an order-0 direction is the value alone.  The walk
        carries one jet stack per layer, laid out by `_layout`: slot 0 the
        value, then coefficient j of every direction whose order reaches j.
        Each hidden layer is then one affine node and one activation node,
        whatever the orders, and the head one affine node.  Nothing is read
        out of the head until a caller asks (see `NetworkOutput.coef`).
        """
        return self.forward_sets([(x, t)], orders)[0]

    def forward_sets(self, sets, orders: dict | None = None) -> list[NetworkOutput]:
        """One walk to `orders` (see `forward_jets`) over several point sets.

        sets is a sequence of (x, t) pairs.  Their points are stacked into
        one walk, and each set gets a NetworkOutput of its own that reads
        its rows of the head.
        """
        orders = orders or {}
        blocks, slots = _layout(orders)
        points = [(_points(x), t) for x, t in sets]
        inputs = [_stack_inputs(self.config, x, t) for x, t in points]
        if TIME in orders and any(t is None for _, t in points):
            raise ShapeError("time direction requested for a stationary network")
        X = inputs[0] if len(inputs) == 1 else np.concatenate(inputs)
        d_space = X.shape[1] - (0 if points[0][1] is None else 1)
        for dd in orders:
            if dd != TIME and not (0 <= int(dd) < d_space):
                raise ShapeError(f"direction {dd!r} outside the spatial axes")
        if blocks:
            n_pts, dim = X.shape
            stack = np.zeros((1 + len(slots), n_pts, dim))
            stack[0] = X
            for dd, od in orders.items():
                if od:
                    stack[slots[dd, 1], :, dim - 1 if dd == TIME else int(dd)] = 1.0
            X = stack

        cfg = self.config
        *hidden, (w, b, _) = _layer_plan(cfg)
        h = self.tape.input(X)
        for hw, hb, _ in hidden:
            h = ad.taylor(ad.affine(h, self.vars[hw], self.vars[hb]), cfg.hidden_activation, blocks)
        return _split(points, ad.affine(h, self.vars[w], self.vars[b]), slots)

    def forward_with_derivatives(self, x, t=None, directions=(), order: int = 1) -> NetworkOutput:
        """Jets along each listed direction, all expanded to the same order."""
        return self.forward_jets(x, t, {dd: order for dd in directions})


class AnalyticNetwork:
    """Mock network backed by closed-form expressions.

    Presents a trained network's `evaluate` and `bind`, and its bound walk's
    `forward_jets` and `forward_sets`, so losses can be evaluated on exact
    fields.  A walk's head is one constant in the network's stack layout
    (`_layout`), so the losses read the closed forms' coefficients through
    the same `NetworkOutput.coef` as the network's.
    """

    def __init__(self, exprs, spatial_dim: int, with_time: bool = True):
        import sympy as sp
        self.spatial_dim = spatial_dim
        self.with_time = with_time
        self.xsyms = sp.symbols(f"x0:{spatial_dim}")
        self.tsym = sp.Symbol("t")
        self.exprs = [sp.sympify(e) for e in exprs]
        self.output_dim = len(self.exprs)
        self._fns: dict = {}

    def _fn(self, i, direction, order):
        key = (i, direction, order)
        if key not in self._fns:
            import sympy as sp
            e = self.exprs[i]
            s = self.tsym if direction == TIME else self.xsyms[direction]
            e = sp.diff(e, s, order) if order else e
            args = list(self.xsyms) + ([self.tsym] if self.with_time else [])
            self._fns[key] = sp.lambdify(args, e, "numpy")
        return self._fns[key]

    def _eval(self, i, direction, order, x, t):
        args = [x[:, a] for a in range(self.spatial_dim)]
        if self.with_time:
            args.append(np.asarray(t, dtype=np.float64).reshape(-1))
        v = self._fn(i, direction, order)(*args)
        return np.broadcast_to(np.asarray(v, dtype=np.float64), (x.shape[0],)).copy()

    def bind(self, tape: Tape) -> "BoundAnalytic":
        return BoundAnalytic(self, tape)

    def evaluate(self, x, t=None) -> np.ndarray:
        """The outputs' values, (P, output_dim), as `Network.evaluate` gives them."""
        x = _points(x)
        return np.column_stack([self._eval(i, 0, 0, x, t) for i in range(self.output_dim)])


class BoundAnalytic:
    def __init__(self, net: AnalyticNetwork, tape: Tape):
        self.net = net
        self.tape = tape

    @property
    def output_dim(self) -> int:
        return self.net.output_dim

    def forward_jets(self, x, t=None, orders: dict | None = None) -> NetworkOutput:
        return self.forward_sets([(x, t)], orders)[0]

    def forward_sets(self, sets, orders: dict | None = None) -> list[NetworkOutput]:
        """`BoundNetwork.forward_sets` on the closed forms: one constant head, in its layout."""
        orders = orders or {}
        _, slots = _layout(orders)
        points = [(_points(x), t) for x, t in sets]
        x = np.concatenate([x for x, _ in points])
        t = None if points[0][1] is None else np.concatenate(
            [np.asarray(t, dtype=np.float64).reshape(-1) for _, t in points])
        head = np.empty((1 + len(slots), len(x), self.net.output_dim))
        for i in range(self.net.output_dim):
            head[0, :, i] = self.net._eval(i, 0, 0, x, t)
            for (dd, k), slot in slots.items():
                head[slot, :, i] = self.net._eval(i, dd, k, x, t) / math.factorial(k)
        return _split(points, self.tape.const(head if slots else head[0]), slots)


# -- checkpoint io ----------------------------------------------------------


# the header's fields in written order, each with its parser
_HEADER = {"input_dim": int, "hidden_layers": int, "width": int, "output_dim": int,
           "hidden_activation": str}


def _encode_config(cfg: NetworkConfig) -> str:
    return " ".join(f"{k}={getattr(cfg, k)}" for k in _HEADER)


def _decode_config(header: str) -> NetworkConfig:
    """The config a header holds; a field missing, unknown or malformed is a ConfigError."""
    kv = dict(item.partition("=")[::2] for item in header.split())
    missing = [k for k in _HEADER if k not in kv]
    if missing:
        raise ConfigError(missing, f"checkpoint header lacks {', '.join(missing)}")
    unknown = [k for k in kv if k not in _HEADER]
    if unknown:
        raise ConfigError(unknown, f"checkpoint header has unknown field {', '.join(unknown)}")
    fields = {}
    for k, parse in _HEADER.items():
        try:
            fields[k] = parse(kv[k])
        except ValueError:
            raise ConfigError([k], f"checkpoint header field {k}={kv[k]!r} is malformed") from None
    return NetworkConfig(**fields)


def save_checkpoint(path, cfg: NetworkConfig, params: ParameterSet) -> None:
    """Header line with the config, then one hex float64 per line (bit-exact).

    The lines are written joined, 1024 at a time: joined whole, heat5d's
    31606 values would hold 3.3 MB of line strings at once.
    """
    vec = params.to_vector()
    with open(path, "w") as f:
        f.write(_encode_config(cfg) + "\n")
        for s in range(0, vec.size, 1024):
            f.write("\n".join(map(float.hex, vec[s:s + 1024].tolist())) + "\n")


def load_checkpoint(path) -> tuple[NetworkConfig, ParameterSet]:
    with open(path) as f:
        cfg = _decode_config(f.readline().strip())
        vec = np.array([float.fromhex(line.strip()) for line in f if line.strip()])
    params = _zero_params(cfg)
    if vec.size != params.count:
        raise ShapeError(f"checkpoint holds {vec.size} values, config expects {params.count}")
    params.from_vector(vec)
    return cfg, params
