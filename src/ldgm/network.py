"""Feedforward multi-output networks with jet-lifted evaluation.

A network maps (x, t) -> m outputs through one chain: an input affine
layer and L-1 hidden affine layers, each followed by the hidden activation
(tanh or elu), then a linear head.  Every output shares every layer;
`_layer_plan` is the chain's one table.

Evaluation is one walk down that chain over every point set a loss reads,
each to its own jet orders.  Each layer carries one 2-d array, a column per
unit: rows [0, nv) hold every point's value, the sets that carry jets first,
then the value-only sets, each group in call order; then come nj rows per
coefficient slot for the nj points of the jet sets, the slots as `_layout`
orders the union of their orders (a set gets rows for every slot of the
union, read or not).  So each hidden layer is one affine node and one
Taylor-mode activation node, whatever the sets and orders.  A plain forward
pass is the walk with no coefficient slots; `Network.evaluate` runs its
arithmetic on arrays, with no tape, for values no gradient is taken of.
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
    """The coefficient slots for `orders`: (blocks, slots).

    A positive-order direction takes one slot per coefficient; the
    directions go by decreasing order, and blocks[j-1] counts those that
    reach order j (see `ad.taylor`).  slots maps (direction, k) to the
    slot of coefficient k, counted from 0.  No blocks means no slots: the
    walk carries the values alone.
    """
    for od in orders.values():
        if od < 0:
            raise UnsupportedOrderError(f"jet order {od} is negative")
        if od > ad.JET_ORDER_CAP:
            raise UnsupportedOrderError(f"jet order {od} exceeds cap {ad.JET_ORDER_CAP}")
    ranked = sorted((dd for dd in orders if orders[dd] > 0), key=lambda dd: -orders[dd])
    blocks = tuple(sum(orders[dd] >= j for dd in ranked)
                   for j in range(1, max(orders.values(), default=0) + 1))
    starts = list(accumulate(blocks, initial=0))
    slots = {(dd, k): starts[k - 1] + r for r, dd in enumerate(ranked)
             for k in range(1, orders[dd] + 1)}
    return blocks, slots


@dataclass
class NetworkOutput:
    """One point set of a walk: its points, and the walk's head read on demand.

    `head` is the walk's last node (rows as in the module docstring): this
    set's values are the len(x) rows from `start`, and its coefficient k along
    a direction the len(x) rows from `rows[direction, k]`.  A coefficient is
    one `take` of the head, recorded the first time it is read.
    """

    x: np.ndarray                   # (P, d) spatial points
    t: np.ndarray | None            # (P,) times, or None for a stationary network
    head: Var
    start: int                      # the head's row of this set's first value
    rows: dict                      # (direction, k) -> the head's first row of coefficient k
    _reads: dict = field(default_factory=dict, repr=False)  # (output, row) -> its take

    @property
    def spatial_dim(self) -> int:
        return self.x.shape[1]

    def coef(self, i, direction=None, k=0) -> Var:
        """Output i's Taylor coefficient k along `direction` (k = 0: its value)."""
        if k and (direction, k) not in self.rows:
            walked = max((j for dd, j in self.rows if dd == direction), default=0)
            raise UnsupportedOrderError(f"direction {direction!r} was expanded to order "
                                        f"{walked}, need {k}")
        r = self.rows[direction, k] if k else self.start
        node = self._reads.get((i, r))
        if node is None:
            node = self._reads[i, r] = ad.take(self.head, (slice(r, r + len(self.x)), i))
        return node

    def out(self, i) -> Var:
        return self.coef(i)

    def dt(self, i) -> Var:
        return self.coef(i, TIME, 1)

    def dx(self, i, axis=0, order=1) -> Var:
        """The order-th derivative along `axis`: coefficient times order!."""
        c = self.coef(i, axis, order)
        return c * float(math.factorial(order)) if order > 1 else c


class _Sets:
    """The rows one walk gives each (x, t, orders) set."""

    def __init__(self, sets):
        sets = [(_points(x), t, od) for x, t, od in sets]
        own = [_layout(od)[1] for *_, od in sets]  # checks each set's orders
        self.blocks, self.slots = _layout({dd: max(od.get(dd, 0) for *_, od in sets)
                                           for *_, od in sets for dd in od})
        walk = sorted(range(len(sets)), key=lambda i: not own[i])  # the jet sets first
        self.walked = [sets[i] for i in walk]
        *starts, self.nv = accumulate((len(x) for x, _, _ in self.walked), initial=0)
        self.nj = sum(len(x) for (x, _, _), o in zip(sets, own) if o)
        self._outs = [(*sets[i][:2], r, {key: self.nv + self.slots[key] * self.nj + r
                                         for key in own[i]}) for i, r in sorted(zip(walk, starts))]

    def outputs(self, head: Var) -> list[NetworkOutput]:
        return [NetworkOutput(x, t, head, start, rows) for x, t, start, rows in self._outs]


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

        Each layer runs the arithmetic of its recorded nodes (the product and
        the bias, then the hidden activation's value), so the values have the
        bits of `bind(tape).forward(x, t)`.  Nothing is recorded, and each
        layer's array is dropped once the next layer has read it.
        """
        cfg = self.config
        arrays = dict(zip(self.params.names, self.params.arrays))
        *hidden, (w, b, _) = _layer_plan(cfg)
        h = _stack_inputs(cfg, _points(x), t)
        for hw, hb, _ in hidden:
            h = ad._value(cfg.hidden_activation, h @ arrays[hw] + arrays[hb])
        return h @ arrays[w] + arrays[b]


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
        """`forward_sets` on one set: orders maps a direction (a spatial axis or
        TIME) to its jet order, and an order-0 direction is the value alone."""
        return self.forward_sets([(x, t, orders or {})])[0]

    def forward_sets(self, sets) -> list[NetworkOutput]:
        """One walk, laid out as the module docstring says, over several point sets.

        Each set is (x, t, orders), walked to its own orders, and gets a
        NetworkOutput of its own; nothing is read out of the head until a
        caller asks (`NetworkOutput.coef`).
        """
        lay = _Sets(sets)
        for x, t, od in lay.walked:
            for dd in od:  # a spatial axis of x, or TIME where the set has times
                if t is None if dd == TIME else not 0 <= int(dd) < x.shape[1]:
                    raise ShapeError(f"direction {dd!r} is not an axis of the set's inputs")
        inputs = [_stack_inputs(self.config, x, t) for x, t, _ in lay.walked]
        nv, nj, dim = lay.nv, lay.nj, inputs[0].shape[1]
        X = np.zeros((nv + len(lay.slots) * nj, dim))
        np.concatenate(inputs, out=X[:nv])
        for (dd, k), s in lay.slots.items():
            if k == 1:  # a direction's seed: coefficient 1 of its input column is 1
                X[nv + s * nj:nv + (s + 1) * nj, dim - 1 if dd == TIME else int(dd)] = 1.0
        cfg = self.config
        *hidden, (w, b, _) = _layer_plan(cfg)
        h = self.tape.input(X)
        for hw, hb, _ in hidden:
            h = ad.taylor(ad.affine(h, self.vars[hw], self.vars[hb], nv), cfg.hidden_activation,
                          lay.blocks, nv, nj)
        return lay.outputs(ad.affine(h, self.vars[w], self.vars[b], nv))

    def forward_with_derivatives(self, x, t=None, directions=(), order: int = 1) -> NetworkOutput:
        """Jets along each listed direction, all expanded to the same order."""
        return self.forward_jets(x, t, {dd: order for dd in directions})


class AnalyticNetwork:
    """Mock network backed by closed-form expressions.

    Presents a trained network's `evaluate` and `bind`, and its bound walk's
    `forward_jets` and `forward_sets`, so losses can be evaluated on exact
    fields.  A walk's head is one constant in the network's layout, read
    through the same `NetworkOutput.coef`.
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

    forward_jets = BoundNetwork.forward_jets

    def forward_sets(self, sets) -> list[NetworkOutput]:
        """`BoundNetwork.forward_sets` on the closed forms: one constant head, in its layout."""
        lay = _Sets(sets)
        x = np.concatenate([x for x, _, _ in lay.walked])
        t = None if lay.walked[0][1] is None else np.concatenate(
            [np.asarray(t, dtype=np.float64).reshape(-1) for _, t, _ in lay.walked])
        nv, nj = lay.nv, lay.nj
        head = np.empty((nv + len(lay.slots) * nj, self.net.output_dim))
        for i in range(self.net.output_dim):
            head[:nv, i] = self.net._eval(i, 0, 0, x, t)
            for (dd, k), s in lay.slots.items():
                head[nv + s * nj:nv + (s + 1) * nj, i] = self.net._eval(
                    i, dd, k, x[:nj], None if t is None else t[:nj]) / math.factorial(k)
        return lay.outputs(self.tape.const(head))


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
