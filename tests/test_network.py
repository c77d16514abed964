import numpy as np
import pytest

from ldgm import autodiff as ad
from ldgm.autodiff import ACTIVATION_KINDS, Tape, backward
from ldgm.errors import ConfigError, ShapeError, UnsupportedOrderError
from ldgm.network import (TIME, AnalyticNetwork, Network, NetworkConfig, init_xavier,
                          load_checkpoint, save_checkpoint)

from oracles import Jet as OracleJet
from oracles import (apply_activation, central_gradient, elu_exp_side, jet_lift,
                     nested_derivative, network_jets, relative, replay, sigmoid_net, total)


def beam_like_config():
    return NetworkConfig(input_dim=2, hidden_layers=3, width=50, output_dim=4)


def test_parameter_count_matches_shape_arithmetic():
    params = init_xavier(beam_like_config(), seed=0)
    # input affine + (L-1) hidden affines + output head
    assert params.count == (2 * 50 + 50) + 2 * (50 * 50 + 50) + (4 * 50 + 4)


def test_same_seed_gives_identical_parameters():
    cfg = beam_like_config()
    assert init_xavier(cfg, seed=42) == init_xavier(cfg, seed=42)
    assert init_xavier(cfg, seed=42) != init_xavier(cfg, seed=43)


def test_xavier_hidden_layer_variance_near_one_over_n():
    params = init_xavier(beam_like_config(), seed=1)
    w = params.arrays[params.names.index("w_h1")]
    assert w.size >= 2500
    assert abs(w.var() - 1 / 50) < 0.2 * (1 / 50)


def test_zero_parameters_give_zero_outputs():
    cfg = NetworkConfig(input_dim=2, hidden_layers=2, width=8, output_dim=3)
    params = init_xavier(cfg, seed=0)
    for i, a in enumerate(params.arrays):
        params.arrays[i] = np.zeros_like(a)
    tape = Tape()
    out = Network(cfg, params).bind(tape).forward(np.linspace(0, 1, 5).reshape(-1, 1),
                                                  np.zeros(5))
    assert np.all(out.head.value == 0.0)


def test_single_identity_layer_is_affine():
    # elu is the identity where every preactivation is positive
    cfg = NetworkConfig(input_dim=2, hidden_layers=1, width=4, output_dim=2,
                        hidden_activation="elu")
    params = init_xavier(cfg, seed=3)
    x = np.random.default_rng(0).normal(size=(6, 1))
    t = np.random.default_rng(1).uniform(size=6)
    X = np.column_stack([x, t])
    w0, b0, w1, b1 = params.arrays
    b0[:] = 1.0 - (X @ w0).min(axis=0)
    want = (X @ w0 + b0) @ w1 + b1
    tape = Tape()
    out = Network(cfg, params).bind(tape).forward(x, t)
    got = np.stack([out.out(j).value for j in range(2)], axis=1)
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def straight_line_eval(cfg, params, X, act=np.tanh, head=lambda y: y):
    h = X
    arrays = dict(zip(params.names, params.arrays))
    h = act(h @ arrays["w_in"] + arrays["b_in"])
    for i in range(1, cfg.hidden_layers):
        h = act(h @ arrays[f"w_h{i}"] + arrays[f"b_h{i}"])
    return head(h @ arrays["w_out"] + arrays["b_out"])


def test_forward_matches_independent_reimplementation():
    cfg = beam_like_config()
    params = init_xavier(cfg, seed=7)
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 2 * np.pi, size=(40, 1))
    t = rng.uniform(0, 1, size=40)
    tape = Tape()
    out = Network(cfg, params).bind(tape).forward(x, t)
    got = np.stack([out.out(j).value for j in range(cfg.output_dim)], axis=1)
    want = straight_line_eval(cfg, params, np.column_stack([x, t]))
    assert relative(got, want) < 1e-12


def test_mixed_mode_agreement_jet_vs_reverse():
    # order-1 jet coefficient along each axis == reverse-mode input gradient
    cfg = NetworkConfig(input_dim=3, hidden_layers=2, width=8, output_dim=2)
    params = init_xavier(cfg, seed=5)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=(9, 2))
    t = rng.uniform(0, 1, size=9)
    net = Network(cfg, params)
    tape = Tape()
    bound = net.bind(tape)
    jout = bound.forward_with_derivatives(x, t, directions=[0, 1, TIME], order=1)
    plain = bound.forward(x, t)
    xin = ad.Var(tape, max(i for i, n in enumerate(tape.nodes) if n.op == "input"))
    for j in range(cfg.output_dim):
        g = backward(tape, plain.out(j), wrt=[xin])[xin.idx]
        for col, dd in enumerate([0, 1, TIME]):
            jet_d1 = jout.coef(j, dd, 1).value
            assert relative(jet_d1, g[:, col]) < 1e-10


@pytest.mark.parametrize("name,cfg,seed", [
    pytest.param("tanh", NetworkConfig(input_dim=2, hidden_layers=2, width=6, output_dim=1), 11,
                 id="tanh"),
    pytest.param("sigmoid", NetworkConfig(input_dim=2, hidden_layers=2, width=6, output_dim=1),
                 11, id="sigmoid"),
    # the FD stencil spans x0 +- 0.08; at seed 13 no elu preactivation changes
    # sign over that span (at seed 11 one does, and FD then differences across the kink)
    pytest.param("elu", NetworkConfig(input_dim=2, hidden_layers=2, width=6, output_dim=1,
                                      hidden_activation="elu"), 13, id="elu"),
    pytest.param("sigmoid_head", NetworkConfig(input_dim=2, hidden_layers=2, width=6,
                                               output_dim=3), 11, id="sigmoid_head"),
])
def test_jet_derivatives_match_fd_through_network(name, cfg, seed):
    params = init_xavier(cfg, seed=seed)
    net = Network(cfg, params)
    x0, t0 = 0.21, 0.37
    acts = None
    if name in SIGMOID_NETS:
        # the jets of the sigmoid net in tanh units; FD differences the sigmoid net itself
        acts = (np.tanh, sigmoid) if SIGMOID_NETS[name] else (sigmoid, lambda y: y)
        net = sigmoid_net(net, head=SIGMOID_NETS[name])

    def f(xv, j):
        if acts:
            return float(straight_line_eval(cfg, params, np.array([[xv, t0]]), *acts)[0, j])
        tape = Tape()
        out = net.bind(tape).forward(np.array([[xv]]), np.array([t0]))
        return float(out.out(j).value[0])

    tape = Tape()
    out = net.bind(tape).forward_with_derivatives(np.array([[x0]]), np.array([t0]),
                                                  directions=[0], order=4)
    oracle = network_jets(net, np.array([[x0]]), np.array([t0]), {0: 4})[0]
    for j in range(cfg.output_dim):
        for order in range(1, 5):
            got = float(out.dx(j, 0, order).value[0])
            want = nested_derivative(lambda xv: f(xv, j), x0, order)
            assert abs(got - want) <= 2e-4 * max(abs(want), 1e-6), (j, order)
        ref = np.array([float(c.value[0]) for c in oracle[j].coeffs])
        got = [float(out.coef(j, 0, k).value[0]) for k in range(5)]
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)


def test_jet_walk_enforces_activation_smoothness():
    # elu's jets keep every order, and take the smooth exp side at the kink
    x, t = np.array([[0.3], [0.7]]), np.array([0.2, 0.5])
    elu = NetworkConfig(input_dim=2, hidden_layers=1, width=2, output_dim=1,
                        hidden_activation="elu")
    params = init_xavier(elu, 0)
    params.arrays[params.names.index("w_in")] = np.array([[1.0, 1.0], [0.0, 0.0]])
    params.arrays[params.names.index("b_in")] = np.array([-0.3, 0.1])
    bound = Network(elu, params).bind(Tape())
    assert bound.forward_jets(np.array([[0.5]]), np.array([0.0]), {0: 2}).coef(0, 0, 2).shape == (1,)
    # the first unit's preactivation is x - 0.3: zero at x = 0.3, where the
    # jet is the exp side's: elu(0), exp(0), exp(0)/2 (the identity's is 0, 1, 0)
    bound.forward_jets(x, t, {0: 2})
    act = [n for n in bound.tape.nodes if n.op == "taylor"][-1]
    # rows 0-1 hold the two points' values, 2-3 their first coefficients, 4-5 their second
    assert act.value[[0, 2, 4], 0].tolist() == [0.0, 1.0, 0.5]


@pytest.mark.parametrize("z0", [-1e-12, 0.0, 1e-12])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_elu_jet_at_the_kink_is_the_matching_sides_jet(scale, order, z0):
    # one unit whose preactivation at (x, t) = (0, 0) is its bias z0, read out
    # by a head of weight `scale`
    cfg = NetworkConfig(input_dim=2, hidden_layers=1, width=1, output_dim=1,
                        hidden_activation="elu")
    params = init_xavier(cfg, 0)
    for name, a in (("w_in", [[1.0], [0.0]]), ("b_in", [z0]), ("w_out", [[scale]]),
                    ("b_out", [0.0])):
        params.arrays[params.names.index(name)] = np.array(a)
    bound = Network(cfg, params).bind(Tape())
    out = bound.forward_jets(np.zeros((1, 1)), np.zeros(1), {0: order})
    z = jet_lift(Tape().input(np.array([z0])), 1.0, order)
    side = z if z0 > 0 else elu_exp_side(z)
    got = [float(out.coef(0, 0, k).value[0]) for k in range(order + 1)]
    want = [float(c.value[0]) * scale for c in side.coeffs]
    assert np.allclose(got, want, rtol=1e-14, atol=0), (got, want)


def test_unknown_activation_is_rejected():
    for kind in ("gelu", "sigmoid", "relu", "identity"):
        with pytest.raises(ConfigError, match=kind) as e:
            NetworkConfig(input_dim=2, hidden_layers=1, width=4, output_dim=1,
                          hidden_activation=kind)
        assert e.value.bad_keys == ["hidden_activation"]


def test_constant_network_has_zero_derivatives():
    cfg = NetworkConfig(input_dim=2, hidden_layers=2, width=5, output_dim=1)
    params = init_xavier(cfg, seed=0)
    for i, (name, a) in enumerate(zip(params.names, params.arrays)):
        params.arrays[i] = np.zeros_like(a)
        if name == "b_out":
            params.arrays[i] = np.full_like(a, 1.5)
    tape = Tape()
    out = Network(cfg, params).bind(tape).forward_with_derivatives(
        np.array([[0.3], [0.6]]), np.array([0.1, 0.9]), directions=[0, TIME], order=3)
    assert np.allclose(out.out(0).value, 1.5)
    for dd in (0, TIME):
        for k in range(1, 4):
            assert np.all(out.coef(0, dd, k).value == 0.0)


def test_shape_and_order_errors():
    cfg = NetworkConfig(input_dim=2, hidden_layers=1, width=4, output_dim=1)
    net = Network(cfg, init_xavier(cfg, seed=0))
    # the recorded walk and the tape-free one check their inputs alike
    for walk in (lambda x, t: net.bind(Tape()).forward(x, t), net.evaluate):
        for x, t in ((np.zeros((3, 2)), np.zeros(3)), (np.zeros((3, 1)), None),
                     (np.zeros((3, 1)), np.zeros(4))):
            with pytest.raises(ShapeError):
                walk(x, t)
    with pytest.raises(UnsupportedOrderError):
        net.bind(Tape()).forward_with_derivatives(np.zeros((3, 1)), np.zeros(3),
                                                  directions=[0], order=7)
    stat = NetworkConfig(input_dim=1, hidden_layers=1, width=4, output_dim=1)
    stat_net = Network(stat, init_xavier(stat, 0))
    with pytest.raises(ShapeError):
        stat_net.bind(Tape()).forward_with_derivatives(np.zeros((3, 1)), None,
                                                       directions=[TIME], order=1)
    # a read above the walked order, along a direction not walked, or of dt on
    # a stationary walk
    walk = net.bind(Tape()).forward_jets(np.zeros((3, 1)), np.zeros(3), {0: 2})
    still = stat_net.bind(Tape()).forward_jets(np.zeros((3, 1)), None, {0: 1})
    for read in (lambda: walk.dx(0, 0, 3), lambda: walk.coef(0, 0, 3), lambda: walk.dx(0, 1),
                 lambda: walk.dt(0), lambda: still.dt(0)):
        with pytest.raises(UnsupportedOrderError):
            read()


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    cfg = NetworkConfig(input_dim=2, hidden_layers=2, width=7, output_dim=3,
                        hidden_activation="elu")
    params = init_xavier(cfg, seed=13)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, cfg, params)
    cfg2, params2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert params2 == params
    assert params2.to_vector().tobytes() == params.to_vector().tobytes()
    # the file's bytes: the header line, then one hex line per value
    want = "input_dim=2 hidden_layers=2 width=7 output_dim=3 hidden_activation=elu\n"
    want += "".join(float(v).hex() + "\n" for v in params.to_vector())
    assert path.read_bytes() == want.encode()


def test_analytic_network_values_and_jets():
    mock = AnalyticNetwork(["exp(-t)*sin(x0)", "exp(-t)*cos(x0)"], spatial_dim=1)
    cfg = NetworkConfig(input_dim=2, hidden_layers=1, width=3, output_dim=2)
    net = Network(cfg, init_xavier(cfg, 0))
    x = np.array([[0.4], [1.1]])
    t = np.array([0.2, 0.5])

    def coefficients(x, t):
        # (direction, k) -> coefficient k of each output: its k-th derivative over k!
        s, c = np.exp(-t) * np.sin(x[:, 0]), np.exp(-t) * np.cos(x[:, 0])
        return {(0, 0): (s, c), (0, 1): (c, -s), (0, 2): (-s / 2, -c / 2),
                (TIME, 1): (-s, -c), (TIME, 2): (s / 2, c / 2)}

    # the mock's head holds each coefficient in the rows the network's walk gives it
    for orders in ({0: 2, TIME: 2}, {0: 2, TIME: 1}):
        out = mock.bind(Tape()).forward_jets(x, t, orders)
        walk = net.bind(Tape()).forward_jets(x, t, orders)
        assert out.rows == walk.rows and out.head.shape == walk.head.shape
        for (dd, k), want in coefficients(x, t).items():
            if k > orders[dd]:
                continue
            r = walk.rows[dd, k] if k else walk.start
            for i in range(2):
                assert np.allclose(out.head.value[r:r + 2, i], want[i], rtol=1e-13), (dd, k, i)
                assert np.allclose(out.coef(i, dd, k).value, want[i], rtol=1e-13), (dd, k, i)
        assert np.allclose(out.dx(0, 0, 2).value, -np.exp(-t) * np.sin(x[:, 0]), rtol=1e-13)

    # two point sets: one head, each set's rows where the network's walk puts them
    sets = [(x, t, {0: 1}), (np.array([[0.7]]), np.array([0.9]), {0: 1})]
    outs = mock.bind(Tape()).forward_sets(sets)
    walks = net.bind(Tape()).forward_sets(sets)
    assert outs[0].head is outs[1].head
    for out, walk, (xs, ts, _) in zip(outs, walks, sets):
        assert (out.start, out.rows) == (walk.start, walk.rows)
        want = coefficients(xs, ts)
        for i in range(2):
            assert np.allclose(out.out(i).value, want[0, 0][i], rtol=1e-14)
            assert np.allclose(out.dx(i, 0).value, want[0, 1][i], rtol=1e-13)


# -- the fused jet walk (one affine and one Taylor node per layer) -------------

# the per-kind matrices: every kind a config accepts, and the sigmoid nets in
# tanh units of `oracles.sigmoid_net` (True: the sigmoid is over the outputs)
SIGMOID_NETS = {"sigmoid": False, "sigmoid_head": True}
NETS = ACTIVATION_KINDS + tuple(SIGMOID_NETS)


def make_net(name, seed, **shape):
    cfg = NetworkConfig(**shape, hidden_activation="tanh" if name in SIGMOID_NETS else name)
    net = Network(cfg, init_xavier(cfg, seed))
    return sigmoid_net(net, head=SIGMOID_NETS[name]) if name in SIGMOID_NETS else net


def fused_case(name, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(6, 2))
    t = rng.uniform(0, 1, size=6)
    return make_net(name, seed, input_dim=3, hidden_layers=3, width=5, output_dim=3), x, t


@pytest.mark.parametrize("name,orders", [
    *[pytest.param(name, {0: k}, id=f"{name}-{k}") for name in ACTIVATION_KINDS + ("sigmoid",)
      for k in range(1, ad.JET_ORDER_CAP + 1)],
    pytest.param("tanh", {TIME: 1, 0: 4, 1: 2}, id="tanh-mixed"),
    pytest.param("sigmoid", {0: 2, 1: 3, TIME: 1}, id="sigmoid-mixed"),
    pytest.param("elu", {0: 1, 1: 1, TIME: 1}, id="elu-mixed"),
    pytest.param("sigmoid_head", {0: 3, TIME: 2}, id="sigmoid_head-mixed"),
])
def test_fused_jets_match_the_scalar_oracle(name, orders):
    net, x, t = fused_case(name)
    out = net.bind(Tape()).forward_jets(x, t, orders)
    oracle = network_jets(net, x, t, orders)
    for j in range(net.output_dim):
        for dd, od in orders.items():
            assert out.coef(j, dd, 0) is out.out(j)
            got = [out.coef(j, dd, k).value for k in range(od + 1)]
            want = [c.value for c in oracle[dd][j].coeffs]
            assert len(got) == od + 1
            for k, (a, b) in enumerate(zip(got, want)):
                assert np.allclose(a, b, rtol=1e-12, atol=1e-15), (dd, j, k)
                # the fused recurrence keeps the scalar operation order
                assert a.tobytes() == b.tobytes(), (dd, j, k)


@pytest.mark.parametrize("name", NETS)
def test_plain_walk_values_are_the_jet_walks_slot_zero(name):
    # a 3x10 net at 64 points, bit for bit
    net = make_net(name, 13, input_dim=3, hidden_layers=3, width=10, output_dim=3)
    rng = np.random.default_rng(13)
    x, t = rng.uniform(-1, 1, size=(64, 2)), rng.uniform(0, 1, size=64)
    bound = net.bind(Tape())
    plain = bound.forward(x, t)
    for orders in ({0: 1}, {TIME: 1, 1: 1}):
        jets = bound.forward_jets(x, t, orders)
        for j in range(net.output_dim):
            assert plain.out(j).value.tobytes() == jets.out(j).value.tobytes(), (orders, j)


@pytest.mark.parametrize("name", NETS)
@pytest.mark.parametrize("timed", [True, False], ids=["timed", "stationary"])
def test_evaluate_has_the_recorded_walks_bits(name, timed):
    # every output of the tape-free walk, byte for byte against the recorded forward
    net = make_net(name, 5, input_dim=3 if timed else 2, hidden_layers=3, width=10, output_dim=3)
    rng = np.random.default_rng(5)
    x, t = rng.uniform(-1, 1, size=(64, 2)), rng.uniform(0, 1, size=64) if timed else None
    got = net.evaluate(x, t)
    assert got.shape == (64, 3)
    want = net.bind(Tape()).forward(x, t)
    for j in range(net.output_dim):
        assert got[:, j].tobytes() == want.out(j).value.tobytes(), j


@pytest.mark.parametrize("name,orders", [
    pytest.param("tanh", {0: 3, TIME: 2}, id="tanh-orders0"),
    pytest.param("sigmoid", {0: 3, TIME: 2}, id="sigmoid-orders1"),
    pytest.param("elu", {0: 2, TIME: 1}, id="elu-orders2"),
    pytest.param("sigmoid_head", {0: 2, TIME: 1}, id="sigmoid_head-orders5"),
    pytest.param("elu", {0: 1, TIME: 1}, id="elu-orders6"),
    # the layouts of the strong-form runs: blocks (2, 1, 1, 1) and (2, 1, 1)
    pytest.param("tanh", {0: 4, TIME: 1}, id="tanh-orders7"),
    pytest.param("elu", {0: 4, TIME: 1}, id="elu-orders8"),
    pytest.param("elu", {0: 3, TIME: 1}, id="elu-orders9"),
    # an order-0 direction is the value alone: the walk with no coefficient slots
    *[pytest.param(name, {0: 0}, id=f"{name}-plain") for name in NETS],
])
def test_fused_vjp_matches_central_differences(name, orders):
    # a fixed random linear functional of every coefficient of every output
    net, x, t = fused_case(name, seed=6)
    weights = {}

    def loss(tape, bound):
        out = bound.forward_jets(x, t, orders)
        total = None
        for dd, od in orders.items():
            for j in range(net.output_dim):
                for k in range(od + 1):
                    c = out.coef(j, dd, k)
                    r = weights.setdefault((dd, j, k), np.random.default_rng(len(weights)).normal(
                        size=c.value.shape))
                    term = ad.mean(c * r)
                    total = term if total is None else total + term
        return total

    tape = Tape()
    bound = net.bind(tape)
    grads = backward(tape, loss(tape, bound))
    got = np.concatenate([grads[v.idx].ravel() for v in bound.param_vars])

    def f(vec):
        params = net.params.copy()
        params.from_vector(vec)
        tape = Tape()
        return float(loss(tape, Network(net.config, params).bind(tape)).value)

    want = central_gradient(f, net.params.to_vector(), h=1e-6)
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


@pytest.mark.parametrize("scale", [1.0, 0.7])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_elu_taylor_reverse_matches_the_oracle_tape(order, scale):
    # z0 on the kink and just either side of it; two directions, both to
    # `order`; `scale` sizes the whole input jet
    z0 = scale * np.array([-1.0, -1e-12, 0.0, 1e-12, 1.0])[:, None]
    rng = np.random.default_rng(order)
    # coefficient j, both directions
    coeffs = [scale * rng.normal(size=(2, 5, 1)) for _ in range(order)]
    stack = np.concatenate([z0[None]] + coeffs)
    weights = rng.normal(size=stack.shape)
    # the walk's layout: the 5 values, then each coefficient slot's 5 rows
    tape = Tape()
    xin = tape.input(stack.reshape(-1, 1))
    y = ad.taylor(xin, "elu", (2,) * order, 5, 5)
    got = backward(tape, total(y * weights.reshape(-1, 1)), wrt=[xin])[xin.idx]
    got = got.reshape(stack.shape)

    oracle = Tape()
    x0 = oracle.input(z0)
    xs = [[oracle.input(c[r]) for c in coeffs] for r in range(2)]
    ys = [apply_activation(OracleJet([x0] + xs[r]), "elu").coeffs for r in range(2)]
    out = total(ys[0][0] * weights[0])
    for j in range(1, order + 1):
        for r in range(2):
            out = out + total(ys[r][j] * weights[1 + 2 * (j - 1) + r])
    want = backward(oracle, out, wrt=[x0] + xs[0] + xs[1])
    assert np.allclose(got[0], want[x0.idx], rtol=1e-12, atol=1e-15)
    for j in range(1, order + 1):
        for r in range(2):
            slot = 1 + 2 * (j - 1) + r
            assert np.allclose(got[slot], want[xs[r][j - 1].idx], rtol=1e-12, atol=1e-15), slot


@pytest.mark.parametrize("name", NETS)
def test_fused_jet_tape_replays_bit_exactly(name):
    net, x, t = fused_case(name)
    tape = Tape()
    orders = {0: 3, 1: 1, TIME: 2}
    out = net.bind(tape).forward_jets(x, t, orders)
    total = None
    for dd, od in orders.items():
        for j in range(net.output_dim):
            for k in range(od + 1):
                c = out.coef(j, dd, k)
                total = ad.mean(c) if total is None else total + ad.mean(c)
    assert {"taylor", "take"} <= {n.op for n in tape.nodes}
    assert replay(tape)


def test_jet_tape_size_does_not_grow_with_order():
    x, t = np.array([[0.3], [0.7]]), np.array([0.2, 0.5])

    def walk(depth, order):
        cfg = NetworkConfig(input_dim=2, hidden_layers=depth, width=4, output_dim=2)
        tape = Tape()
        return tape, Network(cfg, init_xavier(cfg, 0)).bind(tape).forward_jets(
            x, t, {0: order, TIME: 1})

    def nodes(depth, order):
        tape, _ = walk(depth, order)
        # nothing is read out of the head until something asks
        assert "take" not in {n.op for n in tape.nodes}
        return len(tape.nodes)

    assert nodes(3, 1) == nodes(3, 4) == nodes(3, ad.JET_ORDER_CAP)
    # a layer adds its two parameters, one affine node and one activation node
    assert nodes(4, 4) - nodes(3, 4) == nodes(5, 4) - nodes(4, 4) == 4
    # one layer: the input leaf, four parameters, two affine nodes, one activation
    # node (the head has none)
    assert nodes(1, 4) == 1 + 4 + 2 + 1

    # each distinct read records one take; a repeated read returns the same node
    tape, out = walk(2, 3)
    before = len(tape.nodes)
    reads = [out.out(1), out.coef(1, 0, 3), out.dt(0), out.dx(0, 0)]
    assert [node.op for node in tape.nodes[before:]] == ["take"] * 4
    again = [out.coef(1), out.coef(1, 0, 3), out.coef(0, TIME, 1), out.coef(0, 0, 1)]
    assert all(a is b for a, b in zip(again, reads))
    assert out.coef(1, 0, 0) is out.coef(1, TIME, 0) is reads[0]
    # a higher derivative scales its coefficient by k!: one product, no take
    out.dx(1, 0, 3)
    assert [node.op for node in tape.nodes[before:]] == ["take"] * 4 + ["mulc"]


def test_order_zero_direction_is_the_value_alone():
    net, x, t = fused_case("tanh")
    bound = net.bind(Tape())
    out = bound.forward_jets(x, t, {0: 0, TIME: 2})
    assert out.coef(1, 0, 0) is out.out(1)
    with pytest.raises(UnsupportedOrderError, match="order 0, need 1"):
        out.dx(1, 0)
    assert out.dt(1) is out.coef(1, TIME, 1) and out.coef(1, TIME, 2) is not None
    only = bound.forward_jets(x, t, {0: 0})
    assert only.rows == {} and only.head.shape == (len(x), 3)
    assert only.out(2).value.tobytes() == bound.forward(x, t).out(2).value.tobytes()
    with pytest.raises(UnsupportedOrderError, match="negative"):
        bound.forward_jets(x, t, {0: -1})


# a strong form's three point sets: the interior to {0: 4, TIME: 1}, the
# boundary to {0: 3}, the initial points by value
THREE_SETS = ({0: 4, TIME: 1}, {0: 3}, {})


@pytest.mark.parametrize("width", [5, 10, 20, 50])
@pytest.mark.parametrize("name", NETS)
def test_a_walk_over_three_sets_gives_each_set_its_own_walks_jets(name, width):
    net = make_net(name, 8, input_dim=3, hidden_layers=3, width=width, output_dim=3)
    rng = np.random.default_rng(8)
    sets = [(rng.uniform(-1, 1, size=(n, 2)), rng.uniform(0, 1, size=n), orders)
            for n, orders in zip((7, 5, 4), THREE_SETS)]
    tape = Tape()
    outs = net.bind(tape).forward_sets(sets)
    assert sum(node.op == "affine" for node in tape.nodes) == net.config.hidden_layers + 1
    for out, (x, t, orders) in zip(outs, sets):
        alone = net.bind(Tape()).forward_jets(x, t, orders)
        reads = [(j, None, 0) for j in range(3)] + [
            (j, dd, k) for j in range(3) for dd, od in orders.items() for k in range(1, od + 1)]
        for j, dd, k in reads:
            a, b = out.coef(j, dd, k).value, alone.coef(j, dd, k).value
            # a product's bits can depend on its row count (FOUND line in CHANGES.md):
            # on OpenBLAS 0.3.31 these walks agree bit for bit up to width 12
            if width <= 10:
                assert a.tobytes() == b.tobytes(), (j, dd, k)
            else:
                assert np.allclose(a, b, rtol=1e-13, atol=0), (j, dd, k)


def test_a_slot_only_another_set_carries_cannot_be_read():
    net, x, t = fused_case("tanh")
    boundary, initial = net.bind(Tape()).forward_sets(
        [(x, t, {0: 4, TIME: 1}), (x[:3], t[:3], {0: 3}), (x[:2], t[:2], {})])[1:]
    assert boundary.coef(0, 0, 3) is not None
    with pytest.raises(UnsupportedOrderError, match="order 3, need 4"):
        boundary.coef(0, 0, 4)
    with pytest.raises(UnsupportedOrderError, match="order 0, need 1"):
        boundary.dt(0)
    with pytest.raises(UnsupportedOrderError, match="order 0, need 1"):
        initial.dx(0, 0)


def test_checkpoint_header_must_be_read_fully(tmp_path):
    cfg = NetworkConfig(input_dim=2, hidden_layers=1, width=4, output_dim=2)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, cfg, init_xavier(cfg, 0))
    header, body = path.read_text().split("\n", 1)
    for bad, keys in ((header.replace(" width=4", ""), ["width"]),
                      (header + " decoupled=2:1:0|1", ["decoupled"]),
                      (header.replace("hidden_layers=1", "hidden_layers=one"), ["hidden_layers"]),
                      # an older header that still lists the dropped activation fields
                      (header + " output_activation=identity elu_alpha=1.0",
                       ["output_activation", "elu_alpha"])):
        path.write_text(bad + "\n" + body)
        with pytest.raises(ConfigError, match=", ".join(keys)) as e:
            load_checkpoint(path)
        assert e.value.bad_keys == keys
