"""A tape replayed at new parameters is the recording there, bit for bit.

Within a training stage the batch is fixed, so `trainer.train_loop` records
each stage's loss once and replays the tape for every later step.
"""

import numpy as np
import pytest

from ldgm import autodiff as ad
from ldgm import trainer
from ldgm.cli import main
from ldgm.errors import InvalidNodeError, NonFiniteLossError
from ldgm.network import Network, init_xavier
from ldgm.ritz import RitzConfig
from ldgm.sampling import SamplerConfig, draw_batch
from ldgm.system import get_problem
from ldgm.trainer import (METHODS, AdamState, TrainConfig, adam_step,
                          default_network_config, train)

from oracles import replay, sigmoid_net

_PROBLEM = {"ldgm": ("beam", {}), "dgm": ("beam", {}),
            "ldrm": ("bilaplacian_ritz", {"d": 1}), "drm": ("bilaplacian_ritz", {"d": 1})}

# (method, hidden units, output units) under every method: every activation a
# config accepts under the linear head, and the sigmoid nets of `sigmoid_net`
CASES = ([(m, act, "identity") for m in METHODS for act in ad.ACTIVATION_KINDS + ("sigmoid",)]
         + [(m, "tanh", "sigmoid") for m in METHODS])


def _setup(method, hidden, head="identity", seed=3):
    name, kwargs = _PROBLEM[method]
    spec = get_problem(name, **kwargs)
    cfg = default_network_config(spec, method, hidden_layers=2, width=5,
                                 activation="tanh" if hidden == "sigmoid" else hidden)
    net = Network(cfg, init_xavier(cfg, seed))
    if "sigmoid" in (hidden, head):
        net = sigmoid_net(net, head=head == "sigmoid")
    loss_fn = METHODS[method].loss(spec, RitzConfig())
    batch = draw_batch(SamplerConfig(interior=9, initial=4, boundary=4, seed=seed), spec, 0)
    return net, lambda bound: loss_fn(bound, batch)


def _record(net, loss_of):
    tape = ad.Tape()
    bound = net.bind(tape)
    return tape, loss_of(bound).J_total


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


def _step_and_replay(net, loss_of, lr):
    """Record at p0, take one Adam step to p1, replay there."""
    tape, out = _record(net, loss_of)
    grads = ad.backward(tape, out)
    state = AdamState(net.params)
    adam_step(net.params, [grads[i] for i in tape.params], state, lr)
    recorded = [node.value for node in tape.nodes]
    tape.replay(net.params.arrays)
    return tape, out, recorded


def _assert_matches_a_fresh_recording(net, loss_of, tape, out):
    """Every node, including those with no path to the output, since replay reruns them all."""
    fresh, fresh_out = _record(net, loss_of)
    assert [n.op for n in fresh.nodes] == [n.op for n in tape.nodes]
    for i, (node, want) in enumerate(zip(tape.nodes, fresh.nodes)):
        assert _bits(node.value) == _bits(want.value), (i, node.op)
    got, want = ad.backward(tape, out), ad.backward(fresh, fresh_out)
    assert got.keys() == want.keys()
    for i in want:
        assert _bits(got[i]) == _bits(want[i]), i
    assert replay(tape)


@pytest.mark.parametrize("method,hidden,head", CASES)
def test_replay_equals_a_fresh_recording_at_the_new_parameters(method, hidden, head):
    net, loss_of = _setup(method, hidden, head)
    tape, out, recorded = _step_and_replay(net, loss_of, lr=1e-2)
    assert _bits(out.value) != _bits(recorded[out.idx])  # the replay moved the loss
    _assert_matches_a_fresh_recording(net, loss_of, tape, out)


def test_replay_recomputes_elu_masks_where_a_preactivation_changes_sign():
    net, loss_of = _setup("ldgm", "elu")
    tape, out, recorded = _step_and_replay(net, loss_of, lr=0.3)
    flipped = 0
    for node in tape.nodes:
        if node.op == "taylor" and node.aux[0] == "elu":
            z = node.inputs[0]
            before, after = recorded[z], tape.nodes[z].value
            if node.aux[1]:  # with jets the side follows the value rows
                before, after = before[:node.aux[2]], after[:node.aux[2]]
            flipped += int(np.sum((before > 0) != (after > 0)))
    assert flipped > 0, "no elu preactivation changed sign; the case checks nothing"
    _assert_matches_a_fresh_recording(net, loss_of, tape, out)


def test_record_rejects_an_op_without_a_forward(monkeypatch):
    monkeypatch.setitem(ad.OPS, "cube", (None, lambda node, g, xs: (3.0 * g * xs[0] ** 2,)))
    tape = ad.Tape()
    p = tape.param(2.0)
    with pytest.raises(InvalidNodeError, match="'cube' has no forward"):
        tape.record("cube", (p.idx,))
    assert len(tape.nodes) == 1


def test_replay_rejects_a_wrong_number_of_arrays():
    tape = ad.Tape()
    p, q = tape.param(2.0), tape.param(3.0)
    y = p * q
    with pytest.raises(InvalidNodeError, match="1 arrays for 2 parameter leaves"):
        tape.replay([np.array(5.0)])
    assert float(y.value) == 6.0
    tape.replay([np.array(5.0), np.array(3.0)])
    assert float(y.value) == 15.0


def _nan_after_first_step(monkeypatch):
    """Adam writes NaN into one parameter after step 1, so step 2 (a replay) sees it."""
    real = trainer.adam_step

    def poisoned(params, grads, state, *args, **kwargs):
        out = real(params, grads, state, *args, **kwargs)
        if state.step == 1:
            params.arrays[0][0, 0] = np.nan
        return out

    monkeypatch.setattr(trainer, "adam_step", poisoned)


def test_non_finite_loss_on_a_replayed_step_aborts_at_that_step(monkeypatch):
    _nan_after_first_step(monkeypatch)
    spec = get_problem("beam")
    with pytest.raises(NonFiniteLossError) as e:
        train(spec, "ldgm", default_network_config(spec, "ldgm", hidden_layers=1, width=4),
              SamplerConfig(interior=6, initial=4, boundary=4),
              TrainConfig(stages=1, steps_per_stage=3), seed=0)
    assert e.value.step == 2
    assert "loss" in str(e.value)


def test_non_finite_loss_on_a_replayed_step_is_recorded_in_the_status(monkeypatch, tmp_path):
    _nan_after_first_step(monkeypatch)
    path = tmp_path / "nan.cfg"
    path.write_text(
        "problem.name=beam\nmethod=ldgm\nnetwork.hidden_layers=1\nnetwork.width=4\n"
        "sampler.interior=6\nsampler.initial=4\nsampler.boundary=4\n"
        f"train.stages=1\ntrain.steps_per_stage=3\nseeds=0\nout={tmp_path / 'runs'}\n")
    assert main(["run", "--config", str(path)]) == 1
    status = (next((tmp_path / "runs").iterdir()) / "status.txt").read_text().strip()
    assert status == ("abort: NonFiniteLossError: non-finite value at Adam step 2: "
                      "loss term evolution")
