"""Tests of the benchmark's own arithmetic.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import statistics
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import measure
from spans import Tracer
from workloads import WORKLOADS, config_text

from ldgm import autodiff as ad
from ldgm.autodiff import Tape
from ldgm.config import ExperimentConfig


def test_percentile_matches_linear_interpolation():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 10, 101):
        xs = list(rng.normal(size=n))
        for q in (0, 10, 25, 50, 90, 100):
            assert measure.percentile(xs, q) == pytest.approx(np.percentile(xs, q), abs=1e-15)
    assert measure.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert measure.median([7.0]) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_quartile_spread_uses_statistics_quantiles():
    xs = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.0, 10.2, 9.8, 11.1]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    assert measure.quartile_spread(xs) == (q3 - q1) / q2
    assert measure.quartile_spread([2.0, 2.0, 2.0]) == 0.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    durations = [10.0, 5.0, 2.0, 2.0]
    parents = [-1, 0, 1, 0]
    assert measure.self_times(durations, parents) == [3.0, 3.0, 2.0, 2.0]
    assert sum(measure.self_times(durations, parents)) == durations[0]


def _tracer(spans):
    """A Tracer holding hand-made (name, start, end, parent) spans."""
    t = Tracer()
    for name, start, end, parent in spans:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
    return t


def test_step_breakdown_parts_add_up_to_the_step():
    t = _tracer([
        ("trainer.train_loop", 0.0, 100.0, -1),
        ("sampling.draw", 0.0, 1.0, 0),             # outside any step
        ("trainer.step", 1.0, 21.0, 0),
        ("network.bind", 1.5, 2.0, 2),
        ("loss.ldgm_loss", 2.0, 12.0, 2),
        ("network.jets", 3.0, 8.0, 4),              # forward_with_derivatives
        ("network.jets", 3.5, 7.5, 5),              # ... calling forward_jets
        ("network.forward", 9.0, 10.0, 4),
        ("autodiff.backward", 12.0, 19.0, 2),
        ("trainer.adam", 19.0, 20.5, 2),
        ("metrics.eval", 21.0, 30.0, 0),
        ("network.forward", 22.0, 29.0, 10),        # metric evaluation, not a step
    ])
    (row,) = t.step_breakdown()
    assert row["step"] == 20.0
    assert row["network.jets"] == 5.0               # outermost network span only
    assert row["network.forward"] == 1.0
    assert row["network.calls"] == 2
    assert row["network.bind"] == 0.5
    assert row["loss.self"] == 4.0
    assert row["autodiff.backward"] == 7.0
    assert row["trainer.adam"] == 1.5
    assert row["trainer.self"] == 1.0
    parts = ("trainer.self", "trainer.adam", "network.bind", "network.jets",
             "network.forward", "loss.self", "ritz.self", "autodiff.backward")
    assert sum(row[k] for k in parts) == row["step"]


def test_tracer_wraps_and_restores_the_training_loop():
    from ldgm import trainer
    original = trainer.adam_step
    t = Tracer()
    with t.installed():
        assert trainer.adam_step is not original
    assert trainer.adam_step is original


def test_live_nodes_on_a_hand_built_tape():
    tape = Tape()
    x = tape.input(np.ones((3, 2)))                 # 0
    w = tape.param(np.ones((2, 4)))                 # 1
    b = tape.param(np.zeros(4))                     # 2
    h = ad.affine(x, w, b)                          # 3
    _dead = ad.tanh(h) * 2.0                        # 4, 5: not used by the output
    v = tape.param(np.ones(4))                      # 6
    out = ad.mean(h * v)                            # 7, 8
    live = measure.live_mask(tape.nodes, out.idx)
    assert live == [True, True, True, True, False, False, True, True, True]
    prof = measure.tape_profile(tape.nodes, out.idx)
    assert prof["nodes"] == 9
    assert prof["live_ratio"] == 7 / 9
    assert prof["per_op"] == {"input": 1, "param": 3, "affine": 1, "tanh": 1,
                              "mulc": 1, "mul": 1, "mean": 1}


def test_flop_and_byte_counts_from_node_shapes():
    nodes = [
        SimpleNamespace(op="input", inputs=(), value=np.zeros((200, 5))),
        SimpleNamespace(op="param", inputs=(), value=np.zeros((5, 100))),
        SimpleNamespace(op="param", inputs=(), value=np.zeros(100)),
        SimpleNamespace(op="affine", inputs=(0, 1, 2), value=np.zeros((200, 100))),
        SimpleNamespace(op="matmul", inputs=(0, 1), value=np.zeros((200, 100))),  # dead
        SimpleNamespace(op="mean", inputs=(3,), value=np.zeros(())),
    ]
    product = 2 * 200 * 5 * 100
    assert measure.matmul_flops(nodes[3], nodes) == product + 200 * 100
    assert measure.matmul_flops(nodes[4], nodes) == product
    prof = measure.tape_profile(nodes, 5)
    # live affine: forward product + bias add + two backward products; dead matmul: forward only
    assert prof["flops"] == (product + 200 * 100 + 2 * product) + product
    assert prof["bytes"] == 8 * (200 * 5 + 5 * 100 + 100 + 2 * 200 * 100 + 1)


def test_workload_configs_depend_only_on_the_seed():
    root = Path(__file__).resolve().parents[2]
    for w in WORKLOADS.values():
        a, b = config_text(root, w, 7), config_text(root, w, 7)
        assert a == b
        assert config_text(root, w, 8) != a
        cfg = ExperimentConfig.from_text(a)
        own = ExperimentConfig.from_file(root / w.config).seeds
        assert cfg.seeds == own if w.n_seeds is None else len(cfg.seeds) == w.n_seeds
        assert cfg.train().stages == w.stages
    depth = ExperimentConfig.from_text(config_text(root, WORKLOADS["depth64_ldgm"], 7))
    assert depth.seeds == list(range(20))
