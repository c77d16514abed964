import math

import numpy as np
import pytest

from ldgm.config import ExperimentConfig
from ldgm.errors import ConfigError, LdgmError, NonFiniteLossError
from ldgm.network import BoundNetwork, NetworkConfig, init_xavier
from ldgm.ritz import RitzConfig
from ldgm.sampling import SamplerConfig
from ldgm.trainer import (METHODS, AdamState, TrainConfig, TrainReport, adam_step,
                          default_network_config, train)
from ldgm.system import get_problem

from test_system import advection


def tiny_params():
    cfg = NetworkConfig(input_dim=2, hidden_layers=1, width=3, output_dim=1)
    return init_xavier(cfg, seed=0)


def test_zero_gradient_leaves_parameters_unchanged():
    params = tiny_params()
    before = params.to_vector()
    state = AdamState(params)
    adam_step(params, [np.zeros_like(a) for a in params.arrays], state, lr=0.1)
    assert np.array_equal(params.to_vector(), before)
    assert state.step == 1


def test_first_step_magnitude_is_learning_rate():
    params = tiny_params()
    state = AdamState(params)
    grads = [np.full_like(a, 2.7) for a in params.arrays]
    before = params.to_vector()
    adam_step(params, grads, state, lr=0.01)
    moves = np.abs(params.to_vector() - before)
    # bias-corrected ratio is 1, up to the epsilon in the denominator
    assert np.allclose(moves, 0.01, rtol=1e-6)


def test_adam_is_deterministic_over_100_steps():
    def run():
        params = tiny_params()
        state = AdamState(params)
        rng = np.random.default_rng(3)
        for _ in range(100):
            grads = [rng.normal(size=a.shape) for a in params.arrays]
            adam_step(params, grads, state, lr=1e-3)
        return params.to_vector()

    assert run().tobytes() == run().tobytes()


def test_flat_adam_matches_the_per_array_update_bit_for_bit():
    def per_array(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
            params.arrays[i] = params.arrays[i] - lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)

    cfg = NetworkConfig(input_dim=2, hidden_layers=3, width=5, output_dim=2)
    flat, ref = init_xavier(cfg, seed=1), init_xavier(cfg, seed=1)
    state = AdamState(flat)
    m = [np.zeros_like(a) for a in ref.arrays]
    v = [np.zeros_like(a) for a in ref.arrays]
    rng = np.random.default_rng(5)
    for step in range(1, 6):
        grads = [rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 3) for a in ref.arrays]
        held = [a.copy() for a in flat.arrays]
        taken = list(flat.arrays)
        adam_step(flat, grads, state, lr=1e-2)
        per_array(ref, grads, m, v, step, lr=1e-2)
        assert flat.to_vector().tobytes() == ref.to_vector().tobytes()
        assert [a.shape for a in flat.arrays] == [a.shape for a in ref.arrays]
        # arrays taken out before the step are not changed by it
        assert all(np.array_equal(a, b) for a, b in zip(taken, held))
    assert state.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()


def test_non_finite_gradient_aborts_with_diagnostics():
    params = tiny_params()
    state = AdamState(params)
    grads = [np.zeros_like(a) for a in params.arrays]
    adam_step(params, grads, state, lr=1e-3)
    grads[1][0] = np.nan
    with pytest.raises(NonFiniteLossError) as e:
        adam_step(params, grads, state, lr=1e-3)
    assert "b_in" in str(e.value)
    # the number is the Adam step counter, and the message says so
    assert e.value.step == 2
    assert "Adam step 2" in str(e.value)


def test_zero_stages_returns_empty_report_and_initial_params():
    spec = advection()
    net_cfg = default_network_config(spec, "ldgm", hidden_layers=1, width=4)
    report, params = train(spec, "ldgm", net_cfg, SamplerConfig(interior=5, initial=2, boundary=2),
                           TrainConfig(stages=0), seed=1)
    assert report.rows == []
    assert params == init_xavier(net_cfg, 1)


def test_training_trajectory_is_deterministic():
    spec = advection()
    net_cfg = default_network_config(spec, "ldgm", hidden_layers=2, width=6)
    args = (spec, "ldgm", net_cfg,
            SamplerConfig(interior=16, initial=8, boundary=8, seed=0),
            TrainConfig(stages=5, steps_per_stage=3))
    r1, p1 = train(*args, seed=4)
    r2, p2 = train(*args, seed=4)
    num1 = [row[:6] for row in r1.rows]
    num2 = [row[:6] for row in r2.rows]
    assert num1 == num2
    assert p1.to_vector().tobytes() == p2.to_vector().tobytes()
    r3, _ = train(*args, seed=5)
    assert [row[:6] for row in r3.rows] != num1


def test_report_row_cadence_and_columns():
    spec = advection()
    net_cfg = default_network_config(spec, "ldgm", hidden_layers=1, width=4)
    cfg = TrainConfig(stages=6, steps_per_stage=2)
    report, _ = train(spec, "ldgm", net_cfg, SamplerConfig(interior=8, initial=4, boundary=4),
                      cfg, seed=0)
    assert len(report.rows) == 6
    assert [row[0] for row in report.rows] == [2, 4, 6, 8, 10, 12]
    assert all(math.isfinite(row[1]) for row in report.rows)
    secs = [row[6] for row in report.rows]
    assert all(b >= a for a, b in zip(secs, secs[1:]))


def test_report_csv_roundtrip(tmp_path):
    rep = TrainReport()
    rep.log(5, 0.25, 0.1, 0.05, 0.1, 0.5, 1.25)
    rep.log(10, 0.12, 0.04, 0.04, 0.04, float("nan"), 2.5)
    path = tmp_path / "report.csv"
    rep.to_csv(path)
    back = TrainReport.from_csv(path)
    assert back.rows[0] == rep.rows[0]
    assert math.isnan(back.rows[1][5])
    assert back.rows[1][0] == 10


def test_tail_rel_l2_reads_the_last_tenth_of_the_rows():
    rep = TrainReport()
    assert all(math.isnan(v) for v in rep.tail_rel_l2())
    for i, rel in enumerate([0.9, 0.5, 0.4, 0.3, 0.2, 0.1, 0.3, 0.25, 0.05, 0.6,
                             0.5, 0.7, 0.02, 0.8, 0.9, 0.6, 0.4, 0.35, 0.3, 0.5]):
        rep.log(5 * (i + 1), 1.0, 0.5, 0.25, 0.25, rel, 0.1 * i)
    # 20 rows: the tail is the last 2 (0.3, 0.5); the dip to 0.02 at row 13 is not in it
    assert rep.tail_rel_l2() == (0.3, 0.4)
    rep.rows = rep.rows[:9]   # under 10 rows the tail is the final row alone
    assert rep.tail_rel_l2() == (0.05, 0.05)


def test_report_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("step,J_total,rel_l2\n5,0.25,0.5\n")
    with pytest.raises(LdgmError, match="header"):
        TrainReport.from_csv(path)
    path.write_text("")
    with pytest.raises(LdgmError, match="header"):
        TrainReport.from_csv(path)


def test_piecewise_log_rate_schedule():
    cfg = TrainConfig(learning_rate=1e-3, schedule="piecewise_log")
    assert cfg.rate_at(1) == 1e-3     # clipped by the base rate
    assert cfg.rate_at(5000) == 1e-3
    assert cfg.rate_at(10_000) == 1e-4
    assert cfg.rate_at(99_999) == 1e-4
    assert cfg.rate_at(100_000) == 1e-5
    assert TrainConfig(learning_rate=0.5).rate_at(123) == 0.5


def test_short_ldgm_run_reduces_beam_error():
    spec = get_problem("beam")
    net_cfg = default_network_config(spec, "ldgm", hidden_layers=2, width=16)
    report, _ = train(spec, "ldgm", net_cfg,
                      SamplerConfig(interior=64, initial=16, boundary=16, seed=0),
                      TrainConfig(stages=120, steps_per_stage=5, learning_rate=3e-3,
                                  log_every=20), seed=0)
    assert report.rows[-1][5] < report.rows[0][5]
    assert all(math.isfinite(r[1]) for r in report.rows)


# method -> (problem, its output count)
_METHOD_CASES = {
    "ldgm": (lambda: get_problem("beam"), 4),
    "dgm": (lambda: get_problem("beam"), 1),
    "ldrm": (lambda: get_problem("bilaplacian_ritz", d=1), 2),
    "drm": (lambda: get_problem("bilaplacian_ritz", d=1), 1),
}


@pytest.mark.parametrize("method", list(METHODS))
def test_every_method_trains_through_train(method):
    make_spec, outputs = _METHOD_CASES[method]
    spec = make_spec()
    net_cfg = default_network_config(spec, method, hidden_layers=1, width=4)
    assert net_cfg.output_dim == METHODS[method].outputs(spec) == outputs
    if METHODS[method].variational:
        sampler = RitzConfig(interior=12, boundary=6).sampler()
    else:
        sampler = SamplerConfig(interior=12, initial=6, boundary=6)
    report, params = train(spec, method, net_cfg, sampler,
                           TrainConfig(stages=1, steps_per_stage=2), seed=0)
    assert len(report.rows) == 1
    assert all(math.isfinite(v) for v in report.rows[0])
    assert params.arrays[-1].shape[-1] == outputs


def test_unknown_method_is_a_config_error():
    spec = advection()
    net_cfg = NetworkConfig(input_dim=2, hidden_layers=1, width=4, output_dim=1)
    with pytest.raises(ConfigError) as e:
        train(spec, "ldgm2", net_cfg, SamplerConfig(interior=5, initial=2, boundary=2),
              TrainConfig(stages=1))
    assert e.value.bad_keys == ["method"]
    assert str(tuple(METHODS)) in str(e.value)
    with pytest.raises(ConfigError):
        default_network_config(spec, "ldgm2")
    with pytest.raises(ConfigError) as e:
        ExperimentConfig.from_text("method=ldgm2\n")
    assert e.value.bad_keys == ["method"]


@pytest.mark.parametrize("method,name,kwargs", [
    ("ldrm", "beam", {}), ("drm", "heat_nd", {"d": 2}),
    ("dgm", "bilaplacian_ritz", {"d": 1}), ("ldgm", "bilaplacian_ritz", {"d": 2}),
])
def test_method_must_fit_the_kind_of_problem(monkeypatch, method, name, kwargs):
    walks = []
    monkeypatch.setattr(BoundNetwork, "forward_jets", lambda *a, **k: walks.append(a))
    spec = get_problem(name, **kwargs)
    net_cfg = NetworkConfig(input_dim=spec.spatial_dim + (not spec.stationary),
                            hidden_layers=1, width=4, output_dim=1)
    for call in (lambda: default_network_config(spec, method),
                 lambda: train(spec, method, net_cfg,
                               SamplerConfig(interior=5, initial=2, boundary=2),
                               TrainConfig(stages=1))):
        with pytest.raises(ConfigError) as e:
            call()
        assert e.value.bad_keys == ["method", "problem.name"]
        assert repr(method) in str(e.value) and repr(name) in str(e.value)
    assert walks == []
