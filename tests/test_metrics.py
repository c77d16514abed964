import math
import tracemalloc

import numpy as np
import pytest

from ldgm.autodiff import Tape
from ldgm.errors import UndefinedMetricError
from ldgm.metrics import (EVAL_CHUNK, WHOLE_GRID, EvaluationGrid, ProductGrid,
                          derivative_scale_diagnostic, evaluation_grid, network_values,
                          relative_l2, write_table)
from ldgm.network import AnalyticNetwork, Network, NetworkConfig, init_xavier
from ldgm.system import get_problem


def test_relative_l2_basics():
    truth = np.array([1.0, -2.0, 3.0])
    assert relative_l2(truth, truth) == 0.0
    assert relative_l2(2 * truth, truth) == pytest.approx(1.0)
    with pytest.raises(UndefinedMetricError):
        relative_l2(truth, np.zeros(3))


def test_relative_l2_constant_offset_against_direct_summation():
    rng = np.random.default_rng(0)
    truth = rng.normal(size=200) + 3.0
    a = 0.05
    candidate = truth + a
    got = relative_l2(candidate, truth)
    # direct summation oracle
    num = math.sqrt(sum((c - t) ** 2 for c, t in zip(candidate, truth)))
    den = math.sqrt(sum(t**2 for t in truth))
    assert got == pytest.approx(num / den, rel=1e-12)
    assert got == pytest.approx(a * math.sqrt(200) / den, rel=1e-12)


def test_relative_l2_is_scale_invariant():
    rng = np.random.default_rng(1)
    truth = rng.normal(size=50)
    cand = truth + rng.normal(scale=0.1, size=50)
    assert relative_l2(3.7 * cand, 3.7 * truth) == pytest.approx(
        relative_l2(cand, truth), rel=1e-12)
    assert relative_l2(-2.0 * cand, -2.0 * truth) == pytest.approx(
        relative_l2(cand, truth), rel=1e-12)


def test_grid_shapes_and_determinism():
    g1 = evaluation_grid(get_problem("beam"))
    assert g1.x.shape == (256 * 11, 1)
    assert g1.shape == (256, 11)
    spec5 = get_problem("heat_nd", d=5)
    g5a = evaluation_grid(spec5, n_mc=2000)
    g5b = evaluation_grid(spec5, n_mc=2000)
    assert g5a.x.shape == (2000 * 11, 5)
    assert np.array_equal(g5a.x, g5b.x)
    # a product grid's rows, built on demand: every point at the first time, then the next
    assert g5a.points.shape == (2000, 5)
    assert g5a.x.tobytes() == np.tile(g5a.points, (11, 1)).tobytes()
    assert g5a.t.tobytes() == np.repeat(np.linspace(0.0, spec5.horizon, 11), 2000).tobytes()
    for s, e in [(0, 1024), (1024, 3000), (21000, 22528)]:
        x, t = g5a.rows(s, e)
        assert x.tobytes() == g5a.x[s:e].tobytes() and t.tobytes() == g5a.t[s:e].tobytes()


def test_grid_refinement_stability():
    spec = get_problem("beam")
    mock = AnalyticNetwork(["exp(-t)*sin(x0) + 0.01*sin(3*x0)"], 1)
    errs = []
    for nx in (256, 512):
        grid = evaluation_grid(spec, nx=nx)
        truth = spec.exact(grid.x, grid.t)
        errs.append(relative_l2(network_values(mock, grid), truth))
    assert abs(errs[0] - errs[1]) / errs[1] < 0.01


@pytest.mark.parametrize("n,chunk,product", [
    pytest.param(2500, 2500, False, id="2500-2500"),
    pytest.param(10500, EVAL_CHUNK, False, id="10500-1024"),
    pytest.param(10500, EVAL_CHUNK, True, id="10500-1024-product")])
def test_chunked_values_equal_the_tape_walk(n, chunk, product):
    # 2500 points are walked whole; 10500 in ten full chunks and a tail, also as
    # 1500 points at 7 times, whose chunks cross from one time to the next.  The
    # recorded walk runs over the same chunks of the tiled rows: BLAS may round a
    # product of another row count differently.
    assert (n <= WHOLE_GRID) == (chunk == n)
    cfg = NetworkConfig(input_dim=2, hidden_layers=3, width=50, output_dim=4)
    net = Network(cfg, init_xavier(cfg, 2))
    rng = np.random.default_rng(2)
    if product:
        points, times = rng.uniform(0, 3, size=(1500, 1)), rng.uniform(0, 1, size=7)
        grid = ProductGrid(points, times)
        x, t = np.tile(points, (7, 1)), np.repeat(times, 1500)
    else:
        x, t = rng.uniform(0, 3, size=(n, 1)), rng.uniform(0, 1, size=n)
        grid = EvaluationGrid(x, t)
    want = np.concatenate([net.bind(Tape()).forward(x[s:s + chunk], t[s:s + chunk]).out(0).value
                           for s in range(0, n, chunk)])
    assert network_values(net, grid).tobytes() == want.tobytes()


def test_network_values_holds_no_layer_arrays():
    # a recorded walk over the 2816-point grid keeps all 64 layers' arrays, about 30 MB
    cfg = NetworkConfig(input_dim=2, hidden_layers=64, width=10, output_dim=1,
                        hidden_activation="elu")
    net = Network(cfg, init_xavier(cfg, 0))
    grid = evaluation_grid(get_problem("mkdv"))
    assert grid.x.shape[0] == 2816
    tracemalloc.start()
    try:
        network_values(net, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_high_dimensional_grid_holds_its_factors():
    # heat5d's grid and its ldgm net (6 outputs): tiled rows took 5.0 MB, and a call
    # that kept each chunk's head until the end peaked at 7.4 MB
    tracemalloc.start()
    try:
        grid = evaluation_grid(get_problem("heat_nd", d=5))
        stored, _ = tracemalloc.get_traced_memory()
        cfg = NetworkConfig(input_dim=6, hidden_layers=4, width=100, output_dim=6)
        net = Network(cfg, init_xavier(cfg, 0))
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        network_values(net, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid) == 110000
    assert stored < 2**20
    assert peak - base < 4 * 2**20


def test_fourth_derivative_norm_ratio_is_pi_fourth():
    xs = np.linspace(-1, 1, 4001)
    u = np.sin(np.pi * xs)
    d4 = np.pi**4 * np.sin(np.pi * xs)
    ratio = np.linalg.norm(d4) / np.linalg.norm(u)
    assert ratio == pytest.approx(np.pi**4, rel=1e-12)


def test_perfect_mock_reports_zero_discrepancies():
    mock = AnalyticNetwork(["sin(pi*x0)"], 1, with_time=False)
    report = derivative_scale_diagnostic(net=mock)
    assert not report.skipped
    assert report.fit_rel_l2 < 1e-12
    for order, disc in report.rows:
        assert disc < 1e-11, order


def test_bad_fit_marks_diagnostic_skipped():
    mock = AnalyticNetwork(["0.5*sin(pi*x0)"], 1, with_time=False)
    report = derivative_scale_diagnostic(net=mock)
    assert report.skipped
    assert report.fit_rel_l2 > 0.01
    assert report.rows == []


def test_write_table_formats(tmp_path):
    rows = [(1, 0.5), (2, 0.25)]
    csv_path = tmp_path / "t.csv"
    write_table(csv_path, ("order", "err"), rows)
    assert csv_path.read_text().splitlines() == ["order,err", "1,0.5", "2,0.25"]
