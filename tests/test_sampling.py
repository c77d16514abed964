import numpy as np

from ldgm.sampling import SamplerConfig, draw_batch
from ldgm.system import get_problem


def test_same_seed_and_stage_reproduce_batch():
    spec = get_problem("beam")
    cfg = SamplerConfig(seed=5)
    a = draw_batch(cfg, spec, stage=3)
    b = draw_batch(cfg, spec, stage=3)
    for name in ("interior_x", "interior_t", "initial_x", "boundary_x", "boundary_t"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    c = draw_batch(cfg, spec, stage=4)
    assert not np.array_equal(a.interior_x, c.interior_x)


def test_one_dimensional_boundary_sits_on_the_faces():
    spec = get_problem("beam")
    batch = draw_batch(SamplerConfig(boundary=200, seed=1), spec, stage=0)
    lo, hi = spec.domain[0]
    vals = batch.boundary_x[:, 0]
    assert np.all((vals == lo) | (vals == hi))
    assert set(np.unique(vals)) == {lo, hi}


def test_region_streams_are_isolated():
    spec = get_problem("beam")
    a = draw_batch(SamplerConfig(boundary=50, seed=9), spec, stage=0)
    b = draw_batch(SamplerConfig(boundary=150, seed=9), spec, stage=0)
    assert np.array_equal(a.interior_x, b.interior_x)
    assert np.array_equal(a.initial_x, b.initial_x)


def test_five_dimensional_means_and_faces():
    spec = get_problem("heat_nd", d=5)
    batch = draw_batch(SamplerConfig(interior=10_000, seed=2), spec, stage=0)
    # Chebyshev/CLT sizing: sd of the mean = 1/sqrt(12*1e4) ~ 0.0029
    means = batch.interior_x.mean(axis=0)
    assert np.all((means > 0.49) & (means < 0.51))
    pinned = np.take_along_axis(batch.boundary_x, batch.boundary_axis[:, None], 1)[:, 0]
    assert np.all((pinned == 0.0) | (pinned == 1.0))


def test_marginals_pass_kolmogorov_smirnov():
    spec = get_problem("heat_nd", d=2)
    batch = draw_batch(SamplerConfig(interior=10_000, seed=7), spec, stage=1)
    n = batch.interior_x.shape[0]
    crit = 1.628 / np.sqrt(n)  # alpha = 0.01
    for ax in range(2):
        s = np.sort(batch.interior_x[:, ax])
        grid = (np.arange(1, n + 1)) / n
        d_stat = np.max(np.maximum(np.abs(grid - s), np.abs(s - (np.arange(n)) / n)))
        assert d_stat < crit
    t = np.sort(batch.interior_t)
    d_stat = np.max(np.abs((np.arange(1, n + 1)) / n - t))
    assert d_stat < crit


def test_stationary_problem_gets_no_time_and_no_initial_points():
    spec = get_problem("bilaplacian_ritz", d=2)
    batch = draw_batch(SamplerConfig(seed=0), spec, stage=0)
    assert batch.interior_t is None and batch.boundary_t is None
    assert batch.initial_x.shape[0] == 0
    pinned = np.take_along_axis(batch.boundary_x, batch.boundary_axis[:, None], 1)[:, 0]
    assert np.all((pinned == 0.0) | (pinned == 1.0))


def test_non_cubic_boxes_weight_faces_by_area():
    from ldgm.system import ProblemSpec
    spec = ProblemSpec(name="slab", spatial_dim=2, domain=((0.0, 10.0), (0.0, 1.0)),
                       horizon=1.0, pde_order=1, rhs=None,
                       initial=lambda x: np.zeros(len(x)),
                       boundary=((0, 0.0),))
    batch = draw_batch(SamplerConfig(boundary=4000, seed=3), spec, stage=0)
    # faces normal to axis 1 have 10x the measure of faces normal to axis 0
    frac_axis1 = np.mean(batch.boundary_axis == 1)
    assert abs(frac_axis1 - 10 / 11) < 0.03
