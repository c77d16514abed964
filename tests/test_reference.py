import csv
import io

import numpy as np
import pytest

from ldgm.errors import ConfigError, SizeError, UnavailableError
from ldgm.reference import ReferenceField, SpectralCHConfig, fft, ifft, solve_ch_spectral
from ldgm.system import get_problem

from oracles import dense_ch_solver, exact_solution, naive_dft, relative


def test_delta_has_flat_spectrum():
    x = np.zeros(64)
    x[0] = 1.0
    X = fft(x)
    assert np.allclose(np.abs(X), 1 / 8, atol=1e-14)


def test_cosine_concentrates_in_modes_one():
    n = 128
    x = np.cos(2 * np.pi * np.arange(n) / n)
    X = fft(x)
    power = np.abs(X) ** 2
    assert power[1] > 1e-3 and power[-1] > 1e-3
    mask = np.ones(n, dtype=bool)
    mask[[1, n - 1]] = False
    assert np.max(power[mask]) < 1e-24


def test_fft_matches_naive_dft_and_roundtrips():
    rng = np.random.default_rng(0)
    for n in (2, 8, 64, 256):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert relative(np.abs(fft(x) - naive_dft(x)), np.zeros(n) + 1) < 1e-10 or \
            np.max(np.abs(fft(x) - naive_dft(x))) < 1e-10
        back = ifft(fft(x))
        assert np.max(np.abs(back - x)) < 1e-12
        # unitary convention preserves energy
        assert np.linalg.norm(fft(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_non_power_of_two_rejected():
    with pytest.raises(SizeError):
        fft(np.zeros(12))
    # a grid size is a config field: its error names it
    with pytest.raises(ConfigError, match="grid_size"):
        SpectralCHConfig(grid_size=129)


def test_constant_initial_state_is_steady():
    cfg = SpectralCHConfig(epsilon=0.1, horizon=0.2)
    field = solve_ch_spectral(cfg, u0=np.full(128, 0.3))
    assert np.max(np.abs(field.values - 0.3)) < 1e-13


def test_mass_is_conserved_every_step():
    field = solve_ch_spectral(SpectralCHConfig(epsilon=0.1))
    mass = field.mass()
    assert np.max(np.abs(mass - mass[0])) < 1e-12


def test_field_matches_dense_matrix_solver():
    cfg = SpectralCHConfig(grid_size=128, epsilon=0.1)
    field = solve_ch_spectral(cfg)
    x64 = 2 * np.pi * np.arange(64) / 64
    dense = dense_ch_solver(np.cos(x64), epsilon=0.1, dt=cfg.dt, n_steps=cfg.n_steps)
    shared = field.values[-1][::2]  # the 64-point grid is every other node
    assert relative(shared, dense) < 1e-6


def test_self_convergence_is_first_order():
    fields = {}
    for dt in (0.01, 0.005, 0.0025):
        fields[dt] = solve_ch_spectral(SpectralCHConfig(dt=dt, epsilon=0.1)).values[-1]
    e1 = np.linalg.norm(fields[0.01] - fields[0.005])
    e2 = np.linalg.norm(fields[0.005] - fields[0.0025])
    slope = np.log2(e1 / e2)
    assert 0.8 <= slope <= 1.2, slope


def test_exact_solution_values_and_cross_check():
    beam, mkdv, heat5 = get_problem("beam"), get_problem("mkdv"), get_problem("heat_nd", d=5)
    assert exact_solution(beam, [[np.pi / 2]], [0.0])[0] == pytest.approx(1.0)
    assert exact_solution(mkdv, [[2.0]], [1.0])[0] == pytest.approx(np.tanh(3.0))
    assert exact_solution(heat5, [[0.0] * 5], [0.7])[0] == 0.0
    rng = np.random.default_rng(1)
    for spec in (beam, mkdv, heat5):
        d = spec.spatial_dim
        x = rng.uniform(0, 1, size=(50, d))
        t = rng.uniform(0, 1, size=50)
        assert relative(exact_solution(spec, x, t), spec.exact(x, t)) < 1e-12
    with pytest.raises(UnavailableError):
        exact_solution(get_problem("cahn_hilliard"), [[0.0]], [0.0])


def test_interpolation_hits_nodes_and_is_linear_between():
    xs = 2 * np.pi * np.arange(8) / 8
    ts = np.linspace(0, 1, 5)
    values = np.sin(xs)[None, :] * (1 + ts)[:, None]
    field = ReferenceField(xs, ts, values)
    assert field.interp(xs[3], ts[2])[0] == pytest.approx(values[2, 3], rel=1e-14)
    mid = field.interp((xs[2] + xs[3]) / 2, ts[1])[0]
    assert mid == pytest.approx(0.5 * (values[1, 2] + values[1, 3]), rel=1e-14)
    # periodic wrap: querying just past the last node blends with x=0
    wrap = field.interp(xs[-1] + (xs[1] / 2), 0.0)[0]
    assert wrap == pytest.approx(0.5 * (values[0, -1] + values[0, 0]), abs=1e-12)


def test_reference_field_csv_roundtrip(tmp_path):
    field = solve_ch_spectral(SpectralCHConfig(grid_size=16, dt=0.25, horizon=0.5,
                                               epsilon=0.1))
    path = tmp_path / "ref.csv"
    field.save_csv(path)
    back = ReferenceField.load_csv(path)
    assert np.array_equal(back.values, field.values)
    assert np.array_equal(back.xs, field.xs)
    assert np.array_equal(back.ts, field.ts)


def test_reference_csv_bytes_are_csv_writer_rows(tmp_path):
    field = solve_ch_spectral(SpectralCHConfig(grid_size=16, dt=0.25, horizon=0.5,
                                               epsilon=0.1))
    field.values[1, 3] = -1.5e-300   # exponent form and sign survive the format
    path = tmp_path / "ref.csv"
    field.save_csv(path)
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["t", "x", "u"])
    for j, t in enumerate(field.ts):
        for i, x in enumerate(field.xs):
            w.writerow([repr(float(t)), repr(float(x)), repr(float(field.values[j, i]))])
    assert path.read_bytes() == buf.getvalue().encode()
