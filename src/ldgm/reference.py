"""Ground truth without a closed form: the spectral phase-field solver.

The time stepper treats the stiff biharmonic term implicitly and the
double-well nonlinearity explicitly, mode by mode:

    u_hat <- (u_hat + dt * k^2 * f_hat) / (1 + dt * eps * k^4),  f = u - u^3,

on a periodic grid of integer wavenumbers, through `np.fft`'s unitary
transforms, which take a grid of any size from 2 points up.  The k=0 mode
is untouched, so the scheme conserves mass exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InstabilityError, ShapeError


@dataclass(frozen=True)
class SpectralCHConfig:
    grid_size: int = 128
    dt: float = 0.01
    epsilon: float = 0.1
    horizon: float = 1.0

    def __post_init__(self):
        if self.grid_size < 2:
            raise ConfigError(["grid_size"], f"grid_size must be at least 2, got {self.grid_size}")
        for key, v in (("epsilon", self.epsilon), ("dt", self.dt), ("horizon", self.horizon)):
            if not 0.0 < v < math.inf:
                raise ConfigError([key], f"{key} must be positive and finite, got {v}")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError(["horizon", "dt"], f"horizon {self.horizon} is not a whole "
                                                 f"number of time steps of dt {self.dt}")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    def grid(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.grid_size) / self.grid_size


@dataclass
class ReferenceField:
    xs: np.ndarray          # (n_x,) periodic grid on [0, 2pi)
    ts: np.ndarray          # (n_t,)
    values: np.ndarray      # (n_t, n_x)

    def mass(self) -> np.ndarray:
        return self.values.mean(axis=1)

    def interp(self, x, t) -> np.ndarray:
        """Bilinear interpolation, periodic in x and clamped in t."""
        x = np.asarray(x, dtype=np.float64).ravel()
        t = np.asarray(t, dtype=np.float64).ravel()
        n_x = self.xs.size
        dx = self.xs[1] - self.xs[0]
        xf = (x - self.xs[0]) / dx
        i0 = np.floor(xf).astype(int)
        wx = xf - i0
        i0 %= n_x
        i1 = (i0 + 1) % n_x
        dt_ = self.ts[1] - self.ts[0]
        tf = np.clip((t - self.ts[0]) / dt_, 0.0, self.ts.size - 1.0)
        j0 = np.minimum(np.floor(tf).astype(int), self.ts.size - 2)
        wt = tf - j0
        v = self.values
        return ((1 - wt) * ((1 - wx) * v[j0, i0] + wx * v[j0, i1])
                + wt * ((1 - wx) * v[j0 + 1, i0] + wx * v[j0 + 1, i1]))

    def save_csv(self, path) -> None:
        """One `t,x,u` row per grid value, as `csv.writer` would write it (CRLF ends), one time
        level at a time: joined whole, a ch reference's rows are 584 kB of strings at once."""
        xs = [repr(x) for x in self.xs.tolist()]
        with open(path, "w", newline="") as f:
            f.write("t,x,u\r\n")
            for t, row in zip(map(repr, self.ts.tolist()), self.values):
                f.write("".join([f"{t},{x},{u!r}\r\n" for x, u in zip(xs, row.tolist())]))


def solve_ch_spectral(cfg: SpectralCHConfig, u0: Optional[np.ndarray] = None) -> ReferenceField:
    """March the semi-implicit scheme; stores every time level."""
    n = cfg.grid_size
    x = cfg.grid()
    u = np.cos(x) if u0 is None else np.asarray(u0, dtype=np.float64).copy()
    if u.size != n:
        raise ShapeError(f"initial data has {u.size} points, grid has {n}")
    idx = np.arange(n)
    k = np.where(idx <= n // 2, idx, idx - n).astype(np.float64)
    denom = 1.0 + cfg.dt * cfg.epsilon * k**4
    gain = cfg.dt * k**2

    values = np.empty((cfg.n_steps + 1, n))
    values[0] = u
    u_hat = np.fft.fft(u.astype(np.complex128), norm="ortho")
    for step in range(1, cfg.n_steps + 1):
        f_hat = np.fft.fft((u - u**3).astype(np.complex128), norm="ortho")
        u_hat = (u_hat + gain * f_hat) / denom
        u_c = np.fft.ifft(u_hat, norm="ortho")
        if np.max(np.abs(u_c.imag)) > 1e-12:
            raise InstabilityError(step, "imaginary residue above tolerance")
        u = u_c.real.copy()
        if not np.all(np.isfinite(u)):
            raise InstabilityError(step)
        values[step] = u
    ts = cfg.dt * np.arange(cfg.n_steps + 1)
    return ReferenceField(xs=x, ts=ts, values=values)
