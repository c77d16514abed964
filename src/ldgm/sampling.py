"""Seeded uniform sampling of interior, initial and boundary point sets.

The generator stream is keyed by (seed, stage, region) so that changing
one region's count never perturbs another region's draws, and the whole
training trajectory is a pure function of the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .system import ProblemSpec

_REGION_INTERIOR, _REGION_INITIAL, _REGION_BOUNDARY = 0, 1, 2


@dataclass(frozen=True)
class SamplerConfig:
    interior: int = 200
    initial: int = 50
    boundary: int = 50
    seed: int = 0


@dataclass
class SampleBatch:
    interior_x: np.ndarray
    interior_t: Optional[np.ndarray]
    initial_x: np.ndarray
    boundary_x: np.ndarray
    boundary_t: Optional[np.ndarray]
    boundary_axis: np.ndarray


def _rng(seed: int, stage: int, region: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stage, region)))


def _uniform_box(rng, domain, n):
    lo = np.array([a for a, _ in domain])
    hi = np.array([b for _, b in domain])
    return lo + (hi - lo) * rng.uniform(size=(n, len(domain)))


def draw_batch(cfg: SamplerConfig, spec: ProblemSpec, stage: int) -> SampleBatch:
    """One stage's points; fully determined by (cfg.seed, stage)."""
    domain = spec.domain
    d = spec.spatial_dim
    horizon = spec.horizon

    rng = _rng(cfg.seed, stage, _REGION_INTERIOR)
    interior_x = _uniform_box(rng, domain, cfg.interior)
    interior_t = None if horizon is None else horizon * rng.uniform(size=cfg.interior)

    n_init = 0 if horizon is None else cfg.initial
    initial_x = _uniform_box(_rng(cfg.seed, stage, _REGION_INITIAL), domain, n_init)

    rng = _rng(cfg.seed, stage, _REGION_BOUNDARY)
    sides = np.array([b - a for a, b in domain])
    # face area weighting; coincides with a uniform face choice for cubes
    areas = np.array([np.prod(np.delete(sides, ax)) for ax in range(d) for _ in (0, 1)])
    face = rng.choice(2 * d, size=cfg.boundary, p=areas / areas.sum())
    axis, side = face // 2, face % 2
    boundary_x = _uniform_box(rng, domain, cfg.boundary)
    pinned = np.array([domain[a][s] for a, s in zip(axis, side)])
    boundary_x[np.arange(cfg.boundary), axis] = pinned
    boundary_t = None if horizon is None else horizon * rng.uniform(size=cfg.boundary)

    return SampleBatch(interior_x, interior_t, initial_x, boundary_x, boundary_t, axis)
