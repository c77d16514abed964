"""The four training workloads and the configs they hand to the program.

Each workload is a repository config with the step budget (and, for the
ch workload, the method) set here.  `--seed` picks the sampler seed and,
unless the workload runs the config's own seed list, the run seeds; the
program sees only the generated config text.  Why each workload exists is
recorded in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from ldgm.config import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                   # repository config, relative to the checkout root
    stages: int                   # step budget: stages x the config's steps_per_stage
    n_seeds: int | None = None    # seeds drawn per run; None runs the config's seed list
    overrides: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload("ch_dgm", "configs/ch_eps010.cfg", stages=10, n_seeds=3,
             overrides={"method": "dgm"}),
    Workload("depth64_ldgm", "configs/depth64_study.cfg", stages=1),
    Workload("heat5d_ldgm", "configs/heat5d.cfg", stages=20),
    Workload("ritz1d_ldrm", "configs/ritz1d.cfg", stages=80, n_seeds=3),
)}


def config_text(root: Path, workload: Workload, seed: int) -> str:
    """The repository config with this workload's budget and seed lines appended.

    Later lines override earlier ones, so the generated file keeps every
    other setting of the repository config.
    """
    base = (root / workload.config).read_text()
    rng = random.Random(seed)
    if workload.n_seeds is None:
        seeds = ExperimentConfig.from_text(base).seeds
    else:
        seeds = sorted(rng.sample(range(1000), workload.n_seeds))
    lines = [f"{k}={v}" for k, v in workload.overrides.items()]
    lines += [f"train.stages={workload.stages}",
              f"sampler.seed={rng.randrange(1000)}",
              "seeds=" + ",".join(str(s) for s in seeds)]
    return base.rstrip("\n") + "\n# set by perfbench\n" + "\n".join(lines) + "\n"
