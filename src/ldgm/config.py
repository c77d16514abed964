"""Flat key=value experiment configs with section prefixes.

The format is one `section.key=value` per line, '#' comments allowed.
Unknown keys are rejected outright, and every run echoes its fully
resolved config so results stay re-derivable.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from .autodiff import ACTIVATION_KINDS
from .errors import ConfigError
from .network import DecoupledSpec, NetworkConfig
from .ritz import RitzConfig
from .sampling import SamplerConfig
from .system import ProblemSpec, get_problem
from .trainer import TrainConfig, default_network_config, method_entry

_DEFAULTS = {
    "problem.name": "beam",
    "problem.epsilon": "0.1",
    "problem.dimension": "5",
    "method": "ldgm",
    "network.hidden_layers": "3",
    "network.width": "50",
    "network.activation": "tanh",
    "network.output_activation": "identity",
    "network.elu_alpha": "1.0",
    "network.trunk_depth": "",
    "network.branch_depth": "",
    "network.groups": "",
    "sampler.interior": "200",
    "sampler.initial": "50",
    "sampler.boundary": "50",
    "sampler.seed": "0",
    "train.learning_rate": "0.001",
    "train.stages": "1000",
    "train.steps_per_stage": "5",
    "train.beta1": "0.9",
    "train.beta2": "0.999",
    "train.epsilon": "1e-8",
    "train.schedule": "",
    "train.log_every": "1",
    "ritz.penalty": "500.0",
    "ritz.interior": "400",
    "ritz.boundary": "100",
    "seeds": "0",
    "out": "runs",
}

NUMERIC_KEYS = {k for k in _DEFAULTS
                if k.split(".")[-1] not in ("name", "activation", "output_activation",
                                            "groups", "schedule") and k not in ("method", "seeds", "out")}


def parse_config_text(text: str) -> dict[str, str]:
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([line], f"line {lineno} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def validate_keys(raw: dict[str, str]) -> None:
    bad = sorted(k for k in raw if k not in _DEFAULTS)
    if bad:
        raise ConfigError(bad)
    if "method" in raw:
        method_entry(raw["method"])
    for key in ("network.activation", "network.output_activation"):
        if key in raw and raw[key] not in ACTIVATION_KINDS:
            raise ConfigError([key], f"{key} must be one of {ACTIVATION_KINDS}")


@dataclass
class ExperimentConfig:
    raw: dict[str, str]

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        raw = parse_config_text(text)
        validate_keys(raw)
        merged = dict(_DEFAULTS)
        merged.update(raw)
        return cls(merged)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_text(f.read())

    def override(self, key: str, value) -> "ExperimentConfig":
        if key not in _DEFAULTS:
            raise ConfigError([key])
        raw = dict(self.raw)
        raw[key] = str(value)
        return ExperimentConfig(raw)

    # -- resolved views -----------------------------------------------------

    @property
    def method(self) -> str:
        return self.raw["method"]

    @property
    def seeds(self) -> list[int]:
        return [int(s) for s in self.raw["seeds"].split(",") if s.strip() != ""]

    @property
    def out_dir(self) -> str:
        return self.raw["out"]

    def problem(self) -> ProblemSpec:
        name = self.raw["problem.name"]
        if name in ("cahn_hilliard", "allen_cahn"):
            return get_problem(name, epsilon=float(self.raw["problem.epsilon"]))
        if name in ("heat_nd", "bilaplacian_ritz"):
            return get_problem(name, d=int(self.raw["problem.dimension"]))
        return get_problem(name)

    def network(self, spec: ProblemSpec) -> NetworkConfig:
        decoupled = None
        if self.raw["network.groups"]:
            groups = tuple(tuple(int(i) for i in g.split("-"))
                           for g in self.raw["network.groups"].split("|"))
            decoupled = DecoupledSpec(int(self.raw["network.trunk_depth"]),
                                      int(self.raw["network.branch_depth"]), groups)
        net = default_network_config(spec, self.method,
                                     hidden_layers=int(self.raw["network.hidden_layers"]),
                                     width=int(self.raw["network.width"]),
                                     activation=self.raw["network.activation"],
                                     decoupled=decoupled)
        return dataclasses.replace(net, output_activation=self.raw["network.output_activation"],
                                   elu_alpha=float(self.raw["network.elu_alpha"]))

    def sampler(self) -> SamplerConfig:
        if method_entry(self.method).variational:
            return self.ritz().sampler()
        return SamplerConfig(
            interior=int(self.raw["sampler.interior"]),
            initial=int(self.raw["sampler.initial"]),
            boundary=int(self.raw["sampler.boundary"]),
            seed=int(self.raw["sampler.seed"]))

    def train(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=float(self.raw["train.learning_rate"]),
            stages=int(self.raw["train.stages"]),
            steps_per_stage=int(self.raw["train.steps_per_stage"]),
            beta1=float(self.raw["train.beta1"]),
            beta2=float(self.raw["train.beta2"]),
            epsilon=float(self.raw["train.epsilon"]),
            schedule=self.raw["train.schedule"] or None,
            log_every=int(self.raw["train.log_every"]))

    def ritz(self) -> RitzConfig:
        return RitzConfig(penalty=float(self.raw["ritz.penalty"]),
                          interior=int(self.raw["ritz.interior"]),
                          boundary=int(self.raw["ritz.boundary"]))

    def resolved_text(self) -> str:
        return "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw)) + "\n"

    def content_hash(self) -> str:
        payload = "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw)
                            if k not in ("seeds", "out"))
        return hashlib.sha256(payload.encode()).hexdigest()[:8]
