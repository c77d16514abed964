"""Flat key=value experiment configs with section prefixes.

The format is one `section.key=value` per line, '#' comments allowed.
Each value is parsed at load by its key's parser (an unknown key or a
malformed value is a ConfigError naming it), and every run echoes its
fully resolved config so results stay re-derivable.  Every method draws
its points from the `sampler.*` counts; a stationary problem (the
variational methods') draws no initial points.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .autodiff import ACTIVATION_KINDS
from .errors import ConfigError
from .network import NetworkConfig
from .ritz import RitzConfig
from .sampling import SamplerConfig
from .system import _REGISTRY, ProblemSpec, get_problem
from .trainer import METHODS, TrainConfig, default_network_config


# a parser is (convert, what it accepts); convert raises ValueError on a malformed value
def _checked(parse, ok, what):
    """A parser whose parsed value must also satisfy `ok`."""
    def convert(v):
        value = parse(v)
        if not ok(value):
            raise ValueError(v)
        return value
    return convert, what


def _one_of(*names):
    return _checked(str, names.__contains__, f"one of {names}")


def _at_least(lo):
    return _checked(int, lambda n: n >= lo, f"an integer >= {lo}")


# every comparison with nan is false, so these refuse it
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_NONNEGATIVE = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_DECAY = _checked(float, lambda v: 0 <= v < 1, "a number in [0, 1)")


# key -> (default, parser); the defaults are the strings a resolved config echoes
_KEYS = {
    "problem.name": ("beam", _one_of(*_REGISTRY)),
    "problem.epsilon": ("0.1", _POSITIVE),
    "problem.dimension": ("5", _at_least(1)),
    "method": ("ldgm", _one_of(*METHODS)),
    "network.hidden_layers": ("3", _at_least(1)),
    "network.width": ("50", _at_least(1)),
    "network.activation": ("tanh", _one_of(*ACTIVATION_KINDS)),
    "sampler.interior": ("200", _at_least(1)),
    "sampler.initial": ("50", _at_least(1)),
    "sampler.boundary": ("50", _at_least(1)),
    "sampler.seed": ("0", _at_least(0)),
    "train.learning_rate": ("0.001", _POSITIVE),
    "train.stages": ("1000", _at_least(0)),
    "train.steps_per_stage": ("5", _at_least(1)),
    "train.beta1": ("0.9", _DECAY),
    "train.beta2": ("0.999", _DECAY),
    "train.epsilon": ("1e-8", _POSITIVE),
    "train.schedule": ("", _one_of("", "piecewise_log")),
    "train.log_every": ("1", _at_least(1)),
    "ritz.penalty": ("500.0", _NONNEGATIVE),
    "seeds": ("0", _checked(lambda v: [int(s) for s in v.split(",") if s.strip() != ""],
                            lambda seeds: seeds and min(seeds) >= 0,
                            "one or more comma-separated integers >= 0")),
    "out": ("runs", (str, "text")),
}

# the keys whose values are numbers: those a sweep may vary
NUMERIC_KEYS = {k for k, (default, (convert, _)) in _KEYS.items()
                if isinstance(convert(default), (int, float))}


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


def parse_values(raw: dict[str, str]) -> dict:
    """Every value of `raw` through its key's parser; a malformed one is a ConfigError."""
    bad = sorted(k for k in raw if k not in _KEYS)
    if bad:
        raise ConfigError(bad)
    values = {}
    for key, v in raw.items():
        convert, what = _KEYS[key][1]
        try:
            values[key] = convert(v)
        except ValueError:
            raise ConfigError([key], f"{key} must be {what}, got {v!r}") from None
    return values


@dataclass
class ExperimentConfig:
    """A resolved config: `raw` holds every key's string, `values` its parsed value."""

    raw: dict[str, str]
    values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = parse_values(self.raw)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls({k: default for k, (default, _) in _KEYS.items()} | parse_config_text(text))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_text(f.read())

    def override(self, key: str, value) -> "ExperimentConfig":
        return ExperimentConfig(self.raw | {key: str(value)})

    # -- resolved views -----------------------------------------------------

    @property
    def method(self) -> str:
        return self.values["method"]

    @property
    def seeds(self) -> list[int]:
        return self.values["seeds"]

    @property
    def out_dir(self) -> str:
        return self.values["out"]

    def problem(self) -> ProblemSpec:
        name = self.values["problem.name"]
        if name == "cahn_hilliard":
            return get_problem(name, epsilon=self.values["problem.epsilon"])
        if name in ("heat_nd", "bilaplacian_ritz"):
            return get_problem(name, d=self.values["problem.dimension"])
        return get_problem(name)

    def network(self, spec: ProblemSpec) -> NetworkConfig:
        v = self.values
        return default_network_config(spec, self.method, hidden_layers=v["network.hidden_layers"],
                                      width=v["network.width"], activation=v["network.activation"])

    def sampler(self) -> SamplerConfig:
        v = self.values
        return SamplerConfig(interior=v["sampler.interior"], initial=v["sampler.initial"],
                             boundary=v["sampler.boundary"], seed=v["sampler.seed"])

    def train(self) -> TrainConfig:
        v = self.values
        return TrainConfig(
            learning_rate=v["train.learning_rate"], stages=v["train.stages"],
            steps_per_stage=v["train.steps_per_stage"], beta1=v["train.beta1"],
            beta2=v["train.beta2"], epsilon=v["train.epsilon"],
            schedule=v["train.schedule"] or None, log_every=v["train.log_every"])

    def ritz(self) -> RitzConfig:
        v = self.values
        return RitzConfig(penalty=v["ritz.penalty"], interior=v["sampler.interior"],
                          boundary=v["sampler.boundary"], seed=v["sampler.seed"])

    def resolved_text(self) -> str:
        return "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw)) + "\n"

    def content_hash(self) -> str:
        payload = "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw)
                            if k not in ("seeds", "out"))
        return hashlib.sha256(payload.encode()).hexdigest()[:8]
