"""Run configuration: JSON file plus flag overrides, strictly validated.

The resolved configuration is echoed into every run manifest; passed back
as ``--config``, that block parses to the run's ``RunConfig``. Flags that
are not config keys go unrecorded (ROADMAP.md item 6), so a run that set
one does not replay from its manifest: ``train --attention`` (the replay's
model lacks the head), eval's ``--calibrate``, ``--threshold``,
``--per-relation``, ``--auc``, histogram's ``--scorer``, ``--model``,
``--relations``, ``--range``. Unknown keys are rejected by name rather than
ignored; a typo that silently falls back to a default would invalidate a
whole experiment. Numbers must be finite. Each default has one home: the
synth and train sections take theirs from the library's config classes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path
from typing import Any

from .comparator import Activation, ComparatorConfig, SharingMode
from .data import _atomic_open
from .evaluation import Objective
from .synth import SynthConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _section(name: str, library: type, leave_out: set[str]) -> type:
    """A file section with the fields and defaults of a library config class."""
    kept = [f for f in fields(library) if f.name not in leave_out]
    return make_dataclass(
        name,
        [(f.name, f.type, field(default=f.default)) for f in kept],
        namespace={"__module__": __name__},
        frozen=True,
    )


# The seed comes from the top level.
SynthSection = _section("SynthSection", SynthConfig, {"seed"})
TrainSection = _section("TrainSection", TrainConfig, {"seed"})


@dataclass(frozen=True)
class ModelSection:
    hidden: int = ComparatorConfig.hidden
    activation: str = ComparatorConfig.activation.value
    dropout: float = ComparatorConfig.dropout_p
    sharing: str = ComparatorConfig.sharing.value


@dataclass(frozen=True)
class EvalSection:
    objective: str = Objective.MACRO.value
    bins: int = 50


@dataclass(frozen=True)
class RunConfig:
    seed: int = SynthConfig.seed
    synth: SynthSection = field(default_factory=SynthSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self) -> None:
        # every value is checked here, so a bad one stops a run before it writes anything
        try:
            self.synth_config()
            self.train_config()
            self.comparator_config(input_dim=2)
            Objective(self.eval.objective)
            if self.eval.bins < 1:
                raise ValueError(f"eval.bins must be at least 1, got {self.eval.bins}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def synth_config(self) -> SynthConfig:
        return SynthConfig(**dataclasses.asdict(self.synth), seed=self.seed)

    def comparator_config(self, input_dim: int) -> ComparatorConfig:
        m = self.model
        return ComparatorConfig(
            input_dim=input_dim,
            hidden=m.hidden,
            activation=Activation(m.activation),
            dropout_p=m.dropout,
            sharing=SharingMode(m.sharing),
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(**dataclasses.asdict(self.train), seed=self.seed)

    def to_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["synth"]["children_choices"] = list(self.synth.children_choices)
        return out


_SECTIONS = {"synth": SynthSection, "model": ModelSection, "train": TrainSection, "eval": EvalSection}


# annotation -> (accepted types, what the error says); a JSON bool is neither int nor float
_SCALARS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
}


def _coerce(value: Any, annotation: str, key: str) -> Any:
    if annotation in _SCALARS:
        types, what = _SCALARS[annotation]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(f"config key '{key}' must be {what}, got {value!r}")
        if annotation != "float":
            return value
        # json reads NaN, Infinity and 1e400 as floats, and a long integer may not fit one
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"config key '{key}' must be a finite number, got {value!r}")
        return number
    # tuple[int, ...]
    if isinstance(value, (list, tuple)) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        return tuple(value)
    raise ConfigError(f"config key '{key}' must be a list of integers, got {value!r}")


def _build_section(cls: type, data: dict[str, Any], prefix: str) -> Any:
    known = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        kwargs[key] = _coerce(value, known[key], f"{prefix}{key}")
    return cls(**kwargs)


def parse_config(
    path: str | Path | None = None, overrides: dict[str, Any] | None = None
) -> RunConfig:
    """Load a JSON run config and apply dotted-key flag overrides on top."""
    data: dict[str, Any] = {}
    if path is not None:
        raw = Path(path).read_text(encoding="utf-8")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if "." in key:
            section, sub = key.split(".", 1)
            data.setdefault(section, {})
            if not isinstance(data[section], dict):
                raise ConfigError(f"config key '{section}' must be an object")
            data[section][sub] = value
        else:
            data[key] = value

    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key == "seed":
            kwargs["seed"] = _coerce(value, "int", "seed")
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{key}' must be an object")
            kwargs[key] = _build_section(_SECTIONS[key], value, f"{key}.")
        else:
            raise ConfigError(f"unknown config key '{key}'")
    return RunConfig(**kwargs)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: RunConfig,
    artifacts: list[str | Path],
    name: str = "manifest.json",
) -> Path:
    """Record the resolved config, seed and artifact checksums for a run."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "seed": config.seed,
        "config": config.to_dict(),
        "artifacts": {Path(p).name: sha256_file(p) for p in artifacts},
    }
    path = out_dir / name
    with _atomic_open(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
