"""Run configuration: a single sectioned JSON file with strict validation.

Unknown keys are errors, never silently ignored; every run echoes the fully
resolved configuration (defaults included) to `run.json` so it can be
reproduced exactly.
"""

import json
import os
from dataclasses import dataclass, field, fields
from typing import Optional

from . import data
from .errors import ConfigError
from .params import Hyperparams

_SYNTH_DEFAULTS = {
    "V": 2,
    "classes": 3,
    "per_class": 10,
    "dims": [8, 8],
    "noise_sigma": 0.5,
    "seed": 0,
    "center_scale": 3.0,
}

# Hyperparams' own defaults, spelled `lambda` for `lam`; d, which
# Hyperparams requires, defaults to 2 in a config
_HYPER_DEFAULTS = {("lambda" if f.name == "lam" else f.name):
                   (2 if f.name == "d" else f.default)
                   for f in fields(Hyperparams)}

_EXPERIMENT_DEFAULTS = {
    "M": [4],
    "repeats": 5,
    "base_seed": 0,
    "d_sweep": None,
}

_OUTPUT_DEFAULTS = {
    "dir": ".",
    "formats": ["csv", "txt"],  # every format there is
}


def _merge(section_name, defaults, given):
    merged = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' in section '{section_name}'")
        merged[key] = value
    return merged


@dataclass
class RunConfig:
    view_paths: Optional[list]
    label_path: Optional[str]
    synth: Optional[dict]
    standardize: bool
    hyper: Hyperparams
    M_values: list
    repeats: int
    base_seed: int
    d_sweep: Optional[list]
    out_dir: str
    formats: list
    resolved: dict = field(default_factory=dict)

    def load_dataset(self):
        if self.synth is not None:
            ds = data.synth_blobs(
                V=self.synth["V"], classes=self.synth["classes"],
                per_class=self.synth["per_class"], dims=self.synth["dims"],
                noise_sigma=self.synth["noise_sigma"], seed=self.synth["seed"],
                center_scale=self.synth["center_scale"])
        else:
            ds = data.load_views(self.view_paths, self.label_path)
        if self.standardize:
            ds = data.standardize(ds)
        return ds

    def write_echo(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.resolved, fh, indent=2, sort_keys=True)
        return path


def build_config(raw):
    """Validate a parsed JSON object and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known_sections = {"dataset", "hyper", "experiment", "output"}
    for key in raw:
        if key not in known_sections:
            raise ConfigError(f"unknown section '{key}'")

    dataset = raw.get("dataset", {})
    for key in dataset:
        if key not in {"views", "labels", "synth", "standardize"}:
            raise ConfigError(f"unknown key '{key}' in section 'dataset'")
    has_files = "views" in dataset
    has_synth = "synth" in dataset
    if has_files == has_synth:
        raise ConfigError(
            "dataset section must contain exactly one of 'views' or 'synth'")
    synth = None
    view_paths = None
    label_path = dataset.get("labels")
    if has_synth:
        if label_path is not None:
            raise ConfigError("dataset.labels cannot be given with dataset.synth")
        synth = _merge("dataset.synth", _SYNTH_DEFAULTS, dataset["synth"])
        if len(synth["dims"]) != synth["V"]:
            raise ConfigError("dataset.synth: dims length must equal V")
    else:
        view_paths = list(dataset["views"])
        if not view_paths:
            raise ConfigError("dataset.views must not be empty")

    hyper_raw = _merge("hyper", _HYPER_DEFAULTS, raw.get("hyper", {}))
    hyper_kwargs = dict(hyper_raw)
    hyper_kwargs["lam"] = hyper_kwargs.pop("lambda")
    hyper = Hyperparams(**hyper_kwargs)

    experiment = _merge("experiment", _EXPERIMENT_DEFAULTS, raw.get("experiment", {}))
    M_values = experiment["M"]
    if isinstance(M_values, int):
        M_values = [M_values]
    if not M_values or any(int(M) != M or M < 1 for M in M_values):
        raise ConfigError(f"experiment.M must be positive integers, got {M_values}")
    repeats = experiment["repeats"]
    if int(repeats) != repeats or repeats < 1:
        raise ConfigError(f"experiment.repeats must be >= 1, got {repeats}")

    output = _merge("output", _OUTPUT_DEFAULTS, raw.get("output", {}))
    known, formats = _OUTPUT_DEFAULTS["formats"], output["formats"]
    if not isinstance(formats, list) or any(f not in known for f in formats):
        raise ConfigError(
            f"output.formats must be a list drawn from {known}, got {formats!r}")

    resolved = {
        "dataset": {
            "views": view_paths,
            "labels": label_path,
            "synth": synth,
            "standardize": bool(dataset.get("standardize", False)),
        },
        "hyper": hyper_raw,
        "experiment": {
            "M": [int(M) for M in M_values],
            "repeats": int(repeats),
            "base_seed": int(experiment["base_seed"]),
            "d_sweep": experiment["d_sweep"],
        },
        "output": output,
    }
    return RunConfig(
        view_paths=view_paths,
        label_path=label_path,
        synth=synth,
        standardize=bool(dataset.get("standardize", False)),
        hyper=hyper,
        M_values=[int(M) for M in M_values],
        repeats=int(repeats),
        base_seed=int(experiment["base_seed"]),
        d_sweep=experiment["d_sweep"],
        out_dir=output["dir"],
        formats=list(output["formats"]),
        resolved=resolved,
    )


def parse_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return build_config(raw)
