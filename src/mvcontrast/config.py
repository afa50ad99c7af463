"""Run configuration: a single sectioned JSON file with strict validation.

Unknown keys are errors, never silently ignored; every run echoes the fully
resolved configuration (defaults included) to `run.json` so it can be
reproduced exactly.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass, fields
from typing import Optional

from . import data
from .errors import ConfigError
from .params import Hyperparams

# exactly one of views and synth is given
_DATASET_DEFAULTS = {
    "views": None,
    "labels": None,
    "synth": None,
    "standardize": False,
}

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


def _require(ok, name, what, value):
    """`value`, if `ok`; else a ConfigError saying what `name` must be."""
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _merge(section_name, defaults, given):
    _require(isinstance(given, dict), f"section '{section_name}'", "a JSON object",
             given)
    merged = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' in section '{section_name}'")
        merged[key] = value
    return merged


def _is_number(value):
    # JSON true/false are not numbers, though Python's bool is an int
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) < math.inf)


def _integer(name, value, low):
    """`value` as an int, if it is an integral number >= low."""
    _require(_is_number(value) and value == int(value) and value >= low,
             name, f"an integer >= {low}", value)
    return int(value)


def _integers(name, values, low):
    """A non-empty list of integers >= low, as ints."""
    _require(isinstance(values, list) and values, name, "a non-empty list", values)
    return [_integer(name, v, low) for v in values]


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

    def load_dataset(self):
        if self.synth is not None:
            ds = data.synth_blobs(**self.synth)
        else:
            ds = data.load_views(self.view_paths, self.label_path)
        if self.standardize:
            ds = data.standardize(ds)
        return ds

    def write_echo(self, out_dir):
        """Write the resolved configuration, defaults included, to run.json."""
        hyper = self.hyper.as_dict()
        hyper["lambda"] = hyper.pop("lam")
        resolved = {
            "dataset": {"views": self.view_paths, "labels": self.label_path,
                        "synth": self.synth, "standardize": self.standardize},
            "hyper": hyper,
            "experiment": {"M": self.M_values, "repeats": self.repeats,
                           "base_seed": self.base_seed, "d_sweep": self.d_sweep},
            "output": {"dir": self.out_dir, "formats": self.formats},
        }
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(resolved, fh, indent=2, sort_keys=True)
        return path


def _synth(given):
    synth = _merge("dataset.synth", _SYNTH_DEFAULTS, given)
    for key, low in (("V", 1), ("classes", 1), ("per_class", 1), ("seed", 0)):
        synth[key] = _integer(f"dataset.synth.{key}", synth[key], low)
    synth["dims"] = _integers("dataset.synth.dims", synth["dims"], 1)
    if len(synth["dims"]) != synth["V"]:
        raise ConfigError("dataset.synth: dims length must equal V")
    for key in ("noise_sigma", "center_scale"):
        _require(_is_number(synth[key]) and synth[key] >= 0,
                 f"dataset.synth.{key}", "a finite number >= 0", synth[key])
    return synth


def build_config(raw):
    """Validate a parsed JSON object and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known_sections = {"dataset", "hyper", "experiment", "output"}
    for key in raw:
        if key not in known_sections:
            raise ConfigError(f"unknown section '{key}'")

    dataset = _merge("dataset", _DATASET_DEFAULTS, raw.get("dataset", {}))
    views, label_path = dataset["views"], dataset["labels"]
    if (views is None) == (dataset["synth"] is None):
        raise ConfigError(
            "dataset section must contain exactly one of 'views' or 'synth'")
    _require(label_path is None or isinstance(label_path, str), "dataset.labels",
             "a file path", label_path)
    _require(isinstance(dataset["standardize"], bool), "dataset.standardize",
             "true or false", dataset["standardize"])
    synth = view_paths = None
    if views is None:
        if label_path is not None:
            raise ConfigError("dataset.labels cannot be given with dataset.synth")
        synth = _synth(dataset["synth"])
    else:
        _require(isinstance(views, list) and views, "dataset.views",
                 "a non-empty list of file paths", views)
        view_paths = [_require(isinstance(p, str), "dataset.views", "file paths", p)
                      for p in views]

    hyper_kwargs = _merge("hyper", _HYPER_DEFAULTS, raw.get("hyper", {}))
    hyper_kwargs["lam"] = hyper_kwargs.pop("lambda")

    experiment = _merge("experiment", _EXPERIMENT_DEFAULTS, raw.get("experiment", {}))
    M_values = experiment["M"]
    if not isinstance(M_values, list):
        M_values = [M_values]  # a single M
    d_sweep = experiment["d_sweep"]
    if d_sweep not in (None, []):  # an empty sweep evaluates hyper.d alone
        d_sweep = _integers("experiment.d_sweep", d_sweep, 1)

    output = _merge("output", _OUTPUT_DEFAULTS, raw.get("output", {}))
    known, formats = _OUTPUT_DEFAULTS["formats"], output["formats"]
    _require(isinstance(formats, list) and all(f in known for f in formats),
             "output.formats", f"a list drawn from {known}", formats)

    return RunConfig(
        view_paths=view_paths,
        label_path=label_path,
        synth=synth,
        standardize=dataset["standardize"],
        hyper=Hyperparams(**hyper_kwargs),
        M_values=_integers("experiment.M", M_values, 1),
        repeats=_integer("experiment.repeats", experiment["repeats"], 1),
        base_seed=_integer("experiment.base_seed", experiment["base_seed"], 0),
        d_sweep=d_sweep,
        out_dir=_require(isinstance(output["dir"], str), "output.dir",
                         "a directory path", output["dir"]),
        formats=list(formats),
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
