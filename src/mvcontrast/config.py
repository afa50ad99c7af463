"""Run configuration: a single sectioned JSON file with strict validation.

Unknown and repeated keys are errors, never silently ignored.  `RunConfig` holds the
validated sections, defaults filled in and each value normalized under its
config key; every run echoes those sections to `run.json` so it can be
reproduced exactly.
"""

import inspect
import os
from dataclasses import dataclass, fields

from . import data, evaluation
from .errors import ConfigError
from .params import Hyperparams, _require

# exactly one of views and synth is given
_DATASET_DEFAULTS = {
    "views": None,
    "labels": None,
    "synth": None,
    "standardize": False,
}

# synth_blobs' own defaults; data._synth_args checks the section
_SYNTH_DEFAULTS = {name: p.default for name, p in
                   inspect.signature(data.synth_blobs).parameters.items()}

# Hyperparams' own defaults, spelled `lambda` for `lam`; d, which
# Hyperparams requires, defaults to 2 in a config
_HYPER_DEFAULTS = {("lambda" if f.name == "lam" else f.name):
                   (2 if f.name == "d" else f.default)
                   for f in fields(Hyperparams)}

# run_protocol's own defaults; evaluation._protocol_args checks the section
_EXPERIMENT_DEFAULTS = {
    name: inspect.signature(evaluation.run_protocol).parameters[name].default
    for name in inspect.signature(evaluation._protocol_args).parameters}

_OUTPUT_DEFAULTS = {
    "dir": ".",
    "formats": ["csv", "txt"],  # every format there is
}


def _merge(section_name, defaults, given):
    _require(isinstance(given, dict), f"section '{section_name}'", "a JSON object",
             given)
    merged = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' in section '{section_name}'")
        merged[key] = value
    return merged


@dataclass
class RunConfig:
    """The validated sections; `hyper` is a Hyperparams, the others are
    dicts keyed as in the config file."""

    dataset: dict
    hyper: Hyperparams
    experiment: dict
    output: dict

    def load_dataset(self):
        dataset = self.dataset
        if dataset["synth"] is not None:
            ds = data.synth_blobs(**dataset["synth"])
        else:
            ds = data.load_views(dataset["views"], dataset["labels"])
        if dataset["standardize"]:
            ds = data.standardize(ds)
        return ds

    def write_echo(self, directory):
        """Write the resolved configuration, defaults included, to run.json."""
        hyper = self.hyper.as_dict()
        hyper["lambda"] = hyper.pop("lam")
        resolved = {"dataset": self.dataset, "hyper": hyper,
                    "experiment": self.experiment, "output": self.output}
        return data.write_json(os.path.join(directory, "run.json"), resolved)


def build_config(raw):
    """Validate a parsed JSON object and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known_sections = {"dataset", "hyper", "experiment", "output"}
    for key in raw:
        if key not in known_sections:
            raise ConfigError(f"unknown section '{key}'")

    dataset = _merge("dataset", _DATASET_DEFAULTS, raw.get("dataset", {}))
    views, labels = dataset["views"], dataset["labels"]
    if (views is None) == (dataset["synth"] is None):
        raise ConfigError(
            "dataset section must contain exactly one of 'views' or 'synth'")
    _require(labels is None or isinstance(labels, str), "dataset.labels",
             "a file path", labels)
    _require(isinstance(dataset["standardize"], bool), "dataset.standardize",
             "true or false", dataset["standardize"])
    if views is None:
        if labels is not None:
            raise ConfigError("dataset.labels cannot be given with dataset.synth")
        dataset["synth"] = data._synth_args(
            **_merge("dataset.synth", _SYNTH_DEFAULTS, dataset["synth"]))
    else:
        # one view has no other view to contrast with, as synth.V = 1
        _require(isinstance(views, list) and len(views) >= 2, "dataset.views",
                 "a list of at least 2 file paths", views)
        dataset["views"] = [_require(isinstance(p, str), "dataset.views",
                                     "file paths", p) for p in views]

    hyper = _merge("hyper", _HYPER_DEFAULTS, raw.get("hyper", {}))
    hyper["lam"] = hyper.pop("lambda")

    exp = evaluation._protocol_args(
        **_merge("experiment", _EXPERIMENT_DEFAULTS, raw.get("experiment", {})))

    output = _merge("output", _OUTPUT_DEFAULTS, raw.get("output", {}))
    _require(isinstance(output["dir"], str), "output.dir", "a directory path",
             output["dir"])
    known, formats = _OUTPUT_DEFAULTS["formats"], output["formats"]
    _require(isinstance(formats, list) and all(f in known for f in formats),
             "output.formats", f"a list drawn from {known}", formats)
    output["formats"] = list(formats)

    return RunConfig(dataset=dataset, hyper=Hyperparams(**hyper),
                     experiment=exp, output=output)


def parse_config(path):
    """Read and validate a JSON config file."""
    return build_config(data.read_json(path, "config", ConfigError))
