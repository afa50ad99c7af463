"""Run configuration: a single sectioned JSON file with strict validation.

Unknown and repeated keys are errors, never silently ignored.  Each section's
owner states its defaults and checks (`_SECTIONS`); `RunConfig` holds the
validated sections, and every run echoes them to `run.json` so it can be
reproduced exactly.
"""

import os
from dataclasses import dataclass

from . import data, evaluation
from .errors import ConfigError
from .params import Hyperparams, _defaults, _merge

# each section's defaults and checker, in the order they are checked
_SECTIONS = {
    "dataset": (_defaults(data.load_dataset, data._dataset_args), data._dataset_args),
    "hyper": (Hyperparams().as_section(), Hyperparams.from_section),
    "experiment": (_defaults(evaluation.run_protocol, evaluation._protocol_args),
                   evaluation._protocol_args),
    "output": (_defaults(evaluation._output_args, evaluation._output_args),
               evaluation._output_args),
}


@dataclass
class RunConfig:
    """The validated sections; `hyper` is a Hyperparams, the others are
    dicts keyed as in the config file."""

    dataset: dict
    hyper: Hyperparams
    experiment: dict
    output: dict

    def write_echo(self, directory):
        """Write the resolved configuration, defaults included, to run.json."""
        resolved = {"dataset": self.dataset, "hyper": self.hyper.as_section(),
                    "experiment": self.experiment, "output": self.output}
        return data.write_json(os.path.join(directory, "run.json"), resolved)


def build_config(raw):
    """Validate a parsed JSON object and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown section '{key}'")
    return RunConfig(**{name: check(**_merge(name, defaults, raw.get(name, {})))
                        for name, (defaults, check) in _SECTIONS.items()})


def parse_config(path):
    """Read and validate a JSON config file."""
    return build_config(data.read_json(path, "config", ConfigError))
