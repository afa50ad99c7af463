"""Hyperparameters for the dual contrastive objective and its optimizer."""

import inspect
import math
import numbers
from dataclasses import dataclass, fields

from .errors import ConfigError


def _require(ok, name, what, value):
    """`value`, if `ok`; else a ConfigError saying what `name` must be."""
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _merge(section_name, defaults, given):
    """`defaults` updated from the JSON object `given`, which adds no key."""
    _require(isinstance(given, dict), f"section '{section_name}'", "a JSON object",
             given)
    merged = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' in section '{section_name}'")
        merged[key] = value
    return merged


def _defaults(owner, checker):
    """`owner`'s defaults for the parameters of `checker`: a config section's."""
    given = inspect.signature(owner).parameters
    return {name: given[name].default for name in inspect.signature(checker).parameters}


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
    """A non-empty list or tuple of integers >= low, as a list of ints."""
    _require(isinstance(values, (list, tuple)) and values, name, "a non-empty list",
             values)
    return [_integer(name, v, low) for v in values]


@dataclass
class Hyperparams:
    """All scalars the objective and the Adam optimizer need.

    Attributes
    ----------
    d : int
        Shared embedding dimension; must not exceed any view dimension.
    lam : float
        Weight balancing the sample-level loss against the structural loss.
    alpha, beta : float
        Weights of the self-reconstruction residual and the ridge term.
    tau1, tau2 : float
        Temperatures of the sample-level and structural similarities.
    gamma, b1, b2, eps_adam : float
        Adam learning rate, moment decay rates, and division guard.
    norm_eps : float
        Guard added to similarity denominators (near-zero coefficient norms).
    tol : float
        Convergence threshold on the change of the total loss; `inf` stops
        after the first iteration.
    max_iters : int
        Cap on outer iterations.
    """

    d: int = 2
    lam: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    tau1: float = 1.0
    tau2: float = 1.0
    gamma: float = 0.001
    b1: float = 0.9
    b2: float = 0.999
    eps_adam: float = 1e-8
    norm_eps: float = 1e-12
    tol: float = 1e-3
    max_iters: int = 500

    def __post_init__(self):
        for name, value in self.as_dict().items():
            _require(_is_number(value) or (name == "tol" and value == math.inf),
                     name, "a finite number", value)
        self.d = _integer("d", self.d, 1)
        for name in ("lam", "alpha", "beta", "tau1", "tau2", "gamma",
                     "eps_adam", "norm_eps", "tol"):
            _require(getattr(self, name) > 0, name, "> 0", getattr(self, name))
        for name in ("b1", "b2"):
            _require(0 < getattr(self, name) < 1, name, "in (0, 1)",
                     getattr(self, name))
        self.max_iters = _integer("max_iters", self.max_iters, 0)

    def validate_dims(self, view_dims):
        if self.d > min(view_dims):
            raise ConfigError(
                f"embedding dimension d={self.d} exceeds smallest view dimension "
                f"{min(view_dims)}")

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}
