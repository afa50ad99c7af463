"""Hyperparameters for the dual contrastive objective and its optimizer."""

import math
import numbers
from dataclasses import dataclass, fields

from .errors import ConfigError


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

    d: int
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
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                    abs(value) < math.inf or (name == "tol" and value == math.inf)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if int(self.d) != self.d or self.d < 1:
            raise ConfigError(f"d must be a positive integer, got {self.d}")
        self.d = int(self.d)
        for name in ("lam", "alpha", "beta", "tau1", "tau2", "gamma",
                     "eps_adam", "norm_eps", "tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        for name in ("b1", "b2"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {value}")
        if int(self.max_iters) != self.max_iters or self.max_iters < 0:
            raise ConfigError(f"max_iters must be a nonnegative integer, got {self.max_iters}")
        self.max_iters = int(self.max_iters)

    def validate_dims(self, view_dims):
        if self.d > min(view_dims):
            raise ConfigError(
                f"embedding dimension d={self.d} exceeds smallest view dimension "
                f"{min(view_dims)}")

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}
