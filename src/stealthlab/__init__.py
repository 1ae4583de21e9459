"""Stealthy evasion of a UAV telemetry intrusion detector, and catching it.

The package trains a dense-net intrusion detector on 30-feature telemetry,
crafts bounded adversarial perturbations with a conditional GAN plus an
iterative refinement loop, tunes the attack so it is distributionally close
to plain sensor noise, and then evaluates three detectors (importance-weighted
CVAE likelihood, latent Mahalanobis distance, likelihood regret) at telling
the crafted traffic apart from the genuinely noisy kind.
"""

from .errors import (ConfigError, DependencyError, NumericError, ParseError,
                     ShapeError)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DependencyError",
    "NumericError",
    "ParseError",
    "ShapeError",
    "__version__",
]
