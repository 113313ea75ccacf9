"""Small shared utilities: validation helpers, deterministic RNG management.

The whole library is deterministic given a seed.  Every stochastic component
(channel-importance synthesis, measurement-noise injection, the evolutionary
search) accepts either an integer seed or a :class:`numpy.random.Generator`
and routes it through :func:`as_rng` so composition stays reproducible.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "as_rng",
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_probability_vector",
    "pairwise",
    "geometric_mean",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a non-deterministic generator; an integer yields a
    deterministic one; an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is finite and >= 0 and return it."""
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative finite number, got {value!r}")
    return float(value)


def check_fraction(value: float, name: str, *, allow_zero: bool = True) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` (or ``(0, 1]``)."""
    lower_ok = value >= 0 if allow_zero else value > 0
    if not math.isfinite(value) or not lower_ok or value > 1:
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ConfigurationError(f"{name} must lie in {bound}, got {value!r}")
    return float(value)


def check_probability_vector(values: Sequence[float], name: str, *, atol: float = 1e-6) -> np.ndarray:
    """Validate that ``values`` are non-negative and sum to one."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError(f"{name} must be a non-empty 1-D sequence")
    if np.any(arr < -atol):
        raise ConfigurationError(f"{name} must be non-negative, got {values!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise ConfigurationError(f"{name} must sum to 1.0 (got {total:.6f})")
    return arr


def pairwise(items: Iterable):
    """Yield consecutive pairs ``(items[k], items[k+1])``."""
    iterator = iter(items)
    try:
        previous = next(iterator)
    except StopIteration:
        return
    for current in iterator:
        yield previous, current
        previous = current


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("geometric_mean requires at least one value")
    if np.any(arr <= 0):
        raise ConfigurationError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))
