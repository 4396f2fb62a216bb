"""Measurement-noise generators for the simulated benchmark regimes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .specfun import RngStream, sample_inverse_gamma, sample_mvn


@dataclass
class GaussianNoise:
    r_bar: float
    Rbar: np.ndarray

    def __post_init__(self):
        if not self.r_bar > 0.0:
            raise ValueError("r_bar must be positive")
        self.Rbar = np.asarray(self.Rbar, dtype=float)


@dataclass
class GaussianUniformNoise:
    """Gaussian with probability 1 - p_out, otherwise per-coordinate uniform
    on [-6 sqrt(r_out), 6 sqrt(r_out)]."""

    r_bar: float
    Rbar: np.ndarray
    p_out: float
    r_out: float

    def __post_init__(self):
        if not (self.r_bar > 0.0 and self.r_out > 0.0):
            raise ValueError("scale parameters must be positive")
        if not 0.0 <= self.p_out <= 1.0:
            raise ValueError("p_out must lie in [0, 1]")
        self.Rbar = np.asarray(self.Rbar, dtype=float)


@dataclass
class MultivariateTNoise:
    """Heavy-tailed noise sampled by composition: draw the variance scale
    from an inverse gamma, then the noise from the scaled Gaussian. This is
    the same mixture definition the robust filter assumes."""

    alpha: float
    beta: float
    Rbar: np.ndarray

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError("alpha and beta must be positive")
        self.Rbar = np.asarray(self.Rbar, dtype=float)


NoiseRegime = Union[GaussianNoise, GaussianUniformNoise, MultivariateTNoise]


def sample_noise(regime: NoiseRegime, rng: RngStream) -> np.ndarray:
    """One measurement-noise draw from the selected regime."""
    if isinstance(regime, GaussianNoise):
        m = regime.Rbar.shape[0]
        return sample_mvn(np.zeros(m), regime.r_bar * regime.Rbar, rng)
    if isinstance(regime, GaussianUniformNoise):
        m = regime.Rbar.shape[0]
        if rng.uniform() < regime.p_out:
            half = 6.0 * np.sqrt(regime.r_out)
            return rng.uniform(-half, half, size=m)
        return sample_mvn(np.zeros(m), regime.r_bar * regime.Rbar, rng)
    if isinstance(regime, MultivariateTNoise):
        m = regime.Rbar.shape[0]
        r = sample_inverse_gamma(regime.alpha, regime.beta, rng)
        return sample_mvn(np.zeros(m), r * regime.Rbar, rng)
    raise TypeError(f"unknown noise regime {type(regime).__name__}")
