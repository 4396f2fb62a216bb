"""Measurement-noise generators for the simulated benchmark regimes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

# sample_inverse_gamma is unused here: it stays because the benchmark's tracer
# (perfbench/tracing.py) wraps it here, and its test_tracer_restores_wrapped_names
# fails without it. The t regime draws its scales in sample_t_mixture, so that
# span reads 0 in a traced run.
from .specfun import (
    RngStream,
    mvn_factor,
    sample_inverse_gamma,  # noqa: F401
    sample_mvn,
    sample_t_mixture,
)
from .nvmf import InverseGammaMixing
from .statespace import checked_covariance, matvec


@dataclass
class GaussianNoise:
    r_bar: float
    Rbar: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.r_bar < math.inf:
            raise ValueError("r_bar must be positive and finite")
        self.Rbar = checked_covariance("Rbar", self.Rbar)


@dataclass
class GaussianUniformNoise:
    """Gaussian with probability 1 - p_out, otherwise per-coordinate uniform
    on [-6 sqrt(r_out), 6 sqrt(r_out)]."""

    r_bar: float
    Rbar: np.ndarray
    p_out: float
    r_out: float

    def __post_init__(self):
        if not (0.0 < self.r_bar < math.inf and 0.0 < self.r_out < math.inf):
            raise ValueError("scale parameters must be positive and finite")
        if not 0.0 <= self.p_out <= 1.0:
            raise ValueError("p_out must lie in [0, 1]")
        self.Rbar = checked_covariance("Rbar", self.Rbar)


@dataclass
class MultivariateTNoise:
    """Heavy-tailed noise sampled by composition: draw the variance scale
    from an inverse gamma, then the noise from the scaled Gaussian. This is
    the same mixture definition the robust filter assumes."""

    alpha: float
    beta: float
    Rbar: np.ndarray

    def __post_init__(self):
        InverseGammaMixing(self.alpha, self.beta)   # validates alpha and beta
        self.Rbar = checked_covariance("Rbar", self.Rbar)


NoiseRegime = Union[GaussianNoise, GaussianUniformNoise, MultivariateTNoise]


def _gaussian_uniform(regime: GaussianUniformNoise, rng: RngStream, n: int) -> np.ndarray:
    m = regime.Rbar.shape[0]
    half = 6.0 * np.sqrt(regime.r_out)
    out = np.empty((n, m))
    gaussian = np.zeros(n, dtype=bool)
    for k in range(n):
        if rng.uniform() < regime.p_out:
            out[k] = rng.uniform(-half, half, size=m)
        else:
            out[k] = rng.standard_normal(m)
            gaussian[k] = True
    out[gaussian] = matvec(mvn_factor(regime.r_bar * regime.Rbar), out[gaussian])
    return out


def sample_noise(regime: NoiseRegime, rng: RngStream, size=None) -> np.ndarray:
    """Measurement-noise draws from the selected regime: one draw (m,) for
    size=None, else a block (size, m).

    Row k of a block is bit for bit the k-th of size successive single
    calls, and the block leaves rng where those calls would, since it takes
    the same draws from the stream in the same order. Per draw that is:
    Gaussian, m normals; Gaussian-uniform, the branch uniform, then m
    uniforms or m normals; t, the inverse-gamma scale's gamma draws (a
    normal and a uniform per try, then a uniform when alpha < 1), then m
    normals. A block factors each covariance once (the t regime's in one
    stacked call), so bulk draws cost far less per row than single calls.
    """
    n = 1 if size is None else int(size)
    if isinstance(regime, GaussianNoise):
        m = regime.Rbar.shape[0]
        draws = sample_mvn(np.zeros(m), regime.r_bar * regime.Rbar, rng, size=n)
    elif isinstance(regime, GaussianUniformNoise):
        draws = _gaussian_uniform(regime, rng, n)
    elif isinstance(regime, MultivariateTNoise):
        draws = sample_t_mixture(regime.alpha, regime.beta, regime.Rbar, rng, n)
    else:
        raise TypeError(f"unknown noise regime {type(regime).__name__}")
    return draws[0] if size is None else draws
