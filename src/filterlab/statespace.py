"""Linear Gaussian state-space model, prediction, and two-point initialization.

Also the conventions every filter kernel shares. A kernel advances a stack
of N independent beliefs at once: means (N, n), covariances (N, n, n),
measurements (N, m). Every contraction is a stacked matmul, np.matvec or
np.vecdot, or one of the LAPACK gufuncs behind numpy.linalg called through
rowwise; all of them work slice by slice, so a row's values do not depend
on N or on the other rows. A kernel never raises or warns for a bad row; it
returns a per-row status, 0 for success or a Failure code, and the row's
values are then meaningless; a row on which LAPACK fails is numpy's NaN
fill, not retried.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# The gufuncs numpy.linalg's cholesky, inv, eigh, eigvalsh and solve call
# (cholesky_lo, inv, eigh_lo, eigvalsh_lo, solve); rowwise calls them
# without numpy.linalg's per-call argument checks.
from numpy.linalg import _umath_linalg as lapack

from .errors import NumericalError


class Failure(enum.IntEnum):
    """Why a kernel row failed."""

    NOT_POSITIVE_DEFINITE = 1
    ILL_CONDITIONED = 2
    EM_NOT_MONOTONE = 3
    NON_FINITE = 5


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def mark_failed(status: np.ndarray, bad: np.ndarray, cause: Failure) -> None:
    """Record cause for the rows in bad that have not failed yet."""
    if np.count_nonzero(bad):
        status[(status == 0) & bad] = cause


def mark_non_finite(status: np.ndarray, *stacks: np.ndarray) -> None:
    """Record NON_FINITE for the rows, not failed yet, that hold a non-finite
    entry in any of stacks. The per-row masks are built only when some
    entry is non-finite, which a kernel's good rows never have."""
    if all(np.count_nonzero(np.isfinite(a)) == a.size for a in stacks):
        return
    finite = np.logical_and.reduce(
        [np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1) for a in stacks])
    mark_failed(status, ~finite, Failure.NON_FINITE)


@lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def cholesky_pd(a, *others) -> np.ndarray:
    """Lower Cholesky factor of one symmetric positive-definite matrix.

    Raises ValueError when a, or any array in others, has a non-finite
    entry (numpy.linalg.cholesky would return NaNs rather than fail), and
    numpy.linalg.LinAlgError when a is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    if not all(np.isfinite(b).all() for b in (a, *others)):
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.cholesky(a)


def whitener(Rbar, *others) -> np.ndarray:
    """C^-1 for the lower Cholesky factor C of Rbar (errors as cholesky_pd),
    so that r' Rbar^-1 s = (C^-1 r)' (C^-1 s)."""
    return np.linalg.inv(cholesky_pd(Rbar, *others))


def solve_pd(a, b) -> np.ndarray:
    """x with a x = b, for one symmetric positive-definite matrix a and a
    vector or matrix b, through the Cholesky factor of a (see cholesky_pd
    for the errors it raises)."""
    b = np.asarray(b, dtype=float)
    chol = cholesky_pd(a, b)
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


# numpy.linalg's error contract: a gufunc fills the output of each slice
# on which LAPACK fails with NaN, then raises the invalid flag.
@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def rowwise(status: np.ndarray, cause: Failure, gufunc, a: np.ndarray, *args):
    """gufunc(a, *args) for a lapack gufunc over a float64 stack of matrices
    a, numpy.linalg's result bit for bit. After a failure the stack is
    computed once more with the flag ignored, and each row whose (first)
    output is all NaN gets cause in status (see mark_failed). So does a row
    whose non-finite input LAPACK spreads over its whole output, so the
    cause such a row gets can depend on the other rows of its stack.
    """
    try:
        return gufunc(a, *args)
    except FloatingPointError:
        with np.errstate(all="ignore"):
            out = gufunc(a, *args)
    first = out[0] if isinstance(out, tuple) else out
    mark_failed(status, np.isnan(first.reshape(len(first), -1)).all(axis=1), cause)
    return out


# A matrix whose smallest eigenvalue is below -_PSD_RTOL max(1, |largest|)
# is indefinite; above it, a negative eigenvalue is rounding.
_PSD_RTOL = 1e-10


def indefinite(w: np.ndarray) -> bool:
    """Whether a symmetric matrix with ascending eigenvalues w is indefinite
    beyond rounding."""
    return bool(w[0] < -_PSD_RTOL * max(1.0, abs(w[-1])))


def checked_covariance(name: str, a, definite: bool = False) -> np.ndarray:
    """a as a float array, or ValueError unless it is a square, non-empty,
    finite matrix, symmetric within 1e-10 max|a| (so c a passes if a does),
    and positive semidefinite within rounding (see indefinite), or positive
    definite when definite is set."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"{name} is not a square matrix: shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} is not finite")
    if np.abs(a - a.T).max() > 1e-10 * max(np.abs(a).max(), 1e-300):
        raise ValueError(f"{name} is not symmetric")
    w = np.linalg.eigvalsh(symmetrize(a))
    if definite and not w[0] > 0.0:
        raise ValueError(f"{name} is not positive definite")
    if indefinite(w):
        raise ValueError(f"{name} is not positive semidefinite")
    return a


@dataclass
class GaussianBelief:
    """State estimate: mean vector and positive-definite error covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def validate(self) -> None:
        """ValueError unless finite with a positive definite cov (see checked_covariance)."""
        if not (np.isfinite(self.mean).all() and np.isfinite(self.cov).all()):
            raise ValueError("belief is not finite")
        checked_covariance("covariance", self.cov, definite=True)


@dataclass
class LinearModel:
    """Transition matrix F, process noise Q, measurement matrix H, and the
    measurement-noise shape matrix Rbar (normalized to unit determinant at
    construction, so a scalar variance factor carries all of the scale)."""

    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    Rbar: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        self.H = np.asarray(self.H, dtype=float)
        self.Rbar = np.asarray(self.Rbar, dtype=float)
        if self.F.ndim != 2 or self.H.ndim != 2:
            raise ValueError("F and H must be matrices")
        n, m = self.F.shape[1], self.H.shape[0]
        for name, shape in (("F", (n, n)), ("Q", (n, n)), ("H", (m, n)), ("Rbar", (m, m))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must be {shape[0]}x{shape[1]}, "
                                 f"got shape {getattr(self, name).shape}")
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        checked_covariance("Q", self.Q)
        checked_covariance("Rbar", self.Rbar, definite=True)
        # Scaled by a power of two (exact) first, so det cannot overflow or underflow.
        unit = np.ldexp(self.Rbar, 1 - np.frexp(np.abs(self.Rbar).max())[1])
        self.Rbar = unit / np.linalg.det(unit) ** (1.0 / m)

    @cached_property
    def whitened(self):
        """The fixed factors of Rbar that every NVMF update applies: C^-1
        for C = chol(Rbar) and the whitened measurement matrix C^-1 H.
        Computed on first use and kept, so a model must not be changed
        after construction."""
        c_inv = whitener(self.Rbar)
        return c_inv, c_inv @ self.H

    @property
    def meas_dim(self) -> int:
        return self.H.shape[0]


def cv_transition(T: float) -> np.ndarray:
    """Constant-velocity transition matrix for state [x, y, xdot, ydot]."""
    return np.kron(np.array([[1.0, T], [0.0, 1.0]]), np.eye(2))


def cv_process_noise(T: float, q: float) -> np.ndarray:
    """White-acceleration process noise covariance for the same state order."""
    block = np.array([[T**3 / 3.0, T**2 / 2.0], [T**2 / 2.0, T]])
    return q * np.kron(block, np.eye(2))


def predict_batch(mean: np.ndarray, cov: np.ndarray, model: LinearModel):
    """One prediction step, mean F x and covariance F P F' + Q, for a stack
    of beliefs or for a single one (no leading axis)."""
    mean = np.matvec(model.F, mean)
    cov = symmetrize(model.F @ cov @ model.F.T + model.Q)
    return mean, cov


def predict(belief: GaussianBelief, model: LinearModel) -> GaussianBelief:
    """One prediction step: mean F x, covariance F P F' + Q."""
    return GaussianBelief(*predict_batch(belief.mean, belief.cov, model))


def update_one(kernel, prior: GaussianBelief, z, *args):
    """Apply a batched update kernel to one belief and one measurement.

    Returns the posterior and the kernel's diagnostics (a batch of one).
    Raises NumericalError for a non-finite measurement and for a failed row.
    """
    z = np.asarray(z, dtype=float)[None]
    if not np.isfinite(z).all():
        raise NumericalError("measurement is not finite")
    mean, cov, status, diagnostics = kernel(np.asarray(prior.mean, dtype=float)[None],
                                            np.asarray(prior.cov, dtype=float)[None], z, *args)
    if status[0]:
        cause = Failure(status[0]).name.lower().replace("_", " ")
        raise NumericalError(f"{kernel.__name__} failed: {cause}")
    return GaussianBelief(mean[0], cov[0]), diagnostics


def two_point_init(z0, z_minus1, T: float, R) -> GaussianBelief:
    """Initial state from two consecutive position measurements.

    Velocity is the finite difference (z0 - z_minus1) / T; with equal
    per-update measurement covariance R the initial covariance is the
    block matrix [[R, R/T], [R/T, 2R/T^2]], which makes the initial
    estimate consistent by construction.
    """
    if not T > 0.0:
        raise ValueError(f"two_point_init requires T > 0, got {T}")
    z0 = np.asarray(z0, dtype=float)
    z_minus1 = np.asarray(z_minus1, dtype=float)
    R = np.asarray(R, dtype=float)
    mean = np.concatenate([z0, (z0 - z_minus1) / T])
    blocks = np.array([[1.0, 1.0 / T], [1.0 / T, 2.0 / T**2]])
    cov = np.kron(blocks, R)
    return GaussianBelief(mean, symmetrize(cov))
