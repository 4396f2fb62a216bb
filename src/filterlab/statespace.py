"""Linear Gaussian state-space model, prediction, and two-point initialization.

Also the conventions every filter kernel shares. A kernel advances a stack
of N independent beliefs at once: means (N, n), covariances (N, n, n),
measurements (N, m). Every contraction is a stacked matmul or a stacked
numpy.linalg call, which work slice by slice, so a row's result does not
depend on N or on the other rows. A kernel never raises for a bad row; it
returns a per-row status, 0 for success or a Failure code, and the row's
values are then meaningless.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


class Failure(enum.IntEnum):
    """Why a kernel row failed."""

    NOT_POSITIVE_DEFINITE = 1
    ILL_CONDITIONED = 2
    EM_NOT_MONOTONE = 3
    CORRECTION_IDENTITY = 4
    NON_FINITE = 5


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for one vector x (n,) or for each row of a stack x (N, n)."""
    return (A @ x[..., None])[..., 0]


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a' b for one pair of vectors or for each pair of rows of two stacks."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def mark_failed(status: np.ndarray, bad: np.ndarray, cause: Failure) -> None:
    """Record cause for the rows in bad that have not failed yet."""
    if bad.any():
        status[(status == 0) & bad] = cause


def finite_rows(a: np.ndarray) -> np.ndarray:
    """Rows of a stack whose entries are all finite."""
    return np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)


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


def solve_pd(a, b) -> np.ndarray:
    """x with a x = b, for one symmetric positive-definite matrix a and a
    vector or matrix b, through the Cholesky factor of a (see cholesky_pd
    for the errors it raises)."""
    b = np.asarray(b, dtype=float)
    chol = cholesky_pd(a, b)
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def rowwise(fn, a: np.ndarray, *args):
    """fn(a, *args) for a numpy.linalg function over a stack of matrices a,
    plus a mask of the rows on which it fails.

    LAPACK failing on one row makes numpy raise for the whole stack, so the
    rows are then tried one at a time, and each failing row is replaced by
    the identity (its other arguments by zeros) before the stacked call is
    repeated. Slices are computed independently, so the good rows' results
    are the same either way.
    """
    bad = np.zeros(a.shape[0], dtype=bool)
    try:
        return fn(a, *args), bad
    except np.linalg.LinAlgError:
        pass
    for i in range(a.shape[0]):
        try:
            fn(a[i:i + 1], *(b[i:i + 1] for b in args))
        except np.linalg.LinAlgError:
            bad[i] = True
    a = np.where(bad[:, None, None], np.eye(a.shape[-1]), a)
    args = [np.where(bad.reshape((-1,) + (1,) * (b.ndim - 1)), 0.0, b) for b in args]
    return fn(a, *args), bad


@dataclass
class GaussianBelief:
    """State estimate: mean vector and positive-definite error covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def validate(self, rtol: float = 1e-10) -> None:
        scale = max(np.abs(self.cov).max(), 1e-300)
        if np.abs(self.cov - self.cov.T).max() > rtol * scale:
            raise ValueError("covariance is not symmetric")
        if np.linalg.eigvalsh(symmetrize(self.cov))[0] <= 0.0:
            raise ValueError("covariance is not positive definite")


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
        if np.abs(self.Q - self.Q.T).max() > 1e-10 * max(np.abs(self.Q).max(), 1.0):
            raise ValueError("Q must be symmetric")
        if np.linalg.eigvalsh(symmetrize(self.Q))[0] < -1e-10:
            raise ValueError("Q must be positive semidefinite")
        w = np.linalg.eigvalsh(symmetrize(self.Rbar))
        if w[0] <= 0.0:
            raise ValueError("Rbar must be positive definite")
        m = self.Rbar.shape[0]
        det = np.linalg.det(self.Rbar)
        self.Rbar = self.Rbar / det ** (1.0 / m)

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

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
    mean = matvec(model.F, mean)
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
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise NumericalError("measurement is not finite")
    mean = np.asarray(prior.mean, dtype=float)
    cov = np.asarray(prior.cov, dtype=float)
    mean, cov, status, diagnostics = kernel(mean[None], cov[None], z[None], *args)
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
