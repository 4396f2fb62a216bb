"""Special functions and seeded sampling primitives.

Everything downstream (variance-scale calibration, chi-square acceptance
intervals, noise generators) is built on the functions in this module, so
they are implemented here directly rather than pulled from a statistics
library. The incomplete-gamma code uses the classic split: series expansion
for x < a + 1, modified-Lentz continued fraction otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .statespace import indefinite

_EPS = 2.220446049250313e-16
_FPMIN = 1e-300
_MAX_SERIES_ITER = 500
_MAX_ROOT_ITER = 200


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer and not a bool: the rule
    for every count, seed and stream id."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def draw_count(size) -> int:
    """The number of draws a sampler's size asks for: 1 for None, else size,
    which must be a non-negative integer (see is_integer)."""
    if size is not None and not (is_integer(size) and size >= 0):
        raise ValueError(f"size must be None or a non-negative integer, got {size!r}")
    return 1 if size is None else int(size)


def _lower_series(a: float, x: float) -> float:
    # P(a, x) by the power series, good for x < a + 1.
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_SERIES_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_cf(a: float, x: float) -> float:
    # Q(a, x) by continued fraction (modified Lentz), good for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_SERIES_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    if not a > 0.0:
        raise ValueError(f"reg_lower_inc_gamma requires a > 0, got {a}")
    if not x >= 0.0:
        raise ValueError(f"reg_lower_inc_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(_lower_series(a, x), 1.0)
    return max(1.0 - _upper_cf(a, x), 0.0)


def inv_reg_lower_inc_gamma(a: float, p: float) -> float:
    """Inverse of P(a, .): the x with reg_lower_inc_gamma(a, x) = p.

    Safeguarded Newton iteration on the monotone CDF, with a bisection
    fallback whenever a Newton step leaves the current bracket.
    """
    if not a > 0.0:
        raise ValueError(f"inv_reg_lower_inc_gamma requires a > 0, got {a}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"inv_reg_lower_inc_gamma requires 0 < p < 1, got {p}")

    # Leading-order start from P(a, x) ~ x^a / Gamma(a+1), then bracket by
    # geometric expansion; the start is excellent in the small-x regime.
    log_x0 = (math.log(p) + math.lgamma(a + 1.0)) / a
    x = math.exp(log_x0) if log_x0 < 700.0 else a
    if not math.isfinite(x) or x <= 0.0:
        x = a

    lo, hi = x, x
    it = 0
    while reg_lower_inc_gamma(a, hi) < p:
        hi *= 2.0
        it += 1
        if it > 1100:
            raise NumericalError(f"upper bracket search failed (after {it} iterations)")
    while lo > 0.0 and reg_lower_inc_gamma(a, lo) > p:
        lo *= 0.5
        it += 1
        if it > 2200:
            raise NumericalError(f"lower bracket search failed (after {it} iterations)")

    x = min(max(x, lo), hi)
    lgam = math.lgamma(a)
    for it in range(1, _MAX_ROOT_ITER + 1):
        f = reg_lower_inc_gamma(a, x) - p
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) <= 1e-13 * max(p, 1.0 - p):
            return x
        # dP/dx = x^(a-1) e^(-x) / Gamma(a)
        dpdx = math.exp((a - 1.0) * math.log(x) - x - lgam)
        step_ok = dpdx > 0.0 and math.isfinite(dpdx)
        x_new = x - f / dpdx if step_ok else 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 4.0 * _EPS * x:
            return x_new
        x = x_new
    raise NumericalError("incomplete gamma inversion did not converge "
                         f"(after {_MAX_ROOT_ITER} iterations)")


class RngStream:
    """Deterministic counter-based random stream.

    Equal (seed, stream_id) pairs reproduce the same draw sequence bit for
    bit; distinct stream_ids give statistically independent streams, so
    per-trial streams can run on concurrent workers without shared state.
    A single stream must not be shared between workers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not (is_integer(seed) and is_integer(stream_id)):
            raise ValueError("seed and stream_id must be integers")
        # Philox's key holds each as a 64-bit unsigned integer.
        if not (0 <= seed < 2**64 and 0 <= stream_id < 2**64):
            raise ValueError("seed and stream_id must lie in [0, 2**64)")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        if low == 0.0 and high == 1.0:
            # Generator.uniform returns low + (high - low) * random(), which
            # is random() itself here; random() skips the argument checks
            # that make a single uniform draw cost 3x a normal one.
            return self._gen.random(size)
        return self._gen.uniform(low, high, size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _mt_constants(shape: float):
    # Marsaglia-Tsang squeeze method, shape >= 1, unit rate: a candidate
    # from a standard normal x is d (1 + c x)^3.
    d = shape - 1.0 / 3.0
    return d, 1.0 / math.sqrt(9.0 * d)


def _mt_cube(c: float, x):
    # numpy's pow, never Python's **: the two differ in the last ulp, and the
    # block and per-draw samplers must agree bit for bit.
    return (1.0 + c * np.asarray(x, dtype=float)) ** 3


def _mt_log_accept(d: float, x2, u, v):
    # The full acceptance test, for candidates the squeeze did not accept.
    return np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(v))


def _gamma_mt(shape: float, rng: RngStream, n: int) -> np.ndarray:
    d, c = _mt_constants(shape)
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        x = rng.standard_normal(todo.size)
        u = rng.uniform(size=todo.size)
        v = _mt_cube(c, x)
        ok = v > 0.0
        x2 = x * x
        accept = ok & (u < 1.0 - 0.0331 * x2 * x2)
        # The squeeze leaves a few percent undecided; only they take logs.
        rest = np.flatnonzero(ok & ~accept)
        if rest.size:
            accept[rest] = _mt_log_accept(d, x2[rest], u[rest], v[rest])
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    return out


def _mt_candidate(d: float, c: float, rng: RngStream) -> float:
    """The normal x of one accepted candidate, drawn as _gamma_mt draws a
    single sample (a normal, then a uniform, per try); the sample is
    d * _mt_cube(c, x)."""
    while True:
        x = rng.standard_normal()
        u = rng.uniform()
        # 1 + c x is a multiple of 2^-53 when positive, so its cube cannot
        # underflow: this is _gamma_mt's v > 0.
        if not 1.0 + c * x > 0.0:
            continue
        x2 = x * x
        if u < 1.0 - 0.0331 * x2 * x2 or _mt_log_accept(d, x2, [u], _mt_cube(c, [x]))[0]:
            return x


def sample_gamma(shape: float, rate: float, rng: RngStream, size=None):
    """Draw from the gamma distribution with the given shape and rate.

    Shapes below one use the standard boost: draw at shape + 1 and scale
    by a uniform power, which keeps the squeeze method applicable.
    """
    if not 0.0 < shape < math.inf:
        raise ValueError(f"sample_gamma requires a finite shape > 0, got {shape}")
    if not 0.0 < rate < math.inf:
        raise ValueError(f"sample_gamma requires a finite rate > 0, got {rate}")
    n = draw_count(size)
    if shape < 1.0:
        g = _gamma_mt(shape + 1.0, rng, n)
        g *= rng.uniform(size=n) ** (1.0 / shape)
    else:
        g = _gamma_mt(shape, rng, n)
    g /= rate
    return float(g[0]) if size is None else g


def sample_inverse_gamma(alpha: float, beta: float, rng: RngStream, size=None):
    """Draw from the inverse gamma distribution with shape alpha, scale beta."""
    g = sample_gamma(alpha, beta, rng, size=size)
    return 1.0 / g


def mvn_factor(cov) -> np.ndarray:
    """The factor L, L L' = cov, of one covariance (m, m), through which
    sample_mvn and sample_t_mixture draw: its Cholesky factor, or for a
    semidefinite cov (zero included), V sqrt(W) from its eigendecomposition.
    Non-finite input raises ValueError, indefinite input LinAlgError; only
    an asymmetric cov is symmetrised, in a form that cannot overflow."""
    cov = np.asarray(cov, dtype=float)
    if not np.isfinite(cov).all():
        raise ValueError("array must not contain infs or NaNs")
    cov = np.where(cov == cov.T, cov, 0.5 * cov + 0.5 * cov.T)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if indefinite(w):
            raise np.linalg.LinAlgError(
                f"covariance is not positive semidefinite (min eigenvalue {w[0]:.3e})"
            ) from None
        return v * np.sqrt(np.clip(w, 0.0, None))


def sample_mvn(mean, cov, rng: RngStream, size=None):
    """Draw from a multivariate normal with the given mean and covariance.

    A block of size draws equals size successive single draws bit for bit
    and leaves rng where they would: the covariance is factored once, the
    normals are drawn in one call, and np.matvec works row by row.
    """
    mean = np.asarray(mean, dtype=float)
    factor = mvn_factor(cov)
    draws = mean + np.matvec(factor, rng.standard_normal((draw_count(size), mean.shape[0])))
    return draws[0] if size is None else draws


def sample_t_mixture(alpha: float, beta: float, shape_matrix: np.ndarray, rng: RngStream,
                     n: int) -> np.ndarray:
    """n draws (n, m) of the inverse-gamma scale mixture N(0, r shape_matrix),
    r ~ InvGamma(alpha, beta): a multivariate t with 2 alpha degrees of
    freedom.

    Each draw takes from rng what sample_inverse_gamma followed by a
    zero-mean sample_mvn would, in that order (the squeeze method's normal
    and uniform per try, the boost uniform when alpha < 1, then m normals).
    Draw k is sqrt(r_k) (L y_k) for its normals y_k and the one factor
    L = mvn_factor(shape_matrix), which for shape_matrix = I is sample_mvn's
    draw of N(0, r_k I) bit for bit. The draws are taken one at a time; the
    gamma transforms and the products run on all n at once. A gamma draw
    below about 5.6e-309 (alpha of about 0.01 or less) raises OverflowError,
    since its scale 1/g is not finite.
    """
    boost = alpha < 1.0
    d, c = _mt_constants(alpha + 1.0 if boost else alpha)
    m = shape_matrix.shape[0]
    x = np.empty(n)
    u = np.empty(n)
    normals = np.empty((n, m))
    for k in range(n):
        x[k] = _mt_candidate(d, c, rng)
        if boost:
            u[k] = rng.uniform()
        normals[k] = rng.standard_normal(m)
    g = d * _mt_cube(c, x)
    if boost:
        g *= u ** (1.0 / alpha)
    g /= beta
    with np.errstate(divide="ignore", over="ignore"):
        r = 1.0 / g
    if not np.isfinite(r).all():
        raise OverflowError(f"an inverse-gamma scale overflowed (alpha={alpha}, beta={beta})")
    return np.sqrt(r)[:, None] * np.matvec(mvn_factor(shape_matrix), normals)
