"""Property tests of a whole Monte Carlo run over the configuration space.

The run fuzzer draws scenario parameters log-uniform over wide ranges in
every noise regime and checks the robustness contract: an invalid
configuration is rejected at construction, or, when its reference KF (the
matched KF's gain and covariance, which read no measurement) fails, by
run_monte_carlo before any trial runs; and a filter that fails on a trial is
recorded in Trials.failed without aborting the run. The one abort a run may
raise is "all trials failed", when the KF rows fail on every trial on their
data, since KF's squared-error envelope defines track loss.

The unit-invariance property rescales every length of a scenario by a power
of two and checks that the run's dimensionless outputs do not move.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filterlab.harness import ScenarioConfig, run_monte_carlo, run_trials

TRIALS, UPDATES, K_STAR = 3, 20, 10


def scenario(seed: int) -> dict:
    """ScenarioConfig fields drawn from the fuzz domain by a seeded
    generator: hypothesis's own float draws favour simple values such as 1
    and mutate earlier examples, which leaves 50 examples far from uniform."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    return {
        "noise": str(rng.choice(["gaussian", "gu", "t"])),
        "T": log_uniform(1e-3, 1e3),
        "q": log_uniform(1e-9, 1e4),
        "r_bar": log_uniform(1e-6, 1e6),
        "r_out": log_uniform(1e-6, 1e8),
        "beta": log_uniform(1e-4, 1e6),
        # ScenarioConfig rejects alpha below 0.05 in the t regime, where a
        # noise draw's scale can overflow.
        "alpha": log_uniform(0.05, 50.0),
        "p_out": float(rng.uniform(0.0, 1.0)),
        "rho": float(rng.uniform(0.0, 1.0)),
        "x0": tuple(rng.uniform(-1e6, 1e6, 4).tolist()),
        "seed": seed,
    }


# KF's covariance-form update (I - G H) P loses the posterior position
# variance when r_bar is about 1e-16 of the innovation covariance: the
# reference KF's covariance goes singular and fails the NEES solve at
# update 2, so run_monte_carlo rejects the configuration.
REFERENCE_KF_FAILS = {"T": 878.0, "q": 1094.0, "r_bar": 1.9e-5, "r_out": 1e4, "beta": 99.84,
                      "alpha": 0.9987, "p_out": 0.1, "rho": 0.01,
                      "x0": (100.0, 100.0, 20.0, 10.0), "seed": 0}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1).map(scenario))
@example(dict(REFERENCE_KF_FAILS, noise="gaussian"))
@example(dict(REFERENCE_KF_FAILS, noise="gu"))
@example(dict(REFERENCE_KF_FAILS, noise="t"))
def test_a_run_completes_or_is_rejected_at_construction(fields):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = ScenarioConfig(trials=TRIALS, updates=UPDATES, k_star=K_STAR, **fields)
        except ValueError:
            return
        try:
            summary, trials = run_monte_carlo(config)
        except ValueError as exc:
            failed = np.flatnonzero(config.kf_reference[2])
            assert failed.size
            assert str(exc).startswith(f"the reference KF fails at update {failed[0] + 1}: ")
            return
        except RuntimeError as exc:
            assert str(exc) == "all trials failed"
            assert not config.kf_reference[2].any()
            assert run_trials(config, range(TRIALS)).failed["kf"].all()
            return
    # A filter's row is finite throughout exactly when it did not fail there,
    # and a failed row counts as a lost track.
    for f in config.filters:
        for per_update in (trials.squared_error[f], trials.nees[f]):
            assert np.array_equal(np.isfinite(per_update).all(axis=1), ~trials.failed[f])
        assert not np.any(trials.failed[f] & ~trials.diverged[f])
    assert summary.n_trials == TRIALS and 0 <= summary.n_eff <= TRIALS


@pytest.mark.parametrize("noise", ["gaussian", "gu", "t"])
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_run_does_not_depend_on_the_unit_of_length(noise, seed):
    # Lengths scale by c and variances by c^2; powers of two scale exactly,
    # so only the rounding of sums and products of scaled terms moves.
    base = dict(noise=noise, trials=6, updates=60, k_star=30, seed=seed)
    reference = ScenarioConfig(**base)
    summary, _ = run_monte_carlo(reference)
    for k in (-200, -10, 10, 200):
        c = 2.0**k
        scaled, _ = run_monte_carlo(ScenarioConfig(
            **base, x0=tuple(c * v for v in reference.x0),
            **{name: c * c * getattr(reference, name)
               for name in ("q", "r_bar", "r_out", "beta")}))
        assert scaled.lost_tracks == summary.lost_tracks
        assert scaled.n_eff == summary.n_eff
        for f in summary.filters:
            for got, want in ((scaled.nrmse[f], summary.nrmse[f]),
                              (scaled.anees[f], summary.anees[f])):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
