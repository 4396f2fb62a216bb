"""Batched filter kernels: a stack of N beliefs gives the N single results
bit for bit, a bad row fails alone, and the public updates share one
contract for bad input."""

import numpy as np
import pytest

from filterlab.baselines import KforConfig, PdafConfig, kfor_batch, kfor_update, pdaf_batch, pdaf_update
from filterlab.errors import NumericalError
from filterlab.harness import ScenarioConfig
from filterlab.kalman import kf_batch, kf_update
from filterlab.nvmf import nvmf_batch, nvmf_update
from filterlab.statespace import GaussianBelief, predict, predict_batch

from oracles import kf_information_update

CFG = ScenarioConfig(noise="t")
MODEL = CFG.model()
H = MODEL.H
R = CFG.r_bar * np.eye(2)
MIXING = CFG.mixing()
NVMF = CFG.nvmf_config()
KFOR = KforConfig(CFG.tau, CFG.w)
PDAF = PdafConfig(CFG.p_detect, CFG.gate, CFG.clutter_density)

# name -> (batched kernel, its extra arguments, public single update returning a belief)
FILTERS = {
    "kf": (kf_batch, (H, R), lambda b, z: kf_update(b, z, H, R)[0]),
    "nvmf": (nvmf_batch, (MODEL, MIXING, NVMF),
             lambda b, z: nvmf_update(b, z, MODEL, MIXING, NVMF)[0]),
    "pdaf": (pdaf_batch, (H, R, PDAF), lambda b, z: pdaf_update(b, z, H, R, PDAF)),
    "kfor": (kfor_batch, (H, R, KFOR), lambda b, z: kfor_update(b, z, H, R, KFOR)[0]),
}


def random_stack(rng, N):
    """Predicted beliefs and measurements; every third residual is an outlier,
    so the stack mixes gated/ungated PDAF rows and flagged/unflagged KFOR
    components, and NVMF rows that stop after different EM iteration counts."""
    A = rng.standard_normal((N, 4, 4))
    cov = 30.0 * (A @ A.swapaxes(-1, -2) + np.eye(4))
    mean = rng.standard_normal((N, 4)) * 100.0
    scale = np.where(np.arange(N) % 3 == 0, 2000.0, 15.0)
    z = mean[:, :2] + rng.standard_normal((N, 2)) * scale[:, None]
    return mean, cov, z


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_stack_equals_single_calls_bitwise(name):
    kernel, args, single = FILTERS[name]
    mean, cov, z = random_stack(np.random.default_rng(20), 9)
    post_mean, post_cov, status, diag = kernel(mean, cov, z, *args)
    assert not status.any()
    for i in range(len(mean)):
        post = single(GaussianBelief(mean[i], cov[i]), z[i])
        assert np.array_equal(post.mean, post_mean[i])
        assert np.array_equal(post.cov, post_cov[i])
        if name == "nvmf":
            _, one = nvmf_update(GaussianBelief(mean[i], cov[i]), z[i], MODEL, MIXING, NVMF)
            assert one.iterations_used == diag.iterations_used[i]
            # the stacked trace is the row's own, NaN past its last iteration
            trace = diag.log_posterior_trace[i]
            assert np.array_equal(trace[:one.iterations_used + 1], one.log_posterior_trace)
            assert np.isnan(trace[one.iterations_used + 1:]).all()
    if name == "nvmf":
        assert len(set(diag.iterations_used)) > 1
    if name == "pdaf":
        assert 0 < diag.sum() < len(mean)


def test_stack_results_do_not_depend_on_the_other_rows():
    mean, cov, z = random_stack(np.random.default_rng(21), 12)
    for kernel, args, _ in FILTERS.values():
        whole = kernel(mean, cov, z, *args)
        halves = [kernel(mean[s], cov[s], z[s], *args) for s in (slice(0, 5), slice(5, None))]
        for part in (0, 1):
            assert np.array_equal(whole[part], np.concatenate([h[part] for h in halves]))


def test_predict_stack_equals_single_calls_bitwise():
    mean, cov, _ = random_stack(np.random.default_rng(22), 6)
    stacked_mean, stacked_cov = predict_batch(mean, cov, MODEL)
    for i in range(len(mean)):
        one = predict(GaussianBelief(mean[i], cov[i]), MODEL)
        assert np.array_equal(one.mean, stacked_mean[i])
        assert np.array_equal(one.cov, stacked_cov[i])


def test_kf_batch_matches_information_form_oracle():
    rng = np.random.default_rng(23)
    for n, m in ((1, 1), (3, 2), (4, 3)):
        N = 20
        A = rng.standard_normal((N, n, n))
        cov = A @ A.swapaxes(-1, -2) + n * np.eye(n)
        mean = rng.standard_normal((N, n))
        Hm = rng.standard_normal((m, n))
        B = rng.standard_normal((m, m))
        Rm = B @ B.T + m * np.eye(m)
        z = rng.standard_normal((N, m)) * 3.0
        post_mean, post_cov, status, _ = kf_batch(mean, cov, z, Hm, Rm)
        assert not status.any()
        for i in range(N):
            ref, _ = kf_information_update(GaussianBelief(mean[i], cov[i]), z[i], Hm, Rm)
            assert np.allclose(post_mean[i], ref.mean, rtol=1e-10, atol=1e-10)
            assert np.allclose(post_cov[i], ref.cov, rtol=1e-10, atol=1e-12)


def _bad_rows(mean, cov, z):
    """Copies of the stack with one bad row each: a NaN measurement, a
    non-positive-definite covariance, a non-finite covariance, and (for
    NVMF, whose residual scale overflows) an enormous measurement."""
    cases = []
    for row, edit in ((2, "nan_z"), (0, "indefinite"), (5, "inf_cov"), (3, "huge_z")):
        m, c, zz = mean.copy(), cov.copy(), z.copy()
        if edit == "nan_z":
            zz[row, 1] = np.nan
        elif edit == "indefinite":
            c[row] = -10.0 * c[row]
        elif edit == "inf_cov":
            c[row, 0, 0] = np.inf
        else:
            zz[row] = 1e200
        cases.append((edit, row, m, c, zz))
    return cases


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_bad_row_fails_alone(name):
    kernel, args, _ = FILTERS[name]
    mean, cov, z = random_stack(np.random.default_rng(24), 7)
    clean = kernel(mean, cov, z, *args)
    for edit, row, m, c, zz in _bad_rows(mean, cov, z):
        with np.errstate(all="ignore"):
            post_mean, post_cov, status, _ = kernel(m, c, zz, *args)
        good = np.arange(len(mean)) != row
        if edit != "huge_z" or name == "nvmf":
            assert status[row] != 0, edit
        assert not status[good].any(), edit
        assert np.array_equal(post_mean[good], clean[0][good]), edit
        assert np.array_equal(post_cov[good], clean[1][good]), edit


def _failure_cases():
    """Rows that fail one check, or several at once, next to a good row."""
    x = np.array([1.0, 2.0, 0.5, 0.1])
    P = 50.0 * np.eye(4) + 10.0
    z = np.array([3.0, 1.0])
    inf_P = P + np.diag([np.inf, 0.0, 0.0, 0.0])
    return {
        "good": (x, P, z),
        "nan_z": (x, P, np.array([3.0, np.nan])),
        "indefinite": (x, -1000.0 * P, z),
        "nan_z+indefinite": (x, -1000.0 * P, np.array([np.nan, 1.0])),
        "inf_cov": (x, inf_P, z),
        "nan_z+inf_cov": (x, inf_P, np.array([np.nan, 1.0])),
        "ill_conditioned": (x, np.diag([1e16, 1.0, 1.0, 1.0]), z),
        # z - H x overflows, so the update's output is not finite
        "overflowing_innovation": (np.array([-1.7e308, 0.0, 0.0, 0.0]), P,
                                   np.array([1.7e308, 1.0])),
        "huge_z": (x, P, np.array([1e200, 1e200])),
    }


# Each kernel's status per case: the first check a row fails decides it.
# KF, KFOR and PDAF test S before the output, so an indefinite P outranks a
# NaN z. NVMF tests P's Cholesky factor, then z, then each EM step. A P with
# an infinite entry passes the factorisation but has NaN eigenvalues, which
# fail the EM's definiteness test unless a NaN z failed the row first.
EXPECTED_STATUS = {
    "kf": {"nan_z": 5, "indefinite": 2, "nan_z+indefinite": 2, "inf_cov": 2,
           "nan_z+inf_cov": 2, "ill_conditioned": 2, "overflowing_innovation": 5, "huge_z": 0},
    "nvmf": {"nan_z": 5, "indefinite": 1, "nan_z+indefinite": 1, "inf_cov": 1,
             "nan_z+inf_cov": 5, "ill_conditioned": 4, "overflowing_innovation": 1,
             "huge_z": 5},
}
EXPECTED_STATUS["pdaf"] = EXPECTED_STATUS["kfor"] = EXPECTED_STATUS["kf"]


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_failure_codes_and_their_precedence(name):
    kernel, args, _ = FILTERS[name]
    cases = _failure_cases()
    mean, cov, z = (np.array([case[i] for case in cases.values()]) for i in range(3))
    with np.errstate(all="ignore"):
        stacked = kernel(mean, cov, z, *args)
        singles = [kernel(mean[i:i + 1], cov[i:i + 1], z[i:i + 1], *args)
                   for i in range(len(cases))]
    expected = {"good": 0, **EXPECTED_STATUS[name]}
    assert dict(zip(cases, stacked[2].tolist())) == expected
    assert [int(one[2][0]) for one in singles] == stacked[2].tolist()
    for part in (0, 1):
        assert np.array_equal(stacked[part][0], singles[0][part][0])


@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_update_rejects_nonfinite_measurement(name, bad):
    single = FILTERS[name][2]
    prior = GaussianBelief(np.array([1.0, 2.0, 0.5, 0.1]), 50.0 * np.eye(4))
    with pytest.raises(NumericalError):
        single(prior, np.array([3.0, bad]))


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_public_update_raises_numerical_error_for_indefinite_prior(name):
    single = FILTERS[name][2]
    prior = GaussianBelief(np.zeros(4), -1000.0 * np.eye(4))
    # No np.errstate: the update must raise NumericalError, not a RuntimeWarning.
    with pytest.raises(NumericalError):
        single(prior, np.array([3.0, 1.0]))


@pytest.mark.parametrize("update", [
    lambda b, z, R: kf_update(b, z, H, R),
    lambda b, z, R: kfor_update(b, z, H, R, KFOR),
    lambda b, z, R: pdaf_update(b, z, H, R, PDAF),
], ids=["kf", "kfor", "pdaf"])
def test_kalman_family_rejects_ill_conditioned_innovation_cov(update):
    # S = diag(1e14, 1) + 1e-3 I has a condition number of about 1e17.
    prior = GaussianBelief(np.zeros(4), np.diag([1e14, 1.0, 1.0, 1.0]))
    with pytest.raises(NumericalError, match="ill conditioned"):
        update(prior, np.array([3.0, 1.0]), 1e-3 * np.eye(2))


def test_nvmf_overflowing_residual_raises_numerical_error():
    prior = GaussianBelief(np.zeros(4), 50.0 * np.eye(4))
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        nvmf_update(prior, np.array([1e200, 1e200]), MODEL, MIXING, NVMF)
