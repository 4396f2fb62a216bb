import warnings

import numpy as np
import pytest

from filterlab.errors import NumericalError
from filterlab.kalman import kf_batch, kf_update, pcrlb_recursion
from filterlab.statespace import GaussianBelief, LinearModel, cv_process_noise, cv_transition, two_point_init

from oracles import kf_information_update


def random_pd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T + n * np.eye(n))


class TestKfUpdate:
    def test_uninformative_measurement(self):
        prior = GaussianBelief(np.array([1.0, -2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        post, _ = kf_update(prior, np.array([50.0, 50.0]), np.eye(2), 1e12 * np.eye(2))
        assert np.allclose(post.mean, prior.mean, rtol=1e-6, atol=1e-6)
        assert np.allclose(post.cov, prior.cov, rtol=1e-6)

    def test_scalar_hand_case(self):
        prior = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
        post, diag = kf_update(prior, np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        assert abs(post.mean[0] - 0.5) < 1e-14
        assert abs(post.cov[0, 0] - 0.5) < 1e-14
        assert abs(diag.gain[0, 0] - 0.5) < 1e-14

    def test_gain_forms_agree(self):
        # covariance-form gain vs information-form gain on random PD inputs
        rng = np.random.default_rng(5)
        for _ in range(100):
            P = random_pd(rng, 4)
            R = random_pd(rng, 2)
            H = rng.standard_normal((2, 4))
            prior = GaussianBelief(rng.standard_normal(4), P)
            z = rng.standard_normal(2)
            _, d_cov = kf_update(prior, z, H, R)
            _, d_inf = kf_information_update(prior, z, H, R)
            scale = np.abs(d_cov.gain).max()
            assert np.abs(d_cov.gain - d_inf.gain).max() < 1e-10 * max(scale, 1.0)
            # S^-1 v and log det S, in both forms
            S = H @ P @ H.T + R
            for d in (d_cov, d_inf):
                assert np.allclose(d.solved_innovation, np.linalg.solve(S, d.innovation),
                                   rtol=1e-10, atol=1e-12)
                assert abs(d.innovation_log_det - np.linalg.slogdet(S)[1]) < 1e-10

    def test_posterior_not_larger(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            P = random_pd(rng, 3)
            R = random_pd(rng, 2)
            H = rng.standard_normal((2, 3))
            prior = GaussianBelief(np.zeros(3), P)
            post, _ = kf_update(prior, rng.standard_normal(2), H, R)
            assert np.linalg.eigvalsh(P - post.cov)[0] > -1e-10

    def test_joseph_form_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            P = random_pd(rng, 4)
            R = random_pd(rng, 2)
            H = rng.standard_normal((2, 4))
            prior = GaussianBelief(rng.standard_normal(4), P)
            post, diag = kf_update(prior, rng.standard_normal(2), H, R)
            G = diag.gain
            ImGH = np.eye(4) - G @ H
            joseph = ImGH @ P @ ImGH.T + G @ R @ G.T
            assert np.abs(joseph - post.cov).max() < 1e-8 * max(np.abs(P).max(), 1.0)

    def test_ill_conditioned_raises(self):
        prior = GaussianBelief(np.zeros(2), 1e-14 * np.eye(2))
        R = np.diag([1.0, 1e-13])
        with pytest.raises(NumericalError):
            kf_update(prior, np.zeros(2), np.eye(2), R)

    def test_condition_test_does_not_overflow(self):
        # Eigenvalues near 1e300: COND_LIMIT times the smallest would overflow.
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        R = 1e300 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post, _ = kf_information_update(prior, np.ones(2), np.eye(2), R)
            _, _, status, _ = kf_batch(prior.mean[None], prior.cov[None], np.ones((1, 2)),
                                       np.eye(2), R)
        assert np.allclose(post.mean, prior.mean) and status[0] == 0


class TestKfInformationUpdate:
    def test_agrees_with_covariance_form(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = rng.integers(1, 5)
            m = rng.integers(1, 4)
            P = random_pd(rng, n)
            R = random_pd(rng, m)
            H = rng.standard_normal((m, n))
            prior = GaussianBelief(rng.standard_normal(n), P)
            z = rng.standard_normal(m)
            p1, _ = kf_update(prior, z, H, R)
            p2, _ = kf_information_update(prior, z, H, R)
            assert np.allclose(p1.mean, p2.mean, rtol=1e-9, atol=1e-9)
            assert np.allclose(p1.cov, p2.cov, rtol=1e-9, atol=1e-9)

    def test_measurement_only_limit(self):
        prior = GaussianBelief(np.zeros(2), 1e10 * np.eye(2))
        z = np.array([3.0, -4.0])
        R = np.array([[2.0, 0.3], [0.3, 1.0]])
        post, _ = kf_information_update(prior, z, np.eye(2), R)
        assert np.allclose(post.mean, z, rtol=1e-8)
        assert np.allclose(post.cov, R, rtol=1e-8)

    def test_information_increases(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            P = random_pd(rng, 3)
            R = random_pd(rng, 2)
            H = rng.standard_normal((2, 3))
            prior = GaussianBelief(np.zeros(3), P)
            post, _ = kf_information_update(prior, rng.standard_normal(2), H, R)
            gap = np.linalg.inv(post.cov) - np.linalg.inv(P)
            assert np.linalg.eigvalsh(gap)[0] > -1e-8


class TestPcrlbRecursion:
    def _model(self):
        H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        return LinearModel(cv_transition(3.0), cv_process_noise(3.0, 1e-6), H, np.eye(2))

    def test_infinite_noise_keeps_prediction(self):
        model = self._model()
        J0 = np.linalg.inv(np.diag([10.0, 10.0, 2.0, 2.0]))
        J_huge = pcrlb_recursion(J0, model, 1e15)
        # prediction-only information for comparison
        P = np.linalg.inv(J0)
        P_pred = model.F @ P @ model.F.T + model.Q
        assert np.allclose(J_huge, np.linalg.inv(P_pred), rtol=1e-9, atol=1e-12)

    def test_matches_kf_posterior(self):
        model = self._model()
        r = 100.0
        P0 = np.diag([100.0, 100.0, 30.0, 30.0])
        J = pcrlb_recursion(np.linalg.inv(P0), model, r)
        prior = GaussianBelief(np.zeros(4), model.F @ P0 @ model.F.T + model.Q)
        post, _ = kf_update(prior, np.zeros(2), model.H, r * model.Rbar)
        assert np.allclose(np.linalg.inv(J), post.cov, rtol=1e-9)

    def test_steady_state_trace_converges(self):
        model = self._model()
        R = 100.0 * np.eye(2)
        J = np.linalg.inv(two_point_init(np.zeros(2), np.zeros(2), 3.0, R).cov)
        prev = np.inf
        for _ in range(20000):
            J = pcrlb_recursion(J, model, 100.0)
            trace = np.trace(np.linalg.inv(J))
            if abs(trace - prev) < 1e-10:
                break
            prev = trace
        assert abs(trace - prev) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            pcrlb_recursion(np.eye(4), self._model(), 0.0)
