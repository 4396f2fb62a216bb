"""Robust state estimation with a variance-mixture measurement model.

The package provides the mixture filter itself (nvmf), the standard Kalman
update (kalman), robust baselines (baselines), noise generators (noise), run
statistics (metrics), self-contained special functions and seeded sampling
(specfun), and a Monte Carlo benchmark harness with a CLI (harness, cli).
"""

from .baselines import KforConfig, PdafConfig, kfor_update, pdaf_update
from .errors import CalibrationError, ConvergenceError, CovarianceCorrectionError, NumericalError
from .harness import ScenarioConfig, Trials, emit_csv, run_monte_carlo, simulate_truth
from .kalman import UpdateDiagnostics, kf_update
from .metrics import RunSummary, consistency_interval, detect_divergence
from .noise import GaussianNoise, GaussianUniformNoise, MultivariateTNoise, sample_noise
from .nvmf import (
    InverseGammaMixing,
    NvmfConfig,
    NvmfDiagnostics,
    calibrate_mixing,
    covariance_correction,
    log_posterior,
    nvm_t_log_density,
    nvmf_update,
    phi,
    posterior_r_params,
    psi,
    u_vector,
    zeta,
)
from .specfun import (
    RngStream,
    chi_square_quantile,
    inv_reg_lower_inc_gamma,
    log_gamma,
    reg_lower_inc_gamma,
    sample_gamma,
    sample_inverse_gamma,
    sample_mvn,
)
from .statespace import (
    GaussianBelief,
    LinearModel,
    cv_process_noise,
    cv_transition,
    predict,
    two_point_init,
)

__version__ = "0.1.0"
