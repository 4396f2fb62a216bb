"""Robust state estimation with a variance-mixture measurement model.

The package provides the mixture filter itself (nvmf), the standard Kalman
update (kalman), robust baselines (baselines), noise generators (noise), run
statistics (metrics), self-contained special functions and seeded sampling
(specfun), and a Monte Carlo benchmark harness with a CLI (harness, cli).
"""

from .baselines import KforConfig, PdafConfig, kfor_update, pdaf_update
from .errors import NumericalError
from .harness import ScenarioConfig, Trials, emit_csv, run_monte_carlo, simulate_truth
from .kalman import UpdateDiagnostics, kf_update
from .metrics import RunSummary
from .noise import GaussianNoise, GaussianUniformNoise, MultivariateTNoise, sample_noise
from .nvmf import InverseGammaMixing, NvmfConfig, NvmfDiagnostics, calibrate_mixing, nvmf_update
from .specfun import RngStream, reg_lower_inc_gamma
from .statespace import (
    GaussianBelief,
    LinearModel,
    cv_process_noise,
    cv_transition,
    predict,
    two_point_init,
)

__version__ = "0.1.0"
