"""The package's public surface: what `import filterlab` exports, and where
the names it does not export live."""

import importlib
import types

import pytest

import filterlab
import filterlab.errors

PUBLIC = {
    "GaussianBelief", "GaussianNoise", "GaussianUniformNoise", "InverseGammaMixing",
    "KforConfig", "LinearModel", "MultivariateTNoise", "NumericalError", "NvmfConfig",
    "NvmfDiagnostics", "PdafConfig", "RngStream", "RunSummary", "ScenarioConfig", "Trials",
    "UpdateDiagnostics", "calibrate_mixing", "cv_process_noise", "cv_transition", "emit_csv",
    "kf_update", "kfor_update", "nvmf_update", "pdaf_update", "predict",
    "reg_lower_inc_gamma", "run_monte_carlo", "sample_noise", "simulate_truth",
    "two_point_init",
}

# Names the package does not export, by the module their callers import
# them from: the acceptance suite (nvmf's closed forms), the harness and the
# benchmark's tracer (which wraps them as module attributes).
MODULE_NAMES = {
    "nvmf": ["psi", "phi", "posterior_r_params", "covariance_correction",
             "nvm_t_log_density", "inv_reg_lower_inc_gamma", "sample_inverse_gamma"],
    "specfun": ["inv_reg_lower_inc_gamma", "sample_gamma", "sample_inverse_gamma",
                "sample_mvn"],
    "noise": ["sample_inverse_gamma", "sample_mvn"],
    "metrics": ["consistency_interval", "detect_divergence"],
    "harness": ["consistency_interval", "detect_divergence", "sample_mvn"],
}


def test_package_exports_exactly_its_public_names():
    exported = {name for name, value in vars(filterlab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MODULE_NAMES.items()
                                          for n in names])
def test_unexported_name_stays_in_its_module(module, name):
    assert name not in PUBLIC
    assert callable(getattr(importlib.import_module(f"filterlab.{module}"), name))


def test_one_error_type():
    defined = {name for name, value in vars(filterlab.errors).items()
               if isinstance(value, type) and value.__module__ == "filterlab.errors"}
    assert defined == {"NumericalError"}
    assert issubclass(filterlab.NumericalError, RuntimeError)
