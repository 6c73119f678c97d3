"""Shared fixtures: coefficient sets and kernels reused across modules."""
import numpy as np
import pytest

from sdelab import (CoefficientSet, DiffusionSpec, DiscreteLaw, DriftSpec,
                    FiniteActivityKernel, MollifierConfig, StableTailKernel,
                    TruncationFunction)


def unit_sigma(x):
    return np.ones_like(np.asarray(x, dtype=float))


def zero_beta(x):
    return np.zeros_like(np.asarray(x, dtype=float))


@pytest.fixture(scope="session")
def unit_diffusion():
    return DiffusionSpec(sigma=unit_sigma, sigma_min=1.0, sigma_max=1.0)


@pytest.fixture(scope="session")
def flat_coeffs(unit_diffusion):
    """sigma == 1, beta == 0, transform built through the full pipeline."""
    grid = np.linspace(-6.0, 6.0, 481)
    drift = DriftSpec(beta=zero_beta)
    return CoefficientSet.build(drift, unit_diffusion, MollifierConfig(), grid)


@pytest.fixture(scope="session")
def linear_coeffs(unit_diffusion):
    """beta = 0.3 x, so the potential is 0.6 x exactly."""
    grid = np.linspace(-6.0, 6.0, 721)
    drift = DriftSpec(beta=lambda x: 0.3 * np.asarray(x, dtype=float))
    return CoefficientSet.build(drift, unit_diffusion, MollifierConfig(), grid)


@pytest.fixture(scope="session")
def tanh_coeffs(unit_diffusion):
    """Bounded nonlinear potential 1.2 tanh(x/2): nontrivial, globally safe."""
    grid = np.linspace(-8.0, 8.0, 801)
    drift = DriftSpec(beta=lambda x: 0.6 * np.tanh(np.asarray(x, dtype=float) / 2.0))
    return CoefficientSet.build(drift, unit_diffusion, MollifierConfig(), grid)


@pytest.fixture(scope="session")
def atom_kernel():
    """Rate-1 kernel with a single jump of size +0.1."""
    return FiniteActivityKernel(rate=1.0, law=DiscreteLaw(((0.1, 1.0),)), alpha=1.0)


@pytest.fixture(scope="session")
def unit_atom_kernel():
    """Rate-1 kernel with a single jump of size +1."""
    return FiniteActivityKernel(rate=1.0, law=DiscreteLaw(((1.0, 1.0),)), alpha=1.0)


@pytest.fixture(scope="session")
def stable_half_kernel():
    return StableTailKernel(gamma=0.5, scale=1.0, alpha=0.0)


@pytest.fixture(scope="session")
def clamp1():
    return TruncationFunction()


@pytest.fixture(params=(1, 2, 3))
def workers(request, monkeypatch):
    """Forked runs see this many usable CPUs, and runs of every size are
    dealt to them."""
    from sdelab import coefficients
    monkeypatch.setattr(coefficients, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(coefficients, "_MIN_SHARE", 1)
    return request.param
