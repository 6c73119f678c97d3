"""Internal quadrature helpers.

Finite pieces go through QUADPACK (which copes with integrable endpoint
singularities); infinite tails are summed over dyadic blocks with an
explicit remainder bound, which is far more robust than QAGI for the
slowly decaying, possibly oscillatory integrands that jump kernels
produce.
"""
from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import QuadratureFailure


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=None)
def gauss_kronrod(n: int):
    """Kronrod extension of the n-point Gauss rule on [-1, 1] (Kronrod 1965).

    Returns the 2n+1 sorted nodes and their weights; ``x[1::2]`` are the
    Gauss nodes of ``gauss_legendre(n)``, bit for bit, and ``x[0::2]`` the
    roots of the Stieltjes polynomial E_{n+1}.  E_{n+1} is written in the
    Legendre basis with unit leading coefficient and is orthogonal to
    P_n P_k for k <= n; the weights make the rule exact on P_0 ... P_2n.
    """
    leg = np.polynomial.legendre
    t, tw = leg.leggauss(2 * n + 2)  # exact for the degree 3n+1 products
    p = leg.legvander(t, n + 1).T
    a = (p[:n + 1] * p[n] * tw) @ p.T  # a[k, j] = int P_k P_n P_j
    stieltjes = np.append(np.linalg.solve(a[:, :n + 1], -a[:, n + 1]), 1.0)
    x = np.sort(np.concatenate([gauss_legendre(n)[0], leg.legroots(stieltjes)]))
    moments = np.zeros(2 * n + 1)
    moments[0] = 2.0
    return x, np.linalg.solve(leg.legvander(x, 2 * n).T, moments)


@lru_cache(maxsize=None)
def gauss_legendre_01(n: int):
    """Nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def quad_checked(f, a, b, tol=1e-8):
    """scipy.integrate.quad with an error check, at most 400 subintervals.

    QUADPACK's own warnings are suppressed: the returned error estimate is
    checked instead.  It fails when the estimate exceeds the tolerance by
    more than two orders of magnitude (the estimator is routinely
    pessimistic near integrable singularities, so a strict comparison
    would produce false alarms).
    """
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            value, err = quad(f, a, b, epsabs=tol, epsrel=tol, limit=400)
    except Exception as exc:  # pragma: no cover - scipy internal failures
        raise QuadratureFailure(f"quad failed on [{a}, {b}]: {exc}") from exc
    if not np.isfinite(value):
        raise QuadratureFailure(f"integral on [{a}, {b}] is not finite")
    if err > max(100.0 * tol, 1e-3 * max(1.0, abs(value))):
        raise QuadratureFailure(
            f"integral on [{a}, {b}] reached error {err:.2e} > tol {tol:.2e}"
        )
    return value


def dyadic_tail(f, a, tail_mass, tol=1e-8, sup_bound=None):
    """Sum int_a^inf f over at most 200 blocks [a 2^k, a 2^(k+1)].

    ``tail_mass(r)`` must return the total absolute mass of the underlying
    measure beyond radius r; together with a bound on |g| (declared via
    ``sup_bound`` or estimated from the blocks already seen) it yields a
    rigorous stopping criterion.
    """
    if a <= 0:
        raise ValueError("dyadic tail needs a positive starting radius")
    total = 0.0
    lo = a
    observed = 0.0
    for _ in range(200):
        hi = 2.0 * lo
        block = quad_checked(f, lo, hi, tol=tol)
        total += block
        dens_scale = max(tail_mass(lo) - tail_mass(hi), 1e-300)
        observed = max(observed, abs(block) / dens_scale)
        bound = sup_bound if sup_bound is not None else 2.0 * max(observed, 1e-12)
        remainder = bound * tail_mass(hi)
        if abs(block) < 0.25 * tol and remainder < 0.5 * tol:
            return total
        lo = hi
    raise QuadratureFailure(f"tail integral from {a} did not converge")
