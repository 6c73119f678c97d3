"""Internal quadrature helpers.

Cached Gauss-Legendre and Gauss-Kronrod rules serve the mollifier blocks
and the nonlocal integrals.  ``quad_checked`` (QUADPACK with an error
check) serves the one scalar integral left, the normalising constant of
the ``bump`` mollifier; the jump kernels need none: their masses are
closed forms or atom sums.  It imports scipy when called, so that
importing sdelab and every default run load no scipy module.
"""
from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

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
    from scipy.integrate import IntegrationWarning, quad
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

