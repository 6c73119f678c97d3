"""Internal quadrature helpers.

Cached Gauss-Legendre and Gauss-Kronrod rules serve the mollifier blocks
and the nonlocal integrals.  No integral in the lab needs an adaptive
routine: the jump kernels' masses are closed forms or atom sums, and the
mollifier is a Gaussian with a closed-form normalisation.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


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
