"""Quadrature rules of the internal helpers."""
import numpy as np

from sdelab._quad import gauss_kronrod, gauss_legendre

# QUADPACK's qk15 (Piessens et al. 1983): the 7-point Gauss rule and its
# Kronrod extension, nodes xgk in decreasing order down to 0, weights wgk
_QK15_X = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
           0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
           0.207784955007898468, 0.0)
_QK15_W = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
           0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
           0.204432940075298892, 0.209482141084727828)


def _mirrored(half, sign):
    half = np.asarray(half)
    return np.concatenate([sign * half, half[-2::-1]])


class TestGaussKronrod:
    def test_matches_quadpack_qk15(self):
        x, w = gauss_kronrod(7)
        assert np.max(np.abs(x - _mirrored(_QK15_X, -1.0))) < 1e-14
        assert np.max(np.abs(w - _mirrored(_QK15_W, 1.0))) < 1e-14

    def test_k17_exact_to_degree_25(self):
        x, w = gauss_kronrod(8)
        for d in range(26):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(w @ x**d - exact) < 1e-13, d

    def test_k17_extends_the_gauss_rule(self):
        x, w = gauss_kronrod(8)
        assert len(x) == 17
        assert np.array_equal(x[1::2], gauss_legendre(8)[0])
        assert np.all(np.diff(x) > 0)  # the new nodes strictly interlace
        assert np.all(w > 0)
