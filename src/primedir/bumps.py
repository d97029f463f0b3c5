"""Concrete smooth bump and cutoff functions, and the oscillatory profile V_k.

Only the support and plateau of the bump phi and the cutoff chi matter
structurally; this module pins one vetted pair so every downstream numeric
expectation is well defined:

* phi: the standard C-infinity bump c * exp(-1/(1 - (2t-3)^2)) supported on
  [1, 2], normalized so its integral is 1.  With this support, a scale-k
  average touches exactly the primes in [2^k, 2^(k+1)], and the total mass 1
  makes "multiplier at zero -> 1" the prime-number-theorem consistency check.
* chi: an even C-infinity cutoff equal to exactly 1 on |x| <= 1/4 and exactly
  0 on |x| >= 1/2, realized as a quotient of exponential cutoffs so the
  plateau and vanishing are exact, not approximate.
* chi_s(alpha) = chi(2^(10(s+4)) alpha), evaluated branch-first so huge s
  never overflows.
* v_k(k, alpha) = integral of e(2^k t alpha) phi(t) dt, by composite
  Gauss-Legendre with panel count proportional to the oscillation 2^k|alpha|.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import _turns
from .errors import PrecisionError

__all__ = [
    "eval_phi",
    "eval_chi",
    "chi_s",
    "v_k",
    "phi_deriv_l1",
]

_TWO_PI = 2.0 * math.pi
_QUADRATURE_POINTS = 16  # Gauss-Legendre order per panel of v_k
_MAX_PANELS = 1 << 21  # panel budget of v_k; beyond it the decay bound answers
_ABS_TOL = 1e-10  # absolute accuracy v_k is held to
_CHUNK_PANELS = 4096  # panels of v_k evaluated at once, so its memory does not grow with X


@lru_cache(maxsize=8)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _edge_nodes(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of Gauss-Legendre of the given order on each panel between edges."""
    x, w = _leggauss(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _raw_bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-(2t-3)^2)) on (1,2), 0 elsewhere; unnormalized."""
    u = 2.0 * np.asarray(t, dtype=np.float64) - 3.0
    return _h(1.0 - u * u)


@lru_cache(maxsize=1)
def _normalization_constant() -> float:
    nodes, weights = _edge_nodes(np.linspace(1.0, 2.0, 64 + 1), 24)
    return 1.0 / float(np.dot(weights, _raw_bump(nodes)))


def eval_phi(t):
    """The normalized bump phi(t) = c exp(-1/(1-(2t-3)^2)) on (1, 2), else 0.

    Accepts scalars or arrays.  c is fixed by quadrature so that the integral
    of phi over the line is 1 (to ~1e-14).
    """
    scalar = np.isscalar(t)
    out = _normalization_constant() * _raw_bump(np.atleast_1d(np.asarray(t, dtype=np.float64)))
    return float(out[0]) if scalar else out


def _h(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, exactly 0 for t <= 0."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def eval_chi(x):
    """Even C-infinity cutoff: exactly 1 on |x| <= 1/4, exactly 0 on |x| >= 1/2.

    chi(x) = h(2-4|x|) / (h(2-4|x|) + h(4|x|-1)) with h(t) = exp(-1/t) on t > 0.
    The symmetry point chi(3/8) = 1/2 is exact.
    """
    scalar = np.isscalar(x)
    ax = 4.0 * np.abs(np.atleast_1d(np.asarray(x, dtype=np.float64)))
    up, down = _h(2.0 - ax), _h(ax - 1.0)
    out = np.ones_like(ax)
    dead = up == 0.0
    out[dead] = 0.0
    mid = ~dead & (down > 0.0)
    out[mid] = up[mid] / (up[mid] + down[mid])
    return float(out[0]) if scalar else out


def chi_s(s: int, alpha: float) -> float:
    """chi(2^(10(s+4)) alpha), branch-decided without forming the huge product.

    Writing |alpha| = m 2^e with m in [1/2, 1), the scaled argument is
    m 2^(e + 10(s+4)); the integer exponent decides plateau (1) or support
    complement (0) exactly, and only the transition band evaluates chi.
    """
    if s < 0:
        raise ValueError("scale index must be >= 0")
    alpha = float(alpha)
    if alpha == 0.0 or math.isnan(alpha):
        return 1.0 if alpha == 0.0 else math.nan
    m, e = math.frexp(abs(alpha))
    shifted = e + 10 * (s + 4)
    if shifted >= 0:
        return 0.0
    if shifted <= -2:
        return 1.0
    # shifted == -1: scaled argument is m/2 in [1/4, 1/2).
    return eval_chi(m / 2.0)


# -- the oscillatory profile V_k ----------------------------------------------

@lru_cache(maxsize=1)
def phi_deriv_l1() -> tuple[float, float]:
    """(L1 norm of phi', L1 norm of phi''), by quadrature of the closed forms.

    These feed the rigorous decay bound |V_k(alpha)| <= ||phi^(n)||_1 /
    (2 pi 2^k |alpha|)^n used both in tests and to certify the analytic-zero
    shortcut for extreme oscillation.
    """
    nodes, weights = _edge_nodes(np.linspace(1.0, 2.0, 256 + 1), 16)
    u = 2.0 * nodes - 3.0
    g = _raw_bump(nodes)
    one_m = 1.0 - u * u
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = -2.0 * u / one_m**2
        w2 = -2.0 / one_m**2 - 8.0 * u * u / one_m**3
    w1 = np.where(g > 0, w1, 0.0)
    w2 = np.where(g > 0, w2, 0.0)
    c = _normalization_constant()
    # d/dt = 2 d/du ; phi' = 2c g w1, phi'' = 4c g (w2 + w1^2)
    l1_d1 = float(np.dot(weights, np.abs(2.0 * c * g * w1)))
    l1_d2 = float(np.dot(weights, np.abs(4.0 * c * g * (w2 + w1 * w1))))
    return l1_d1, l1_d2


def _phase(X: float, t: np.ndarray) -> np.ndarray:
    """(X t) mod 1 for 0 <= X <= 2^40 and nodes t in [1, 2], within 2^-52 of exact.

    X t = (t 2^52)(X 2^-52), and t 2^52 is an integer below 2^53, so _turns
    reduces it to within 2^-53 of the rounded exact value.
    """
    return _turns(np.ldexp(t, 52).astype(np.int64), math.ldexp(X, -52))


def _oscillatory_integral(X: float) -> complex:
    """integral over [1,2] of e(X t) phi(t) dt for X >= 0, phases reduced by _phase.

    The panels are cut from one set of edges over [1, 2] and summed
    _CHUNK_PANELS at a time.
    """
    n_panels = max(16, math.ceil(2.0 * abs(X)) + 8)  # v_k keeps this within _MAX_PANELS
    edges = np.linspace(1.0, 2.0, n_panels + 1)
    total = 0j
    for lo in range(0, n_panels, _CHUNK_PANELS):
        nodes, weights = _edge_nodes(edges[lo:lo + _CHUNK_PANELS + 1], _QUADRATURE_POINTS)
        # X t reaches about 2^21, where a float64 product errs by up to 2e-10 turns
        phase = _phase(X, nodes)
        total += complex(np.dot(weights, _raw_bump(nodes) * np.exp(2j * math.pi * phase)))
    return _normalization_constant() * total


def v_k(k: int, alpha: float) -> complex:
    """V_k(alpha) = integral of e(2^k t alpha) phi(t) dt, to ~1e-10 absolute.

    Depends on alpha only through X = 2^k alpha.  Oscillation is resolved with
    about two Gauss-Legendre panels per period; beyond the panel budget the
    two-step integration-by-parts bound ||phi''||_1 / (2 pi X)^2 either
    certifies the value as 0 within tolerance or a PrecisionError is raised.
    """
    if k < 0:
        raise ValueError("scale must be >= 0")
    X = math.ldexp(float(alpha), k)
    aX = abs(X)
    if aX > math.ldexp(1.0, 40):
        raise PrecisionError(f"|2^k alpha| = {aX:.3g} beyond the supported 2^40 cap")
    needed = math.ceil(2.0 * aX) + 8
    if needed > _MAX_PANELS:
        _, l1_d2 = phi_deriv_l1()
        bound = l1_d2 / (_TWO_PI * aX) ** 2
        if bound < 0.01 * _ABS_TOL:
            return 0.0 + 0.0j
        raise PrecisionError(
            f"oscillation 2^k|alpha| = {aX:.3g} needs {needed} panels, budget {_MAX_PANELS}"
        )
    if X < 0:
        return _oscillatory_integral(-X).conjugate()
    return _oscillatory_integral(X)
