"""Circle-method multiplier engine for log-weighted prime averages.

The scale-k multiplier is

    m_k(alpha) = sum over primes p of e(-p alpha) 2^(-k) phi(2^(-k) p) log p,

supported on p in [2^k, 2^(k+1)] by the bump's support.  Near a reduced
fraction a/q it is approximated by the main term mu(q)/phi(q) V_k(alpha - a/q),
and this module evaluates all the computable objects of that approximation:

* m_k pointwise (pairwise summation, phases reduced in 64-bit integers),
  on equispaced grids via a fold-then-FFT fast path, and at reduced fractions
  via residue folding;
* the main term L_k = sum over levels s of L_{k,s}, which is a single
  cutoff-localized term at the last continued-fraction convergent of alpha
  below the level cap;
* the error profile E_k = m_k - L_k swept over a grid, with CSV output;
* major/minor arc classification (exact, via the minimal-denominator
  fraction in an interval): the major arc's fraction a/q, or None.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bumps
from .arith import PrimeTable, _turns, convergents, mobius, totient
from .bumps import chi_s, v_k

__all__ = [
    "MultiplierProfile",
    "ErrorProfileRow",
    "ErrorProfileResult",
    "prime_weights",
    "fold_weights",
    "m_k",
    "m_k_grid",
    "m_k_naive_grid",
    "m_k_at_denominator",
    "L_k",
    "default_s_max",
    "error_profile",
    "write_error_profile_csv",
    "classify_arc",
    "simplest_in_interval",
]

DEFAULT_D = 17.0  # smallest integer above the 2^4 hypothesis threshold
S_MAX_CAP = 22


# -- weights -------------------------------------------------------------------

def prime_weights(k: int, table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    """Primes p in [2^k, 2^(k+1)] and their weights 2^(-k) phi(2^(-k) p) log p,
    for a scale k >= 0."""
    if k < 0:
        raise ValueError("scale must be >= 0")
    primes, logs = table.slice_for_scale(k)
    scale = math.ldexp(1.0, -k)
    return primes, scale * bumps.eval_phi(scale * primes.astype(np.float64)) * logs


def fold_weights(k: int, n: int, table: PrimeTable) -> np.ndarray:
    """The scale-k weights summed by prime residue mod n: entry r is the total
    weight of the primes p = r (mod n)."""
    if n < 1:
        raise ValueError("fold modulus must be >= 1")
    return _fold(*prime_weights(k, table), n)


def _fold(primes: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """The weights w of primes summed by residue mod n."""
    return np.bincount((primes % n).astype(np.int64), weights=w, minlength=n)


# -- m_k evaluation ------------------------------------------------------------

def m_k(k: int, alpha, table: PrimeTable) -> complex:
    """m_k(alpha), summed by numpy's pairwise reduction (absolute error about
    1e-15 at the desk scales, well under 1e-10 sqrt(#terms)).

    Rational alpha (a Fraction) takes an exact-phase path: e(-p a/q) depends
    only on p a mod q, so residues fold exactly.  Float alpha reduces each
    p |alpha| mod 1 in 64-bit integers (arith._turns): the phase is the
    exact one rounded once whenever |alpha| >= 2^-12, and within 2^-53 of it
    below.  The sign goes on after the reduction, so m_k(-alpha) is
    m_k(alpha).conjugate() exactly.
    """
    if isinstance(alpha, Fraction):
        q = alpha.denominator
        if q <= 1 << 16:  # larger denominators gain nothing over the float path
            res = np.arange(q) * (alpha.numerator % q) % q
            return complex((fold_weights(k, q, table) * np.exp(-2j * np.pi * res / q)).sum())
        alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    primes, w = prime_weights(k, table)
    phase = _turns(primes, abs(alpha))
    return complex((w * np.exp((2j if alpha < 0 else -2j) * np.pi * phase)).sum())


def m_k_grid(k: int, L: int, table: PrimeTable) -> np.ndarray:
    """m_k at all grid frequencies j/L, j = 0..L-1, via the folded DFT.

    e(-p j/L) depends only on p mod L, so folding the weight sequence modulo L
    and taking one length-L DFT yields every sample: O(#primes + L log L)
    instead of O(L * #primes).  Phases are exact by construction.
    """
    return np.fft.fft(fold_weights(k, L, table))


def m_k_naive_grid(k: int, L: int, table: PrimeTable) -> np.ndarray:
    """m_k at j/L by per-point prime summation (the benchmark baseline).

    Chunked over grid points; each point costs one pass over the scale-k
    primes, which is exactly the cost profile the folded path removes.
    """
    primes, w = prime_weights(k, table)
    p_ld = primes.astype(np.longdouble)
    out = np.empty(L, dtype=np.complex128)
    chunk = max(1, (1 << 22) // max(len(primes), 1))
    for start in range(0, L, chunk):
        js = np.arange(start, min(start + chunk, L))
        phase = np.mod(p_ld[None, :] * (js[:, None].astype(np.longdouble) / np.longdouble(L)), 1.0)
        out[js] = (w[None, :] * np.exp(-2j * np.pi * phase.astype(np.float64))).sum(axis=1)
    return out


# m_k(a/q) for every residue a = 0..q-1 at once (exact phases): the same folded
# DFT at L = q; index the result at coprime a to read off the values over the
# reduced fractions a/q.
m_k_at_denominator = m_k_grid


# -- the main term L_k ----------------------------------------------------------

_ONE_TERM_MAX_LEVEL = 38  # where the one-term proof of L_k stops


def _last_convergent(alpha, s_max: int) -> tuple[Fraction, int, int]:
    """(alpha mod 1, p, q) for the last convergent p/q of alpha mod 1 with q < 2^(s_max+1)."""
    if s_max > _ONE_TERM_MAX_LEVEL:
        raise ValueError(f"level {s_max} > {_ONE_TERM_MAX_LEVEL}, where the one-term proof stops")
    alpha = Fraction(alpha) % 1
    if alpha.denominator < 1 << (s_max + 1):  # a rational's last convergent is itself
        return alpha, alpha.numerator, alpha.denominator
    p, q = convergents(alpha, (1 << (s_max + 1)) - 1)[-1]
    return alpha, p, q


def _term_value(k: int, alpha: Fraction, p: int, q: int) -> complex:
    """mu(q)/phi(q) V_k(alpha - p/q) chi_s(alpha - p/q) at the level s of q."""
    delta = alpha - Fraction(p, q)
    cut = chi_s(q.bit_length() - 1, float(delta))
    if cut == 0.0:
        return 0.0 + 0.0j
    # adding to 0j turns -0.0 parts into +0.0, so a zero term has one sign
    return 0j + (mobius(q) / totient(q)) * v_k(k, float(delta)) * cut


def default_s_max(k: int, D: float = DEFAULT_D) -> tuple[int, bool]:
    """Smallest s with 2^(s+1) > k^D, capped at S_MAX_CAP; returns (s_max, truncated)."""
    if k < 2:
        return 0, False
    want = math.ceil(D * math.log2(k)) if D * math.log2(k) > 0 else 0
    return (want, False) if want <= S_MAX_CAP else (S_MAX_CAP, True)


def L_k(k: int, alpha, s_max: int | None = None) -> complex:
    """L_k(alpha) = sum over s <= s_max of L_{k,s}(alpha), which is one term.

    Fractions p/q, p'/q' at levels s <= s' lie more than 2^-(s+s'+2) apart,
    but both inside their chi_s supports they would lie within 2^-(10s+40);
    for s' <= s_max <= 38 the two cannot both hold.  Each later convergent
    is closer, so only the last convergent with q < 2^(s_max+1) contributes.

    Periodic by construction (alpha is reduced to its fractional part before
    the convergent walk).  ``s_max`` defaults to the smallest s whose level
    covers all major-arc denominators at D = 17, capped at S_MAX_CAP; the cap
    exists because the truncated tail is absorbed into the measured error
    term anyway.
    """
    if s_max is None:
        s_max, _ = default_s_max(k)
    return _term_value(k, *_last_convergent(alpha, s_max))


# -- profiles and the error sweep ------------------------------------------------

@dataclass(frozen=True)
class MultiplierProfile:
    """A sampled multiplier profile on the torus: kind 'm' or 'L'."""

    kind: str
    k: int
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("m", "L"):
            raise ValueError(f"profile kind must be m or L, got {self.kind!r}")
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must align")


@dataclass
class ErrorProfileRow:
    k: int
    D: float
    sup_abs_E: float
    sup_minor_m: float
    argmax_alpha: float
    s_max: int
    truncated: bool
    wall_ms: float


@dataclass
class ErrorProfileResult:
    rows: list[ErrorProfileRow]
    profiles: list[MultiplierProfile]  # the m and the L profile of each k, in that order
    grid_fractions: list[Fraction]


_GRID_Q = 128  # the grid holds every reduced a/q with q < 128: the Farey levels s <= 6


def _profile_grid(grid_size: int) -> list[Fraction]:
    """Every reduced a/q in [0, 1) with q < _GRID_Q, plus the j/grid_size, sorted.

    The points are built as reduced integer pairs and sorted by the float
    a/q.  That key is exact: two distinct points differ by at least
    1/(127 max(127, grid_size)), above the float spacing 2^-53 near 1 for
    every grid below 2^46 points.
    """
    pairs = {(a, q) for q in range(1, _GRID_Q) for a in range(q) if math.gcd(a, q) == 1}
    for j in range(grid_size):
        g = math.gcd(j, grid_size)
        pairs.add((j // g, grid_size // g))
    return [Fraction(a, q) for a, q in sorted(pairs, key=lambda p: p[0] / p[1])]


def error_profile(
    k_values,
    D: float,
    grid_size: int,
    table: PrimeTable,
    arc_D: float | None = None,
) -> ErrorProfileResult:
    """Sweep sup |m_k - L_k| over a fraction-heavy grid for each k.

    The grid holds every reduced fraction of levels s <= 6 plus a uniform fill
    of ``grid_size`` points, built once per call from integer pairs.  m_k is
    evaluated with exact phases: each k's prime weights are read once and
    folded mod every denominator of the grid, one DFT each.  ``arc_D`` controls
    the exponent used for the per-arc breakdown column only: under the
    error-bound hypothesis D > 16 the desk-scale minor arcs are empty (the arc
    radius 2^(-k) k^D exceeds 1 for every k <= 24), so diagnosing minor-arc
    behavior requires a smaller classification exponent.

    L_k is taken in closed form, one value per denominator: at a grid point
    a/q it is mu(q)/phi(q) V_k(0) when q < 2^(s_max+1), else 0, which is
    what ``L_k(k, a/q, s_max)`` returns.  Below the cap, a/q is its own last
    convergent, so delta = 0, chi_s(0) = 1 and ``_term_value`` forms this
    product.  Above it, the last convergent p'/q' differs from a/q and has
    q' < 2^(s'+1) at its level s', so |delta| >= 1/(q q') > 2^-(s'+1) / q;
    for q <= 2^40 that puts 2^(10(s'+4)) |delta| at or past 1/2, where
    chi_s is 0.  A grid of 2^40 points does not fit in memory.

    Raises
    ------
    ValueError
        If D <= 16 (the main-term approximation requires D > 2^4).
    """
    if D <= 16:
        raise ValueError("error profile requires D > 16 (main-term approximation needs D > 2^4)")
    if arc_D is None:
        arc_D = D
    grid = _profile_grid(grid_size)
    by_den: dict[int, list[int]] = {}
    for idx, fr in enumerate(grid):
        by_den.setdefault(fr.denominator, []).append(idx)

    rows: list[ErrorProfileRow] = []
    profiles: list[MultiplierProfile] = []
    grid_arr = np.array([float(f) for f in grid])
    for k in k_values:
        t0 = time.perf_counter()
        m_vals = np.empty(len(grid), dtype=np.complex128)
        l_vals = np.empty(len(grid), dtype=np.complex128)
        primes, w = prime_weights(k, table)
        sm, truncated = default_s_max(k, D)
        vk0 = v_k(k, 0.0)
        for q, idxs in by_den.items():
            dft = np.fft.fft(_fold(primes, w, q))
            for idx in idxs:
                m_vals[idx] = dft[grid[idx].numerator]
            # 0j + as in _term_value, so each zero part has L_k's sign
            l_vals[idxs] = 0j + mobius(q) / totient(q) * vk0 if q < 1 << (sm + 1) else 0j
        abs_e = np.abs(m_vals - l_vals)
        imax = int(np.argmax(abs_e))
        minor_mask = np.array([classify_arc(fr, k, arc_D) is None for fr in grid])
        sup_minor = float(np.max(np.abs(m_vals[minor_mask]))) if minor_mask.any() else math.nan
        wall = (time.perf_counter() - t0) * 1e3
        profiles.extend([MultiplierProfile("m", k, grid_arr, m_vals),
                         MultiplierProfile("L", k, grid_arr, l_vals)])
        rows.append(
            ErrorProfileRow(
                k=k,
                D=D,
                sup_abs_E=float(abs_e[imax]),
                sup_minor_m=sup_minor,
                argmax_alpha=float(grid_arr[imax]),
                s_max=sm,
                truncated=truncated,
                wall_ms=wall,
            )
        )
    return ErrorProfileResult(rows=rows, profiles=profiles, grid_fractions=grid)


def write_error_profile_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema", "primedir.error_profile.v2"])
        writer.writerow(
            ["k", "D", "sup_abs_E", "sup_minor_m", "argmax_alpha", "s_max", "truncated", "wall_ms"]
        )
        for r in rows:
            writer.writerow([r.k, r.D, r.sup_abs_E, r.sup_minor_m, r.argmax_alpha,
                             r.s_max, r.truncated, r.wall_ms])


# -- arcs ------------------------------------------------------------------------

def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """A fraction with smallest denominator in the closed interval [lo, hi].

    Stern-Brocot descent; exact.  For intervals shorter than 1 the minimizer
    is unique; for lo == hi the point itself is returned.
    """
    if lo > hi:
        raise ValueError("empty interval")
    lo, hi = Fraction(lo), Fraction(hi)
    # accumulate the continued-fraction prefix shared by lo and hi
    prefix: list[int] = []
    while True:
        n = math.floor(lo)
        if n + 1 <= hi:  # an integer lies inside
            best = Fraction(n if lo <= n else n + 1)
            break
        if lo == n:  # lo itself integral
            best = Fraction(n)
            break
        prefix.append(n)
        lo, hi = 1 / (hi - n), 1 / (lo - n)
    for n in reversed(prefix):
        best = n + 1 / best
    return best


def classify_arc(alpha, k: int, D: float) -> Fraction | None:
    """Major/minor arc classification at scale k and exponent D.

    alpha is major when some reduced a/q with q <= k^D lies within
    2^(-k) k^D; the returned fraction is the minimal-denominator fraction in
    that window (unique once k is large enough that windows disjoint),
    reduced to [0, 1).  A minor alpha returns None; the major fraction 0 is
    falsy, so callers test ``is None``.  All
    comparisons are exact: the minimal-denominator fraction in the window is
    found by Stern-Brocot descent, so "no qualifying fraction" is a proof.

    alpha is not reduced mod 1: the whole-torus answer does not read it,
    and the descent reads its window [lo, hi] only through n = floor(lo),
    lo - n and hi - n, and returns n plus a function of the last two.  So
    an integer shift of alpha shifts the fraction by that integer, and
    neither its denominator nor its value mod 1 changes.
    """
    if D <= 0:
        raise ValueError("arc exponent must be positive")
    if k < 1:
        raise ValueError("scale must be >= 1")
    a = Fraction(alpha)  # refuses NaN and infinities before any branch
    log2_kD = D * math.log2(k) if k > 1 else 0.0
    if log2_kD - k >= 1.0:  # radius >= 2: the whole torus is one major arc
        return Fraction(0)
    if float(D).is_integer():
        kD_int = k ** int(D)
        radius = Fraction(kD_int, 1 << k)
    else:
        kD_int = math.floor(k**D)
        radius = Fraction(math.floor((k**D) * 2**53)) / (1 << (k + 53))
    best = simplest_in_interval(a - radius, a + radius)
    if best.denominator <= kD_int:
        return best % 1
    return None
