"""Arithmetic substrate: primes, Mobius/totient, exponential sums, convergents.

Everything downstream (multiplier weights mu(q)/phi(q), prime-indexed
exponential sums, the convergent walk of the main term) sits on this
module.  The Ramanujan-sum identity

    sum_{(a,q)=1} e(na/q)      = mu(q/g) phi(q) / phi(q/g),  g = gcd(n, q)

is evaluated symbolically so it can serve as an exact oracle for the
floating-point paths.
"""

from __future__ import annotations

import bisect
import cmath
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParseError

__all__ = [
    "PrimeTable",
    "sieve_primes",
    "save_prime_table",
    "load_prime_table",
    "mobius",
    "totient",
    "factorize",
    "ramanujan_sum",
    "ramanujan_sum_bruteforce",
    "is_prime_certified",
    "MR_DETERMINISTIC_BOUND",
    "convergents",
]

@dataclass(frozen=True)
class PrimeTable:
    """Immutable sieve artifact: all primes <= limit with their log weights.

    Attributes
    ----------
    limit : int
        Inclusive sieving bound.
    primes : np.ndarray
        Ascending int64 array of every prime <= limit.
    log_weights : np.ndarray
        float64 array, log_weights[i] = ln(primes[i]).
    """

    limit: int
    primes: np.ndarray
    log_weights: np.ndarray

    def slice_for_scale(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Primes (and log weights) in [2^k, 2^(k+1)], the support of a scale-k average."""
        if self.limit < 2 ** (k + 1):
            raise ValueError(
                f"prime table limit {self.limit} < 2^{k + 1}; re-sieve with a larger limit"
            )
        lo = np.searchsorted(self.primes, 2**k, side="left")
        hi = np.searchsorted(self.primes, 2 ** (k + 1), side="right")
        return self.primes[lo:hi], self.log_weights[lo:hi]


def sieve_primes(limit: int) -> PrimeTable:
    """Odd-only sieve of Eratosthenes up to ``limit`` (inclusive), in one pass.

    One bool flag per odd number, flag i standing for 2i + 1, so 2^25 (the
    table of scale k = 24) needs 16 MiB of flags.

    Raises
    ------
    ValueError
        If limit < 2.
    """
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    flags = np.ones((limit + 1) // 2, dtype=bool)
    flags[0] = False  # 1 is not prime
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p // 2]:
            flags[p * p // 2 :: p] = False
    primes = np.concatenate(([2], 2 * np.flatnonzero(flags) + 1)).astype(np.int64)
    return PrimeTable(limit=limit, primes=primes, log_weights=np.log(primes.astype(np.float64)))


# -- table file: magic "PDPT", version byte, u64-le limit, u64-le primes -----

_PT_MAGIC = b"PDPT"
_PT_VERSION = 1


def save_prime_table(table: PrimeTable, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_PT_MAGIC)
        fh.write(bytes([_PT_VERSION]))
        fh.write(struct.pack("<Q", table.limit))
        fh.write(table.primes.astype("<u8").tobytes())


def load_prime_table(path) -> PrimeTable:
    """Load a saved sieve, revalidating the header and the final entry.

    Raises ParseError on malformed headers and ValueError when the content
    fails revalidation (non-monotone entries, final entry composite or
    beyond the recorded limit).
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head != _PT_MAGIC:
            raise ParseError(f"{path}: bad magic {head!r} at offset 0")
        ver = fh.read(1)
        if ver != bytes([_PT_VERSION]):
            raise ParseError(f"{path}: unsupported version {ver!r} at offset 4")
        (limit,) = struct.unpack("<Q", fh.read(8))
        raw = fh.read()
    primes = np.frombuffer(raw, dtype="<u8").astype(np.int64)
    if primes.size == 0:
        raise ValueError(f"{path}: empty prime table")
    if not np.all(np.diff(primes) > 0):
        raise ValueError(f"{path}: prime entries not strictly increasing")
    last = int(primes[-1])
    if last > limit:
        raise ValueError(f"{path}: final entry {last} exceeds recorded limit {limit}")
    if not is_prime_certified(last):
        raise ValueError(f"{path}: final entry {last} is not prime; cache corrupt")
    return PrimeTable(limit=int(limit), primes=primes, log_weights=np.log(primes.astype(np.float64)))


# -- multiplicative functions -------------------------------------------------

def factorize(q: int) -> list[tuple[int, int]]:
    """Prime factorization of q >= 1 by trial division, as (p, exponent) pairs."""
    if q < 1:
        raise ValueError("factorize expects q >= 1")
    out = []
    for p in (2, 3):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            out.append((p, e))
    # wheel over 6k +- 1
    p = 5
    while p * p <= q:
        for cand in (p, p + 2):
            if q % cand == 0:
                e = 0
                while q % cand == 0:
                    q //= cand
                    e += 1
                out.append((cand, e))
        p += 6
    if q > 1:
        out.append((q, 1))
    return out


def mobius(q: int) -> int:
    """Mobius function mu(q): 0 on non-squarefree q, else (-1)^(#prime factors)."""
    if q < 1:
        raise ValueError("mobius expects q >= 1")
    if q == 1:
        return 1
    facs = factorize(q)
    if any(e > 1 for _, e in facs):
        return 0
    return -1 if len(facs) % 2 else 1


def totient(q: int) -> int:
    """Euler totient phi(q)."""
    if q < 1:
        raise ValueError("totient expects q >= 1")
    out = q
    for p, _ in factorize(q):
        out -= out // p
    return out


# -- exponential sums ----------------------------------------------------------

def _turns(n, x) -> np.ndarray:
    """(n x) mod 1 for integers 0 <= n < 2^63 and finite floats x >= 0, in uint64.

    x mod 1 is (hi + lo) 2^-64 with hi an integer and 0 <= lo < 1.  n hi wraps
    mod 2^64 in uint64, which is the reduction, and floor(n lo) joins it
    there.  The result is an array of at least one dimension, in [0, 1].  It
    equals float((n Fraction(x)) % 1) when x 2^64 is an integer (every
    x >= 2^-12), and lies within 2^-53 of it mod 1 otherwise, for n < 2^53.
    """
    n = np.atleast_1d(n)  # uint64 arithmetic on numpy scalars warns when it wraps
    x = np.asarray(x, dtype=np.float64)
    scaled = np.ldexp(x - np.floor(x), 64)
    hi = np.floor(scaled)
    low = n * (scaled - hi)
    top = np.floor(low)
    wrapped = n.astype(np.uint64) * hi.astype(np.uint64) + top.astype(np.uint64)
    return np.ldexp(wrapped.astype(np.float64) + (low - top), -64)


def ramanujan_sum(q: int, n: int) -> int:
    """Ramanujan sum c_q(n) by the closed form mu(q/g) phi(q) / phi(q/g), g = gcd(n, q)."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    g = math.gcd(n, q)
    qg = q // g
    return mobius(qg) * totient(q) // totient(qg)


def ramanujan_sum_bruteforce(q: int, n: int) -> float:
    """c_q(n) by direct summation over coprime residues (cross-validation route)."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    total = 0.0 + 0.0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            total += cmath.exp(2j * cmath.pi * ((n * a) % q) / q)
    return total.real


# -- primality -----------------------------------------------------------------

# psi_t, the least strong pseudoprime to all of the first t prime bases
# (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2017): below psi_t those
# t bases decide primality.  psi_13, where the 13 bases 2 .. 41 stop deciding,
# is the bound; the first 12 bases are also the trial divisors.
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, MR_DETERMINISTIC_BOUND)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROBABILISTIC_ROUNDS = 64  # failure probability < 4^-64 = 2^-128


def _mr_witness(n: int, a: int) -> bool:
    """True if a witnesses n composite."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime_certified(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below MR_DETERMINISTIC_BOUND.

    Trial division by the primes up to 37 comes first; then n takes the
    first t bases of 2, 3, 5, ..., 41, t the least index with psi_t > n
    (one base below 2047).  From the bound up the test runs 64 pseudo-random
    bases derived deterministically from n (failure probability < 2^-128).

    Raises
    ------
    ValueError
        If n < 2.
    """
    if n < 2:
        raise ValueError("primality test expects n >= 2")
    for p in _MR_WITNESSES[:12]:  # trial division by the primes up to 37
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < MR_DETERMINISTIC_BOUND:
        t = bisect.bisect_right(_PSI, n) + 1
        return not any(_mr_witness(n, a) for a in _MR_WITNESSES[:t])
    import random

    rng = random.Random(n ^ 0x9E3779B97F4A7C15)
    bases = [rng.randrange(2, n - 1) for _ in range(_PROBABILISTIC_ROUNDS)]
    return not any(_mr_witness(n, a) for a in bases)


# -- continued fractions -------------------------------------------------------

def convergents(x: Fraction, max_den: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents (p, q) of x with q <= max_den, in order.

    Exact for Fraction input.  Any fraction within 1/(2 q^2) of x is among
    these, which is what the multiplier module relies on: its cutoff supports
    are far narrower than that, so nearest-fraction searches reduce to a
    convergent walk.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    x = Fraction(x)
    out: list[tuple[int, int]] = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = math.floor(x), 1
    rem = x - math.floor(x)
    out.append((p_cur, q_cur))
    while rem != 0:
        x = 1 / rem
        a = math.floor(x)
        rem = x - a
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        if q_cur > max_den:
            break
        out.append((p_cur, q_cur))
    return out
