"""Explicit direction families with prime-structured coordinates, in exact arithmetic.

A family of N plane vectors is built component-wise as

    v_i = (m_i, n_i) * Q_i * (p_{i,1} ... p_{i,kappa}) / R

where (m_i, n_i) are lattice points in an annulus of radius ~N^2 with slope
in [1/4, 1/2] and pairwise non-parallel, the p's are kappa distinct primes
drawn from a common window, Q_i = 2^(e_i) is a dyadic normalizer placing
|v_i| in [1/10, 10], and R is the integer window scale.  Rescaling by a
suitable integer multiple of R * prod(Q_i^{-1} : Q_i <= 1) clears every
denominator at once, landing the family in an integer annulus of radius ~A.

Two parameter modes share the construction code:

* strict: the window is the smallest ceil(N^(eps/2)) primes in
  [N^(M/eps), 10 N^(M/eps)] and R = N^(M kappa / eps) (eps nudged so R is an
  integer).  These formulas only become non-vacuous for astronomically large
  N, so strict mode mostly exercises the error paths at desk scale.
* toy: window base and count are free knobs (defaults chosen so kappa >= 2
  once N allows it), and R is base^kappa.  Same invariants, same validation.

All construction and validation is exact: Fractions and big integers only,
no floating point.  Each direction v_i is an (x, y) pair of Fractions, the
form the incidence scans take their tube directions in.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .arith import is_prime_certified
from .errors import (ConstructionError, Field, ParseError, integer, items, json_int, json_object,
                     nullable, one_of, rational, read_fields, record, typed, write_fields)

__all__ = [
    "DirectionSpec",
    "VectorRecord",
    "DirectionSet",
    "choose_kappa",
    "choose_prime_window",
    "select_mn_pairs",
    "construct_directions",
    "rescale_to_integers",
    "validate_direction_set",
    "min_angle",
    "MinAngleResult",
    "serialize",
    "deserialize",
    "save_direction_set",
    "load_direction_set",
]


@dataclass(frozen=True)
class DirectionSpec:
    """Parameters of one construction run.

    C0 governs the integer-annulus radius target A ~ N^C0; C1 overrides the
    tube thickness exponent handed to incidence scans (None derives the
    thickness from A at scan time, mirroring "C1 sufficiently large depending
    on A").  window_base and window_count override the prime window in toy
    mode.
    """

    N: int
    eps: float
    M: int = 2
    mode: str = "toy"
    seed: int = 0
    C0: int = 3
    C1: int | None = None
    window_base: int | None = None
    window_count: int | None = None

    def __post_init__(self):
        if not all(type(x) is int for x in (self.N, self.M, self.seed, self.C0)):
            raise TypeError("N, M, seed and C0 must be integers")
        if self.N < 2:
            raise ValueError("family size N must be >= 2")
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        if self.mode not in ("toy", "strict"):
            raise ValueError(f"mode must be 'toy' or 'strict', got {self.mode!r}")
        if self.M < 1:
            raise ValueError("window exponent M must be >= 1")


@dataclass(frozen=True)
class VectorRecord:
    """One constructed direction with its full provenance."""

    m: int
    n: int
    q_exponent: int  # Q_i = 2^q_exponent
    prime_subset: tuple[int, ...]  # indices into the prime window
    v: tuple[Fraction, Fraction]  # (x, y)


@dataclass(frozen=True)
class DirectionSet:
    spec: DirectionSpec
    kappa: int
    prime_window: tuple[int, ...]
    scale_denominator: int  # R: the integer the prime products are divided by
    eps_adjusted: float | None
    vectors: tuple[VectorRecord, ...]
    A: int | None = None
    A_tilde: int | None = None
    integer_vectors: tuple[tuple[int, int], ...] | None = None

    def prime_product(self, i: int) -> int:
        return math.prod(self.prime_window[idx] for idx in self.vectors[i].prime_subset)

    def y_factor(self, i: int) -> int:
        """(v_i)_y * R / Q_i = n_i * (prime product): the integer whose prime
        structure drives the pair-selection argument."""
        return self.vectors[i].n * self.prime_product(i)


def choose_kappa(window_size: int, N: int) -> int:
    """Smallest kappa with C(window_size, kappa) >= N distinct prime subsets."""
    if window_size < 1:
        raise ConstructionError("prime window is empty")
    for kappa in range(1, window_size + 1):
        if math.comb(window_size, kappa) >= N:
            return kappa
    raise ConstructionError(
        f"window of {window_size} primes admits only "
        f"{math.comb(window_size, window_size // 2)} subsets < N = {N}; "
        "enlarge the window (toy: window_count; strict: increase M)"
    )


def _primes_from(lo: int, count: int, hi: int) -> list[int]:
    """The smallest ``count`` primes in [lo, hi]; ConstructionError if exhausted."""
    out: list[int] = []
    p = max(2, lo)
    while len(out) < count:
        if p > hi:
            raise ConstructionError(
                f"prime window [{lo}, {hi}] exhausted after {len(out)} of {count} primes; "
                "raise the window exponent M"
            )
        if is_prime_certified(p):
            out.append(p)
        p += 1 if p == 2 else 2 if p % 2 == 1 else 1
    return out


def _window_params(spec: DirectionSpec) -> tuple[int, int]:
    """(base, count) of the prime window for either mode."""
    if spec.mode == "strict":
        exp = spec.M / spec.eps
        base = spec.N ** round(exp) if abs(exp - round(exp)) < 1e-12 else math.ceil(spec.N**exp)
        count = math.ceil(spec.N ** (spec.eps / 2))
        return base, count
    base = spec.window_base if spec.window_base is not None else 1000
    if spec.window_count is not None:
        count = spec.window_count
    else:
        # smallest window affording kappa = 2 subsets (falls back to kappa = 1
        # for tiny N, where C(w, 2) >= N forces w >= N anyway)
        count = 3
        while math.comb(count, 2) < spec.N:
            count += 1
    return base, count


def choose_prime_window(spec: DirectionSpec) -> list[int]:
    """The prime window P: smallest ``count`` certified primes in [base, 10 base]."""
    base, count = _window_params(spec)
    return _primes_from(base, count, 10 * base)


def _inner_row(N: int) -> int:
    """The annulus' inner edge: the least m with 100 (m^2 + floor(m/2)^2) >= N^4.

    floor(m/2) is the largest n of row m and m^2 + floor(m/2)^2 grows with m,
    so no row below holds a candidate.  The least m with 125 m^2 >= N^4 is a
    lower bound, and the edge is it or the next row, since
    (m+1)^2 + floor((m+1)/2)^2 > 5 m^2 / 4.
    """
    m = math.isqrt((N**4 - 1) // 125) + 1
    return m if 100 * (m * m + (m // 2) ** 2) >= N**4 else m + 1


def _annulus_candidates(N: int) -> list[tuple[int, int]]:
    """The canonical candidates: rows m ascending from the inner edge, in each
    row n ascending with slope n/m in [1/4, 1/2] and 100 (m^2 + n^2) >= N^4,
    until a row ends with at least max(64, 4N) of them."""
    cands: list[tuple[int, int]] = []
    r = -(-(N**4) // 100)  # 100 (m^2 + n^2) >= N^4 iff m^2 + n^2 >= r
    m = _inner_row(N)
    while len(cands) < max(64, 4 * N):
        n_in = math.isqrt(r - m * m - 1) + 1 if r > m * m else 0  # least n with m^2 + n^2 >= r
        cands.extend((m, n) for n in range(max((m + 3) // 4, n_in), m // 2 + 1))
        m += 1
    return cands


def select_mn_pairs(N: int, seed: int) -> list[tuple[int, int]]:
    """N lattice pairs (m, n): slope in [1/4, 1/2], radius in [N^2/10, 10 N^2],
    pairwise non-parallel.

    The candidates of ``_annulus_candidates`` are shuffled by the seed, then
    filtered greedily by exact cross products, which keeps the first member of
    each slope class.  Deterministic given (N, seed).

    Proof that the one scan holds at least N slope classes, so the filter
    always returns N pairs.  For N < N0 = 400 a test counts the classes (at
    least 3.5 N) and checks that the scan's last row lies inside the outer
    radius.  For N >= 400 write R = N^2/10 and D = ceil(4 sqrt(N/5)); let the
    scan run over rows m0..m1.

    (a) m0 < 2R/sqrt(5) + 2 (``_inner_row``: 125 m^2 >= N^4 means
        m >= 2R/sqrt(5)).
    (b) m1 <= m0 + D.  Row m = m0 + d holds every n from max(m/4, h) to m/2,
        with h = sqrt(R^2 - m^2) (0 past R).  m/2 - h is at least 0 at m0 and
        grows with slope at least 5/2, and m >= m0 > 10 D, so the row holds at
        least 5d/2 - 1/2 candidates.  Rows d = 1..D hold (5D^2 + 3D)/4 >= 4N.
    (c) Every scanned m^2 + n^2 <= 5 m1^2 / 4 < 100 N^4: no candidate meets
        the outer radius, so the scan does not test it.
    (d) Only slope 1/2 repeats.  Two parallel candidates are t (a, b) and
        t' (a, b) with (a, b) primitive, so a <= |t - t'| a <= m1 - m0 <= D.
        If b/a != 1/2 then a - 2b >= 1, so m - 2n = t (a - 2b) >= m/D, and
        m^2 + n^2 <= m^2 (5D^2 - 2D + 1)/(4D^2) <= (5/4)(1 - 1/(3D)) m1^2.
        With m1 < (2R/sqrt(5))(1 + y), y = sqrt(5)(D + 2)/(2R), that is below
        R^2 (1 + 3y)(1 - 1/(3D)), which is below R^2 once 9yD <= 1, that is
        45 sqrt(5) D (D + 2) <= N^2.  As D + 1 <= 4 sqrt(N/5) + 2, this holds
        when sqrt(45 sqrt(5)) (4 sqrt(N/5) + 2) <= N: at N = 400 the left
        side is 379, and it grows like sqrt(N).  Yet every candidate has
        m^2 + n^2 >= R^2.
    (e) The slope-1/2 class is the (2n, n) with m0 <= 2n <= m1, at most
        D/2 + 1 members.  So the scan's 4N or more candidates fall into at
        least 4N - D/2 >= N classes.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    order = _annulus_candidates(N)
    random.Random(f"{seed}:mn").shuffle(order)
    chosen: list[tuple[int, int]] = []
    for m, n in order:
        if all(m * n2 - n * m2 != 0 for m2, n2 in chosen):
            chosen.append((m, n))
            if len(chosen) == N:
                break
    return chosen


def _choose_prime_subsets(window_size: int, kappa: int, N: int, seed: int) -> list[tuple[int, ...]]:
    total = math.comb(window_size, kappa)
    rng = random.Random(f"{seed}:subsets")
    if total <= 200_000:
        pool = list(combinations(range(window_size), kappa))
        rng.shuffle(pool)
        return pool[:N]
    out: set[tuple[int, ...]] = set()
    while len(out) < N:
        out.add(tuple(sorted(rng.sample(range(window_size), kappa))))
    return sorted(out)  # canonical order; selection randomness already applied


def _dyadic_exponent(T: Fraction) -> int:
    """Smallest e with 4^e * T >= 1/100: places |2^e v~| in [1/10, 2/10)."""
    if T <= 0:
        raise ValueError("need a positive squared magnitude")
    # 4^e T >= 1/100 iff a 4^e >= b; with g = bits(b) - bits(a), it fails for
    # 2e <= g - 1 and holds for 2e >= g + 1, so e is floor(g / 2) or one more
    a, b = 100 * T.numerator, T.denominator
    e = (b.bit_length() - a.bit_length()) // 2
    holds = (a << 2 * e) >= b if e >= 0 else a >= (b << -2 * e)
    return e if holds else e + 1


def _scaled(P: int, R: int, e: int) -> tuple[int, int]:
    """(num, den) with num / den = 2^e P / R, both integers: the factor Q S
    of v = (m, n) Q S."""
    return (P << e, R) if e >= 0 else (P, R << -e)


def construct_directions(spec: DirectionSpec) -> DirectionSet:
    """Run the full construction and validate every invariant exactly.

    Raises ConstructionError naming the violated constraint if any step
    cannot be satisfied.
    """
    window = choose_prime_window(spec)
    kappa = choose_kappa(len(window), spec.N)

    eps_adjusted: float | None = None
    if spec.mode == "strict":
        exact_exp = spec.M * kappa / spec.eps
        if abs(exact_exp - round(exact_exp)) < 1e-12:
            R = spec.N ** round(exact_exp)
        else:
            R = max(2, round(spec.N**exact_exp))
            eps_adjusted = spec.M * kappa * math.log(spec.N) / math.log(R)
    else:
        base, _ = _window_params(spec)
        R = base**kappa

    pairs = select_mn_pairs(spec.N, spec.seed)
    subsets = _choose_prime_subsets(len(window), kappa, spec.N, spec.seed)

    records = []
    for (m, n), subset in zip(pairs, subsets):
        P = math.prod(window[idx] for idx in subset)
        e = _dyadic_exponent(Fraction(P * P * (m * m + n * n), R * R))
        num, den = _scaled(P, R, e)
        v = (Fraction(m * num, den), Fraction(n * num, den))
        records.append(
            VectorRecord(m=m, n=n, q_exponent=e, prime_subset=tuple(subset), v=v)
        )

    ds = DirectionSet(
        spec=spec,
        kappa=kappa,
        prime_window=tuple(window),
        scale_denominator=R,
        eps_adjusted=eps_adjusted,
        vectors=tuple(records),
    )
    validate_direction_set(ds)
    return ds


def validate_direction_set(ds: DirectionSet) -> None:
    """Check all construction constraints in exact arithmetic.

    Raises ConstructionError naming the first violated constraint.  Also
    recomputes each vector from its metadata, so metadata tampering is caught.
    """
    N = ds.spec.N
    N2 = N * N
    if len(ds.vectors) != N:
        raise ConstructionError(f"family holds {len(ds.vectors)} vectors, spec says {N}")
    seen_subsets = set()
    for i, rec in enumerate(ds.vectors):
        m, n = rec.m, rec.n
        if m <= 0 or n <= 0:
            raise ConstructionError(f"positivity bullet violated at vector {i}: {(m, n)}")
        if not (m <= 4 * n and 2 * n <= m):
            raise ConstructionError(
                f"slope bullet violated at vector {i}: n/m = {Fraction(n, m)} not in [1/4, 1/2]"
            )
        r2 = m * m + n * n
        if not (100 * r2 >= N**4 and r2 <= 100 * N**4):
            raise ConstructionError(
                f"lattice-annulus bullet violated at vector {i}: |(m,n)|^2 = {r2}"
            )
        if len(set(rec.prime_subset)) != ds.kappa:
            raise ConstructionError(
                f"distinct-primes bullet violated at vector {i}: {rec.prime_subset}"
            )
        if not all(0 <= idx < len(ds.prime_window) for idx in rec.prime_subset):
            raise ConstructionError(f"prime subset of vector {i} indexes outside the window")
        key = tuple(sorted(rec.prime_subset))
        if key in seen_subsets:
            raise ConstructionError(
                f"distinct-collections bullet violated: vector {i} repeats {key}"
            )
        seen_subsets.add(key)
        # 2^-(100 kappa) / N^2 <= Q = 2^e <= 2^(100 kappa) / N^2, on bit lengths:
        # N^2 >= 2^-t iff bits(N^2) - 1 >= -t, and N^2 <= 2^u iff bits(N^2 - 1) <= u
        e = rec.q_exponent
        if not (isinstance(e, int) and N2.bit_length() - 1 + e + 100 * ds.kappa >= 0
                and (N2 - 1).bit_length() <= 100 * ds.kappa - e):
            raise ConstructionError(
                f"dyadic normalizer bullet violated at vector {i}: Q = 2^{e}"
            )
        # v = (m, n) num / den, cross-multiplied
        num, den = _scaled(ds.prime_product(i), ds.scale_denominator, e)
        (xn, xd), (yn, yd) = ((t.numerator, t.denominator) for t in rec.v)
        if xn * den != m * num * xd or yn * den != n * num * yd:
            raise ConstructionError(f"vector {i} disagrees with its construction metadata")
        # |v|^2 = (xn^2 yd^2 + yn^2 xd^2) / (xd yd)^2 in [1/100, 100]
        top, bottom = (xn * yd) ** 2 + (yn * xd) ** 2, (xd * yd) ** 2
        if not (100 * top >= bottom and top <= 100 * bottom):
            raise ConstructionError(
                f"magnitude bullet violated at vector {i}: |v|^2 = {top / bottom:.3g}"
            )
    for i in range(N):
        for j in range(i + 1, N):
            cross = ds.vectors[i].m * ds.vectors[j].n - ds.vectors[i].n * ds.vectors[j].m
            if cross == 0:
                raise ConstructionError(
                    f"non-parallel bullet violated for vectors {i}, {j}"
                )
    if (ds.A, ds.A_tilde, ds.integer_vectors) != (None, None, None):
        _validate_rescaling(ds)


def _validate_rescaling(ds: DirectionSet) -> None:
    A, At = ds.A, ds.A_tilde
    if A is None or At is None or ds.integer_vectors is None:
        raise ConstructionError("incomplete rescaling metadata")
    if len(ds.integer_vectors) != len(ds.vectors):
        raise ConstructionError(f"{len(ds.integer_vectors)} integer vectors for "
                                f"{len(ds.vectors)} directions")
    if not (A <= 10 * At <= 100 * A):
        raise ConstructionError(f"A_tilde = {At} outside [A/10, 10A]")
    for i, (ix, iy) in enumerate(ds.integer_vectors):
        # x At = ix for x = xn / xd iff xn At = ix xd, an integer or not
        (xn, xd), (yn, yd) = ((t.numerator, t.denominator) for t in ds.vectors[i].v)
        if xn * At != ix * xd or yn * At != iy * yd:
            raise ConstructionError(f"integer vector {i} is not exactly A_tilde * v_{i}")
        r2 = ix * ix + iy * iy
        if not (10_000 * r2 >= A * A and r2 <= 10_000 * A * A):
            raise ConstructionError(
                f"integer-annulus condition violated at vector {i}: |Av|^2 = {r2}"
            )


def base_multiple(ds: DirectionSet) -> int:
    """R times the product of Q_i^{-1} over Q_i <= 1: rescaling by any multiple
    of this clears every denominator."""
    out = ds.scale_denominator
    for rec in ds.vectors:
        if rec.q_exponent <= 0:
            out *= 2**-rec.q_exponent
    return out


def rescale_to_integers(ds: DirectionSet, A: int | None = None) -> DirectionSet:
    """Rescale by the smallest multiple A_tilde of the base multiple with
    A_tilde >= A/10; every A_tilde * v_i is exactly integral.

    ``A`` defaults to max(N^C0, base multiple).  Raises ValueError when no
    multiple fits in [A/10, 10A] (A too small for this family).
    """
    B = base_multiple(ds)
    if A is None:
        A = max(ds.spec.N ** ds.spec.C0, B)
    if A < 1:
        raise ValueError("annulus radius A must be >= 1")
    t = -((-A) // (10 * B))  # ceil(A / (10 B))
    At = t * B
    if At > 10 * A:
        raise ValueError(
            f"no multiple of the base multiple {B} lies in [A/10, 10A] for A = {A}"
        )
    # A_tilde is a multiple of the base multiple, so every product is integral;
    # _validate_rescaling checks that exactly
    ints = tuple(tuple(t.numerator * At // t.denominator for t in rec.v) for rec in ds.vectors)
    out = replace(ds, A=A, A_tilde=At, integer_vectors=ints)
    _validate_rescaling(out)
    return out


@dataclass(frozen=True)
class MinAngleResult:
    i: int
    j: int
    sin2: Fraction  # squared sine of the angle between v_i and v_j

    @property
    def sin(self) -> float:
        return math.sqrt(float(self.sin2))


def min_angle(ds: DirectionSet) -> MinAngleResult:
    """Minimizing pair and exact squared sine of the smallest angle.

    sin^2 = (m_i n_j - n_i m_j)^2 / (|(m_i,n_i)|^2 |(m_j,n_j)|^2); the dyadic
    and prime factors cancel, so the comparison is exact on the (m, n) data.
    """
    if len(ds.vectors) < 2:
        raise ValueError("need at least two vectors")
    best: MinAngleResult | None = None
    for i in range(len(ds.vectors)):
        mi, ni = ds.vectors[i].m, ds.vectors[i].n
        for j in range(i + 1, len(ds.vectors)):
            mj, nj = ds.vectors[j].m, ds.vectors[j].n
            s2 = Fraction((mi * nj - ni * mj) ** 2, (mi * mi + ni * ni) * (mj * mj + nj * nj))
            if best is None or s2 < best.sin2:
                best = MinAngleResult(i, j, s2)
    return best


# -- serialization -----------------------------------------------------------------

_DS_SCHEMA = "primedir.direction_set.v1"


def _canonical(doc: dict) -> bytes:
    """The one JSON encoding of a direction set: sorted keys, fixed separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _integer_vector(pair, name: str) -> tuple[int, int]:
    """An integer vector: a list of two decimal-integer strings."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ParseError(f"bad integer pair {pair!r} at {name}: not a two-element list")
    return integer.read(pair[0], f"{name}[0]"), integer.read(pair[1], f"{name}[1]")


_OPTIONAL_INT = typed((int, type(None)), "null or an integer")
_SPEC = record((("N", json_int), ("eps", typed((int, float), "a number")), ("M", json_int),
                ("mode", one_of("toy", "strict")), ("seed", json_int), ("C0", json_int),
                ("C1", _OPTIONAL_INT), ("window_base", _OPTIONAL_INT),
                ("window_count", _OPTIONAL_INT)), DirectionSpec)
_VECTOR = record((("m", json_int), ("n", json_int), ("q_exponent", json_int),
                  ("prime_subset", items(json_int)), ("x", rational), ("y", rational)),
                 lambda m, n, e, subset, x, y: VectorRecord(m, n, e, subset, (x, y)),
                 lambda rec: (rec.m, rec.n, rec.q_exponent, rec.prime_subset, *rec.v))
# DirectionSet's fields, in order
_ENTRIES = (("spec", _SPEC), ("kappa", json_int), ("prime_window", items(integer)),
            ("scale_denominator", integer),
            ("eps_adjusted", typed((int, float, type(None)), "null or a number")),
            ("vectors", items(_VECTOR)), ("A", nullable(integer)), ("A_tilde", nullable(integer)),
            ("integer_vectors", nullable(items(Field(_integer_vector, items(integer, 2).write)))))


def serialize(ds: DirectionSet) -> bytes:
    """The payload's canonical JSON, the form its content hash covers, with
    the hash added.

    Byte-identical for identical spec + seed, which is the determinism contract
    between CLI commands.
    """
    payload = _canonical({"schema": _DS_SCHEMA,
                          **write_fields([getattr(ds, key) for key, _ in _ENTRIES], _ENTRIES)})
    # the hash goes in at its sorted place, before "eps_adjusted": the keys
    # before it, "A" and "A_tilde", hold a decimal string or null
    i = payload.index(b',"eps_adjusted":')
    return b'%s,"content_hash":"%s"%s' % (payload[:i], hashlib.sha256(payload).hexdigest().encode(),
                                         payload[i:])


def deserialize(data: bytes) -> DirectionSet:
    """Parse, re-hash, rebuild, and re-validate a DirectionSet.

    Any JSON layout of the same document loads, the indented form that older
    files use included: the hash is taken over the canonical form.  Every
    field is read through the strict reader of ``errors``, and a malformed
    one is a ParseError that names it.
    """
    doc = json_object(data, _DS_SCHEMA, "direction-set file")
    if doc.pop("content_hash", None) != hashlib.sha256(_canonical(doc)).hexdigest():
        raise ParseError("content hash mismatch: file was modified after writing")
    ds = DirectionSet(*read_fields(doc, _ENTRIES))
    validate_direction_set(ds)
    return ds


def save_direction_set(ds: DirectionSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(ds))


def load_direction_set(path) -> DirectionSet:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
