"""Tube families on the torus and exact overlap scanning.

A tube family at denominator r, level s and thickness exponent C1 is the set

    { beta : |v . beta - b/r - m| <= 2^(-C1 s) for integers b, m }

minus a small ball at the origin, i.e. equally spaced slabs perpendicular to v.
Two non-parallel families intersect along an exact lattice of parallelogram
cells (a rank-2 arithmetic progression in each coordinate), which makes
worst-case overlap counting certifiable: a point covered by >= 2 tubes lies in
some pair's intersection cell, whose corners are crossings of slab boundary
lines, so scanning cell centers and corners over all pairs (plus one interior
point per family for the overlap-1 floor) finds the maximum.

All geometry is exact and integer.  Points are carried as integer triples
(px, py, d) meaning (px/d, py/d); each ``TubeFamily`` and each ``ScanWindow``
fixes its integer form once, at construction, over the least common
denominator of its rationals (``_over_lcd``, which also puts a point of
``tube_membership`` in that form).  Fractions appear only at the public
API: windows and directions come in as Fractions, and witnesses go out as
Fractions.
``TubeFamily.member`` is the scalar reference predicate (``tube_membership``
applies it to a Fraction point).

A scan takes one geometry, as the paper does: every family shares the level
s, the thickness constant C1, the torus side and the exclusion radius, and
only the direction and the denominator r vary.  The exact scan counts each
pair's lattice candidates on their plane indices, in integers of a few
machine words, under the certificates of ``max_overlap_scan``'s docstring,
and a scan outside them is refused with a ValueError that names one.  The
overlap-1 floor takes one point per family, walked or, under the floor
certificate, in closed form; it and the grid sample count with ``member``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from .directions import DirectionSet
from .errors import (Field, ParseError, items, json_int, json_object, nullable, one_of, rational,
                     read_fields, write_fields)

__all__ = [
    "TubeFamily",
    "ScanWindow",
    "OverlapReport",
    "tube_membership",
    "max_overlap_scan",
    "families_from_direction_set",
    "default_window",
    "save_overlap_report",
    "load_overlap_report",
    "replay_witness",
]


# the integer geometry a scan's families share
_geometry = attrgetter("s", "C1", "torus_side", "ex_n", "ex_d")


def _exact(x) -> int | Fraction:
    """x as it is when it is an int or a Fraction, else Fraction(x).  The integer
    forms read numerator and denominator, which Fraction() would copy from an
    int or a Fraction unchanged, after a slower check of the Rational ABC."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _over_lcd(*xs) -> tuple[int, ...]:
    """(n_1, ..., n_k, d) with x_i = n_i / d, d the least common denominator
    of the exact xs: the integer form of a direction, a window or a point."""
    ratios = [_exact(x).as_integer_ratio() for x in xs]
    d = math.lcm(*[q for _, q in ratios])
    return *[p * (d // q) for p, q in ratios], d


@dataclass(frozen=True)
class TubeFamily:
    """One family of parallel tubes: direction v, denominator r, level s.

    ``exclusion_radius`` is the origin ball removed from the domain (the
    scaled-torus variant uses 1/A, the unit-torus variant 1/A^2);
    ``torus_side`` is the periodization side length (1 for the unit torus,
    the integer rescaling constant for the scaled variant, or None to scan a
    plain window with no folding).

    Construction also fixes the integer form that ``member`` and the scan
    read: v = (ax, ay) / den, thickness 2^-shift with shift = C1 s, and
    exclusion radius ex_n / ex_d.
    """

    v: tuple[Fraction, Fraction]
    r: int
    s: int
    C1: int
    exclusion_radius: Fraction = Fraction(0)
    torus_side: int | None = None

    def __post_init__(self):
        if not (self.s >= 0 and self.r > 0 and self.r.bit_length() == self.s + 1):
            raise ValueError(f"need 2^s <= r < 2^(s+1); got r={self.r}, s={self.s}")
        if self.C1 < 1:
            raise ValueError("thickness exponent C1 must be >= 1")
        if self.torus_side is not None and self.torus_side < 1:
            raise ValueError(f"torus side must be >= 1 (or None); got {self.torus_side}")
        ax, ay, den = _over_lcd(*self.v)
        ex_n, ex_d = _exact(self.exclusion_radius).as_integer_ratio()
        if ex_n < 0:  # the scan's ball and origin-cell certificates read its sign
            raise ValueError(f"exclusion radius must be >= 0; got {self.exclusion_radius}")
        # derived attributes, not fields, so equality and hashing see only the
        # fields; written through __dict__ because the dataclass is frozen
        self.__dict__.update(ax=ax, ay=ay, den=den, shift=self.C1 * self.s, ex_n=ex_n, ex_d=ex_d)
        if ax == 0 and ay == 0:
            raise ValueError("tube direction must be nonzero")
        # thickness 2^(-C1 s) below the tube spacing 1/(r |v|): equivalent to
        # r^2 |v|^2 < 4^(C1 s), exactly; compared by right shift (a << c > m iff
        # a > m >> c), so no integer grows with C1 s
        if self.s >= 1 and den * den <= self.r**2 * (ax * ax + ay * ay) >> 2 * self.shift:
            raise ValueError("tube thickness is not below the tube spacing; raise C1")

    @property
    def thickness(self) -> Fraction:
        return Fraction(1, 1 << self.shift)

    def member(self, px: int, py: int, d: int) -> bool:
        """Is (px/d, py/d) in the family? Exact integer arithmetic, d > 0."""
        # double the triple so the torus half-side stays integral
        px, py, d = 2 * px, 2 * py, 2 * d
        if self.torus_side is not None:
            span = self.torus_side * d
            half = span // 2
            px = (px + half) % span - half
            py = (py + half) % span - half
        X = self.r * (self.ax * px + self.ay * py)
        Dd = self.den * d
        b = (2 * X + Dd) // (2 * Dd)  # nearest integer to X / Dd
        if abs(X - b * Dd) > self.r * Dd >> self.shift:
            return False
        return not self.ex_n or (px * px + py * py) * self.ex_d**2 >= self.ex_n**2 * d * d


@dataclass(frozen=True)
class ScanWindow:
    """Closed axis-aligned box of exact rationals.

    Each edge is stored exact: an int or a Fraction as it is, anything else
    (a float, a string) through Fraction(), as ``TubeFamily`` reads its
    inputs.  Construction also fixes the integer form that the scan reads:
    the edges x0 <= x1 and y0 <= y1 over one denominator W > 0.
    """

    x_lo: Fraction
    x_hi: Fraction
    y_lo: Fraction
    y_hi: Fraction

    def __post_init__(self):
        x_lo, x_hi, y_lo, y_hi = edges = [_exact(e) for e in
                                          (self.x_lo, self.x_hi, self.y_lo, self.y_hi)]
        x0, x1, y0, y1, W = _over_lcd(*edges)
        if x0 > x1 or y0 > y1:
            raise ValueError("empty window")
        # written through __dict__ as in TubeFamily: the exact edges, then the derived form
        self.__dict__.update(x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi,
                             x0=x0, x1=x1, y0=y0, y1=y1, W=W)

    def contains(self, x: Fraction, y: Fraction) -> bool:
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def mask(self, px: int, py: int, d: int) -> bool:
        """Is (px/d, py/d) in the closed window? d > 0: the edges are rounded
        inward to integers at d, so the test is four integer comparisons."""
        W = self.W
        return (-(-self.x0 * d // W) <= px <= self.x1 * d // W
                and -(-self.y0 * d // W) <= py <= self.y1 * d // W)


def default_window(variant: str, half: int = 1) -> ScanWindow:
    """[-1/2, 1/2]^2 for the unit-torus variant, [-half, half]^2 for the scaled one."""
    if variant == "k":
        h = Fraction(1, 2)
    elif variant == "ktilde":
        h = Fraction(half)
    else:
        raise ValueError("variant must be 'k' or 'ktilde'")
    return ScanWindow(-h, h, -h, h)


def tube_membership(beta: tuple[Fraction, Fraction], fam: TubeFamily) -> bool:
    """Exact membership of a rational point in a tube family.

    The slab condition is closed (boundary points are members) and the test
    locates the nearest plane index by rounding, never by search.
    """
    return fam.member(*_over_lcd(*beta))


# -- pairwise intersection lattices ------------------------------------------------

def _plane_range(fam: TubeFamily, win: ScanWindow) -> tuple[int, int]:
    """Indices a with the slab v.beta ~ a/r meeting the window (thickness included).

    v.beta = dot / D at a corner, with dot = ax x + ay y and D = den W, so the
    range is ceil((r min dot - r D 2^-shift) / D) .. floor((r max dot + r D 2^-shift) / D).
    The numerators are integers but for r D 2^-shift, which rounds down to
    e = (r D) >> shift without moving either bound, so no integer grows with
    the shift.
    """
    dots = [fam.ax * x + fam.ay * y for x in (win.x0, win.x1) for y in (win.y0, win.y1)]
    D = fam.den * win.W
    e = fam.r * D >> fam.shift
    return -((e - fam.r * min(dots)) // D), (fam.r * max(dots) + e) // D


# a cell's candidate offsets (o1, o2): the center, then the four corners
_OFFSETS = ((0, 0), (-1, -1), (-1, 1), (1, -1), (1, 1))


def _moves(fi: TubeFamily, fj: TubeFamily, sgn: int) -> list[tuple[int, int]]:
    """Per offset, the move (dx, dy) from a cell center of the pair to that
    candidate, in units of 2^-c / |delta|; sgn is the sign of delta =
    ax_i ay_j - ay_i ax_j."""
    return [(sgn * (fi.den * fj.ay * o1 - fj.den * fi.ay * o2),
             sgn * (fj.den * fi.ax * o2 - fi.den * fj.ax * o1)) for o1, o2 in _OFFSETS]


def _reach(fi: TubeFamily, fj: TubeFamily) -> tuple[int, int]:
    """(Kx, Ky): no move of the pair exceeds Kx in x or Ky in y."""
    return (abs(fj.ay * fi.den) + abs(fi.ay * fj.den),
            abs(fj.ax * fi.den) + abs(fi.ax * fj.den))


def _axis_rows(xa: int, xb: int, lo: int, hi: int, a_range: tuple[int, int], b_first: int,
               b_last: int):
    """One axis of the in-window test lo <= xa a + xb b <= hi as (p, q, L, H, a_range):
    row a keeps the b with ceil((L - p a) / q) <= b <= floor((H - p a) / q),
    q > 0.  When xb is 0 the axis bounds a alone, so a_range shrinks and the
    returned axis keeps every b in b_first..b_last."""
    if xb:
        return (xa, xb, lo, hi, a_range) if xb > 0 else (-xa, -xb, -hi, -lo, a_range)
    if xa < 0:  # xa != 0 when xb == 0, since the pair is not parallel
        xa, lo, hi = -xa, -hi, -lo
    a_lo, a_hi = a_range
    return 0, 1, b_first, b_last, (max(a_lo, -(-lo // xa)), min(a_hi, hi // xa))


def _pair_centers(fi: TubeFamily, fj: TubeFamily, delta: int, range_i: tuple[int, int],
                  range_j: tuple[int, int], win: ScanWindow) -> tuple[int, list]:
    """(checked, keys): the pair's in-window cell centers, a outermost, and
    the number of in-window candidates of their cells.  Center (a, b) is
    (cx, cy) / G with G = |delta| r_i r_j and delta = ax_i ay_j - ay_i ax_j,
    and its key is the point's reduced triple (cx/g, cy/g, G/g), one key per
    point (None for the origin, a = b = 0).  Each row a's in-window b
    interval is solved directly, so no cell outside the window is visited.
    A cell's candidates are counted by its center's edge margins, which
    the window certificate of ``max_overlap_scan``'s docstring makes exact."""
    sgn, G = (1, delta) if delta > 0 else (-1, -delta)
    G *= fi.r * fj.r
    xa, xb = sgn * fi.den * fj.ay * fj.r, -sgn * fj.den * fi.ay * fi.r
    ya, yb = -sgn * fi.den * fj.ax * fj.r, sgn * fj.den * fi.ax * fi.r
    W, b_first, b_last = win.W, *range_j
    gx0, gx1, gy0, gy1 = G * win.x0, G * win.x1, G * win.y0, G * win.y1
    # the b whose center lies in the closed window: G x0 <= W cx <= G x1, same in y
    px, qx, Lx, Hx, a_range = _axis_rows(W * xa, W * xb, gx0, gx1, range_i, b_first, b_last)
    py, qy, Ly, Hy, (a_lo, a_hi) = _axis_rows(W * ya, W * yb, gy0, gy1, a_range,
                                              b_first, b_last)
    gcd, moves = math.gcd, None  # moves: built when first needed
    keys, checked = [], 0
    for a in range(a_lo, a_hi + 1):
        ux, uy = px * a, py * a
        b_lo = max(b_first, -((ux - Lx) // qx), -((uy - Ly) // qy))
        b_hi = min(b_last, (Hx - ux) // qx, (Hy - uy) // qy)
        ex, ey = xa * a, ya * a
        for b in range(b_lo, b_hi + 1):
            cx, cy = ex + xb * b, ey + yb * b
            g = gcd(cx, cy, G)
            keys.append((cx // g, cy // g, G // g) if a or b else None)
            # on an edge (margin 0), a candidate stays when its move points
            # inward or along the edge
            wx, wy = W * cx, W * cy
            if gx0 < wx < gx1 and gy0 < wy < gy1:
                checked += len(_OFFSETS)
            else:
                if moves is None:
                    moves = _moves(fi, fj, sgn)
                edges = (wx - gx0, gx1 - wx, wy - gy0, gy1 - wy)
                checked += sum(all(e > 0 or t >= 0 for e, t in zip(edges, (dx, -dx, dy, -dy)))
                               for dx, dy in moves)
    return checked, keys


def _refusal(fails: list, s: int) -> ValueError:
    """The one error for a scan at level s whose pairs fail certificates.
    fails holds (name, i, j, bits), bits the least shift C1 s that passes
    certificate name for pair (i, j), None when no shift does (at s = 0 the
    shift is 0 whatever C1 is).  The error names a certificate that no C1
    passes if there is one, else the one whose least C1 is the largest: the
    least C1 that passes every certificate of the scan.  Among equals it
    names the first, in pair order."""
    def need(fail):
        return math.inf if fail[3] is None or not s else -(-fail[3] // s)

    worst = max(fails, key=need)
    name, i, j, _ = worst
    least = "no C1" if need(worst) == math.inf else f"C1 >= {need(worst)}"
    return ValueError(f"{name} certificate fails for pair ({i}, {j}); {least} passes it")


def _failed_certificates(f: TubeFamily, win: ScanWindow, rr: int, kx: int, ky: int, G: int,
                         dabs: int, slab: int, m: int | None, origin: bool) -> list:
    """The certificates of ``max_overlap_scan``'s docstring that a pair fails
    at the shift c of f, a family of the scan, as (name, bits) in the order
    window, ball, origin-cell, slab: bits is the least shift that passes,
    None when none does.  The pair has r_i r_j = rr, reach (Kx, Ky) =
    (kx, ky), |Delta| = dabs, centers over G, and slab bracket
    slab = r_max (den_i colmax[j] + den_j colmax[i] + den_max |Delta|); m is
    the least max(|cx|, |cy|) over its in-window nonzero centers (None when
    it has none) and origin tells whether the origin is one of its centers,
    so a pair with no in-window center is tested only against the window.
    ``_scan_certified`` runs the same test at the scan's extreme values."""
    c, ex_n, ex_d = f.shift, f.ex_n, f.ex_d  # shared by every family
    # each test, x 2^c > y, holds iff c >= bit_length(y // x), when x > 0
    needs = [("window", (rr * win.W * max(kx, ky)).bit_length())]
    if ex_n:
        reach = ex_d * (kx + ky) * rr
        if m is not None:  # that center lies m / G from the origin in the max norm
            clear = ex_d * m - ex_n * G  # <= 0: that center is in the ball
            needs.append(("ball", (reach // clear).bit_length() if clear > 0 else None))
        if origin:  # the origin cell lies in the ball when its corners' reach is below the radius
            needs.append(("origin-cell", ((kx + ky) * ex_d // (ex_n * dabs)).bit_length()))
    if origin or m is not None:
        needs.append(("slab", (rr * slab).bit_length()))
    return [(name, bits) for name, bits in needs if bits is None or bits > c]


def _scan_certified(families: list[TubeFamily], deltas: list[int], win: ScanWindow) -> bool:
    """Do the families pass the per-scan bounds of ``max_overlap_scan``'s
    docstring?  ``deltas`` are |Delta| over the non-parallel pairs, at least
    one.  The bounds are the pair test, ``_failed_certificates``, run once
    at the scan's extreme values, where each certificate is hardest to
    pass, so when they pass no pair fails a certificate."""
    r_max, den_max, d_max = max(f.r for f in families), max(f.den for f in families), max(deltas)
    kstar = 2 * den_max * max(max(abs(f.ax), abs(f.ay)) for f in families)  # >= every Kx, Ky
    return not _failed_certificates(families[0], win, r_max**2, kstar, kstar, d_max * r_max**2,
                                    min(deltas), 3 * r_max * den_max * d_max, 1, True)


def _pair_failures(families: list[TubeFamily], pairs, cross, cells, win: ScanWindow) -> list:
    """(name, i, j, bits) for each certificate that a pair (i, j) fails
    (``_failed_certificates``), in pair order; ``cross[l][m] = ax_l ay_m -
    ay_l ax_m`` and ``cells`` maps each pair to its in-window center keys."""
    r_max, den_max = max(f.r for f in families), max(f.den for f in families)
    colmax = [max(map(abs, col)) for col in zip(*cross)]
    fails = []
    for i, j in pairs:
        fi, fj, keys = families[i], families[j], cells[i, j]
        dabs, rr = abs(cross[i][j]), fi.r * fj.r
        G = dabs * rr
        # key (kx, ky, kd) is the center (cx, cy) / G reduced by G // kd
        m = min((max(abs(kx), abs(ky)) * (G // kd) for kx, ky, kd in filter(None, keys)),
                default=None)
        slab = r_max * (fi.den * colmax[j] + fj.den * colmax[i] + den_max * dabs)
        fails += [(name, i, j, bits) for name, bits in _failed_certificates(
            fi, win, rr, *_reach(fi, fj), G, dabs, slab, m, None in keys)]
    return fails


# -- the scan ------------------------------------------------------------------------

@dataclass
class OverlapReport:
    """Worst-case overlap over a window, with a replayable witness."""

    s: int
    C1: int
    max_overlap: int
    witness: tuple[Fraction, Fraction] | None
    family_count: int
    method: str  # "exact-candidates" | "grid-sample"
    variant: str
    window: ScanWindow
    # the points the scan answers for: every in-window pair candidate (or all
    # 20 000 grid samples, including those after a sample reached the family
    # count, which no later sample can beat) plus the floor points
    candidates_checked: int = 0
    r_values: tuple[int, ...] | None = None  # per-family denominators, for replay
    baseline: str | None = None  # "parallel" for a parallel-baseline scan, for replay
    # grid samples counted through member, up to the first that reaches the
    # family count (0 on the exact branch), and the pairs' in-window centers,
    # the origin aside, that count more than 2 families, which is to say
    # that another pair shares, once per pair; records of the run, not of
    # the result: report files and equality leave them out
    samples_counted: int = field(default=0, compare=False)
    shared_centers: int = field(default=0, compare=False)


def _round_half_even(n: int, d: int) -> int:
    """The integer nearest n / d, d > 0, ties to even, as round(Fraction(n, d))."""
    q, rem = divmod(n, d)
    return q + (2 * rem > d or (2 * rem == d and q & 1))


def _interior_point(fam: TubeFamily, win: ScanWindow) -> tuple[int, int, int] | None:
    """A point on a tube center plane inside the window (overlap floor >= 1),
    as an unreduced triple (px, py, d).

    Walks perpendicularly from the window center to the planes a/r nearest
    it, then along each plane by multiples of about a quarter of the
    window's smaller side, whatever |v| is (the zero-index plane passes
    through the excluded origin ball, so an on-plane offset is usually
    needed); the first trial in the window that the family covers is the point.
    Each trial is tested alone, the window first and then ``member``, in
    the order below, and the walk stops at its first hit.

    The 25 trials share the denominator d = 4 W r S den n1, where
    S = ax^2 + ay^2, n1 = |ax| + |ay| and T = ax (x0 + x1) + ay (y0 + y1):
    v . center = T / (2 W den), plane a meets the normal at
    center + (2 W den a - r T) / (2 W r S) (ax, ay), and one step along a plane
    is w / (4 W) (-ay, ax) / n1, w = min(x1 - x0, y1 - y0), whose length lies
    between 1/sqrt(2) and 1 times w / (4 W).
    """
    ax, ay, den, r = fam.ax, fam.ay, fam.den, fam.r
    x0, x1, y0, y1, W = win.x0, win.x1, win.y0, win.y1, win.W
    S, T, n1 = ax * ax + ay * ay, ax * (x0 + x1) + ay * (y0 + y1), abs(ax) + abs(ay)
    d, step = 4 * W * r * S * den * n1, r * S * den * min(x1 - x0, y1 - y0)
    c = 2 * r * S * den * n1
    cx, cy = c * (x0 + x1), c * (y0 + y1)  # the center, over d
    a0 = _round_half_even(r * T, 2 * W * den)  # the plane nearest the center
    for a in (a0, a0 - 1, a0 + 1, a0 - 2, a0 + 2):
        lam = 2 * den * n1 * (2 * W * den * a - r * T)  # plane a meets the normal at cx + lam ax
        for m in (0, 1, -1, 2, -2):
            px, py = cx + lam * ax - m * step * ay, cy + lam * ay + m * step * ax
            if win.mask(px, py, d) and fam.member(px, py, d):
                return px, py, d
    return None


_EXACT_BUDGET = 2_000_000  # most pair candidates the exact branch takes on
_SAMPLES = 20_000
_SAMPLE_BITS = 24  # sample coordinates sit on the 2^-24 grid across the window


def _grid_sample(families: list[TubeFamily], win: ScanWindow):
    """(best, witness, counted) over the 20 000 seeded samples
    (x_lo + (i / 2^24) wx, y_lo + (j / 2^24) wy).

    Each sample's i, then its j, are the next two draws of random.Random(0),
    so all samples share the denominator d = W 2^24 and a sample is the
    unreduced triple (x0 2^24 + i wx, y0 2^24 + j wy, d) in integers,
    counted with ``member``.  The witness is the first sample that reaches
    the maximum.  No point lies in more families than there are, so
    counting stops at the first sample that reaches len(families): no later
    sample can count more, or be a first witness.  ``counted`` is the
    number of samples counted.
    """
    rng, top = random.Random(0), (1 << _SAMPLE_BITS) + 1
    x0, y0 = win.x0 << _SAMPLE_BITS, win.y0 << _SAMPLE_BITS
    wx, wy = win.x1 - win.x0, win.y1 - win.y0
    d = win.W << _SAMPLE_BITS
    best, witness = 0, None
    for counted in range(1, _SAMPLES + 1):
        px, py = x0 + rng.randrange(top) * wx, y0 + rng.randrange(top) * wy
        count = sum(f.member(px, py, d) for f in families)
        if count > best:
            best, witness = count, (Fraction(px, d), Fraction(py, d))
            if best == len(families):
                break
    return best, witness, counted


def _floor_certified(fam: TubeFamily, win: ScanWindow) -> bool:
    """Does every family's floor walk find a point?  The floor certificate
    of ``max_overlap_scan``'s docstring, read from the window and from the
    geometry that ``fam``, any family of the scan, shares with the rest."""
    w, W = min(win.x1 - win.x0, win.y1 - win.y0), win.W
    return (win.x0 + win.x1 == 0 == win.y0 + win.y1 and 6 * W * fam.ex_n <= w * fam.ex_d
            and (fam.torus_side is None or w <= W * fam.torus_side))


def _floor_refusal(families: list[TubeFamily], cross, ranges, walks, best: int) -> None:
    """A ValueError naming the floor certificate, and the family or pair,
    where the walks of an uncertified window prove nothing, in a parallel
    class larger than best, the maximum so far (see ``max_overlap_scan``);
    a family meets the window when its range is not empty."""
    meets = [lo <= hi for lo, hi in ranges]
    norms = [Fraction(f.r * (abs(f.ax) + abs(f.ay)), f.den) for f in families]  # |r v|_1
    for l, row in enumerate(cross):
        if row.count(0) > best and meets[l]:  # cross[l][m] = 0: m is parallel to l
            if walks[l] is None:
                raise ValueError(f"floor certificate fails for family {l}: its planes meet "
                                 "the window, and its walk finds no point")
            for m in range(l + 1, len(row)):
                if not row[m] and meets[m] and norms[l] != norms[m]:
                    raise ValueError(f"floor certificate fails for pair ({l}, {m}): "
                                     "parallel families on different planes")


def _fold_certificate(families: list[TubeFamily], window: ScanWindow) -> None:
    """A ValueError unless the torus fold changes no window point's membership:
    the window lies in [-side/2, side/2), or in the closed box and a shift
    by the side moves no family (den | r ax side and den | r ay side)."""
    side = families[0].torus_side
    if side is None:
        return
    sW = side * window.W
    if not all(-sW <= 2 * e <= sW for e in (window.x0, window.x1, window.y0, window.y1)):
        raise ValueError(f"fold certificate fails: the window leaves [-{side}/2, {side}/2]^2")
    if sW in (2 * window.x1, 2 * window.y1):  # an edge that the fold moves
        for k, f in enumerate(families):
            if (f.r * f.ax * side) % f.den or (f.r * f.ay * side) % f.den:
                raise ValueError(f"fold certificate fails: the window reaches the edge "
                                 f"{side}/2, and a shift by the torus side moves family {k}")


def max_overlap_scan(families: list[TubeFamily], window: ScanWindow) -> OverlapReport:
    """Maximum pointwise overlap of the families over the window.

    Exact method: overlap counts are evaluated at every pairwise lattice cell
    center and corner (sufficient for any maximum >= 2) plus one interior
    point per family (the overlap-1 floor).  If the candidate count would
    exceed 2 000 000 the scan takes a grid sample of 20 000 points (seed 0)
    instead and labels the report method accordingly.

    The families must share one geometry: the level s, the thickness
    constant C1, the torus side and the exclusion radius, as the tubes of
    one level and one variant do.  A ValueError names the first field that
    differs.  So every family has the same shift c = C1 s, fold and ball.

    Both branches, and the floor, work on integer triples (px, py, d) and on
    the window as integer edges over one denominator; a Fraction is built
    only for a new witness.  Two facts make that exact:

    - ``TubeFamily.member(px, py, d)`` gives the same answer when the triple
      is scaled by any positive integer: the torus fold, the exclusion test
      and the nearest-plane rounding are all homogeneous.  So an unreduced
      common denominator answers as ``_over_lcd``'s reduced triple does.
    - The exact branch counts each pair's candidates on their plane indices,
      under the certificates below; the paper takes C1 sufficiently large
      depending on A, and a scan whose C1 or ball is outside them is refused,
      once every pair has been tested, with a ValueError that names the
      least C1 that passes every certificate, and the certificate and pair
      that need it, or a certificate that no C1 passes (``_refusal``).  Take
      the non-parallel pair (i, j), each family as v = (ax, ay) / den, and
      Delta = ax_i ay_j - ay_i ax_j, P_l = ax_l ay_j - ay_l ax_j,
      Q_l = ax_i ay_l - ay_i ax_l, Kx = |ay_j den_i| + |ay_i den_j|,
      Ky = |ax_j den_i| + |ax_i den_j|.  Candidate (a, b, o) is
      beta = (cx, cy) / G + delta(o), G = |Delta| r_i r_j, with cx and cy
      integers linear in (a, b), |delta_x| <= Kx 2^-c / |Delta| and
      |delta_y| <= Ky 2^-c / |Delta|.  Family l sees
      r_l v_l . beta = N_l / M_l + E_l(o), with M_l = den_l G,
      N_l = sgn(Delta) r_l (den_i r_j P_l a + den_j r_i Q_l b) and
      E_l = sgn(Delta) r_l (den_i P_l o1 + den_j Q_l o2) 2^-c / (den_l |Delta|).
      Slab: when 2^c > r_i r_j r_l (|den_i P_l| + |den_j Q_l| + den_l |Delta|),
      l covers the candidate iff N_l = 0 mod M_l and
      |den_i P_l o1 + den_j Q_l o2| <= den_l |Delta|.  (Then |E_l| < 1 / M_l;
      c >= 1 forces every s >= 1, so M_l >= 4 and |E_l| < 1/2.)  Window:
      when 2^c > r_i r_j W max(Kx, Ky), the signs of cx W - x0 G and of
      the other three edge margins decide all five points of a cell; on an
      edge (margin 0) a corner stays when its offset numerator points inward
      or runs along the edge.
      Ball: a cell whose center is not 0 clears the ball when
      m / G - (Kx + Ky) 2^-c / |Delta| exceeds its radius, m >= 1 being the
      least max(|cx|, |cy|) over the pair's in-window nonzero centers: the
      center lies at least m / G from the origin in the max norm, and so in
      the Euclidean one, and a corner at most (Kx + Ky) 2^-c / |Delta| from
      its center.  Origin cell: the cell a = b = 0 lies inside a ball of
      nonzero radius when (Kx + Ky) 2^-c / |Delta| is below that radius.
      Each of these four tests reads x 2^c > y in integers, which holds iff
      c >= bit_length(y // x) when x > 0, and x and y do not depend on c, so
      a refusal names the least C1 that passes; none does at s = 0 (c = 0),
      nor for a ball that holds an in-window nonzero center (x <= 0).
      Fold (``_fold_certificate``, once per scan): the window lies in
      [-side/2, side/2), where the fold moves no point; or in the closed
      box [-side/2, side/2]^2 with den | r ax side and den | r ay side for
      every family, so a shift by the side changes r v . beta by integers
      and moves no family: the fold then moves only edge points, to the
      mirror edge, and leaves |px| and |py| unchanged.
      So a family that covers a corner covers its cell's center, which is
      in the window whenever a corner is and comes first in the cell: each
      pair's maximum and witness are those of its in-window centers, and the
      corners only add to ``candidates_checked``.
      Per scan: one cross table X[l][m] = ax_l ay_m - ay_l ax_m gives every
      Delta, P_l = X[l][j] and Q_l = -X[l][i], so with colmax[m] =
      max_l |X[l][m]| the bound 2^c > r_i r_j r_max (den_i colmax[j] +
      den_j colmax[i] + den_max |Delta|) implies the slab certificate for
      every l: one slab bound per pair, with no family-by-family retest.
      Certificates once per scan: each certificate is stated once, as the
      pair test ``_failed_certificates``, which reads a pair through r_i r_j,
      Kx, Ky, G, |Delta|, the slab bracket r_max (den_i colmax[j] +
      den_j colmax[i] + den_max |Delta|), m, and whether the origin is an
      in-window center.  Take r_max and den_max the largest r and den,
      K* = 2 den_max max_l max(|ax_l|, |ay_l|), and Dmax and Dmin the largest
      and smallest |Delta| over the non-parallel pairs.  Every pair has
      r_i r_j <= r_max^2, Kx and Ky <= K*, G <= Dmax r_max^2, |Delta| >= Dmin,
      a bracket at most r_max 3 den_max Dmax (every colmax[m] <= Dmax, a
      family parallel to m giving 0) and m >= 1.  The radius is ex_n / ex_d
      with ex_n >= 0, since a family refuses a negative one, so each test
      only gets harder as its values move to those extremes: the window and
      slab sides grow with r_i r_j, Kx, Ky and the bracket, the ball's
      clearance ex_d m - ex_n G falls and its reach ex_d (Kx + Ky) r_i r_j
      grows, and the origin cell's (Kx + Ky) ex_d // (ex_n |Delta|) grows.
      So the scan runs the pair test once at the extremes, with the origin
      counted in (``_scan_certified``), and when it passes no pair fails a
      certificate; only when it fails does the scan test every pair, so a
      refusal and its message come from the pair-by-pair tests alone.
      Coincidences: at a center the offset is 0, so under the slab
      certificate family l covers it iff it lies on a central plane of l
      (N_l = 0 mod M_l).  Families i and j always do; a center other than
      the origin lies in the ball of no family, and the origin in all of
      them or, under the origin-cell certificate, in none.  A third family l
      is not parallel to both i and j, say not to i, so a center beta of
      (i, j) on a central plane of l is the crossing of that plane with
      i's: an in-window center of the pair {i, l} (its plane indices lie in
      both ranges, since beta is in the window).  So a first pass lists
      every non-parallel pair's in-window centers, keyed by the reduced
      triple (cx/g, cy/g, G/g), and maps each key to the set of families of
      the pairs that hold it; a center other than the origin counts the
      size of that set, and the origin the family count or 0.  A center
      counts more than 2 exactly when another pair holds it too (the
      report's ``shared_centers``).  ``_pair_centers`` is the one enumerator
      of a pair's lattice, and counts its in-window candidates as it goes;
      it and ``_failed_certificates`` work in integers of a few machine
      words.

    The grid sample counts its points with ``member``, in draw order, and
    the floor its points, one per family, in family order.  The witness is
    the first candidate, in pair then lattice (or sample) order, to reach
    the maximum; a floor point becomes it only by beating every count
    before it.  No point lies in more families than there are, so a maximum
    equal to the family count is final: the grid sample stops at the first
    sample that reaches it (the rest still count toward
    ``candidates_checked``), and the floor points are not counted, though
    they add to ``candidates_checked``.  Nor are they on the exact branch
    once its maximum is at least 2 and the largest parallel class: a point
    that two non-parallel families cover is a pair candidate, and any other
    lies in one parallel class alone.

    Floor certificate (``_floor_certified``, once per scan), on the integer
    window and radius ex_n / ex_d: the window is centred at the origin,
    x0 + x1 = 0 = y0 + y1; 6 W ex_n <= w ex_d with w = min(x1 - x0, y1 - y0);
    and with a torus, w <= W side.  Then every
    walk (``_interior_point``) has T = 0 and nearest plane a0 = 0; its
    trial m = 0 is the origin, a member exactly when ex_n = 0, and its trial
    m = 1 is p = (w / (4 W)) (-ay, ax) / (|ax| + |ay|): on plane 0
    (v . p = 0); in the window, as |p_x|, |p_y| <= w / (4 W), below the half
    sides; unmoved by the fold, as w / (4 W) <= side / 4; and, when
    ex_n > 0, at least w / (4 sqrt(2) W) >= 6 ex_n / (4 sqrt(2) ex_d) >
    ex_n / ex_d from the origin, outside the ball.  So the scan takes each
    floor point in closed form, the origin or p, and a final maximum only
    adds the family count; p lies on plane 0 of every family parallel to
    its own, so it counts its whole class.  Else the scan walks every
    family, and below a final maximum the exact branch refuses, naming the
    floor certificate, where the walks prove nothing (``_floor_refusal``):
    in a parallel class larger than the maximum so far, a family whose
    planes meet the window and whose walk finds no point, or two such
    families on different planes (r_l v_l != +-r_m v_m).  Else a walk's
    point, on a central plane of its family, lies in each family of its
    class that meets the window.
    ``replay_witness`` recounts a witness through ``member``, so it checks a
    pair witness independently of the plane-index counts above.
    """
    if not families:
        raise ValueError("need at least one family")
    f0 = families[0]
    if any(_geometry(f) != _geometry(f0) for f in families):  # names the field only then
        for name in ("s", "C1", "torus_side", "exclusion_radius"):
            for k, f in enumerate(families):
                if getattr(f, name) != getattr(f0, name):
                    raise ValueError(f"a scan takes one geometry: family {k} has {name} "
                                     f"{getattr(f, name)!r}, family 0 {getattr(f0, name)!r}")
    variant = "k" if f0.torus_side == 1 else "ktilde"

    n = len(families)
    cross = [[fl.ax * fm.ay - fl.ay * fm.ax for fm in families] for fl in families]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if cross[i][j]]  # non-parallel
    ranges = [_plane_range(f, window) for f in families]
    est = sum(5 * (ranges[i][1] - ranges[i][0] + 1) * (ranges[j][1] - ranges[j][0] + 1)
              for i, j in pairs)  # candidate budget estimate

    best = 0
    witness: tuple[Fraction, Fraction] | None = None
    checked = counted = shared = 0
    if est <= _EXACT_BUDGET:
        method = "exact-candidates"
        if pairs:
            _fold_certificate(families, window)
        # first pass: every pair's in-window centers and candidates, and per
        # point the families of the pairs that hold it; the origin, a center
        # of every pair, lies in every family's ball, or in every family
        cells, holders = {}, {None: () if f0.ex_n else range(n)}
        for i, j in pairs:
            inside, cells[i, j] = _pair_centers(families[i], families[j], cross[i][j],
                                                ranges[i], ranges[j], window)
            checked += inside
            for key in filter(None, cells[i, j]):
                holders.setdefault(key, set()).update((i, j))
        # the per-scan bounds first; only when one fails is every pair tested
        if pairs and not _scan_certified(families, [abs(cross[i][j]) for i, j in pairs], window):
            fails = _pair_failures(families, pairs, cross, cells, window)
            if fails:
                raise _refusal(fails, f0.s)
        first = None
        for keys in cells.values():
            for key in keys:
                count = len(holders[key])
                shared += count > 2 and key is not None
                if count > best:  # the first center to reach the maximum
                    best, first = count, key
        if best:
            kx, ky, kd = first or (0, 0, 1)
            witness = (Fraction(kx, kd), Fraction(ky, kd))
    else:
        method = "grid-sample"
        best, witness, counted = _grid_sample(families, window)
        checked = _SAMPLES

    # the overlap-1 floor, one point per family, counted through member
    # unless the maximum is final: the family count, or on the exact branch
    # >= 2 and >= the largest parallel class; a point replaces the witness
    # only by beating the count so far
    par = max(row.count(0) for row in cross)  # cross[i][i] = 0
    final = best >= (max(2, par) if method == "exact-candidates" else n)
    certified = _floor_certified(f0, window)
    if final and certified:
        checked += n
    else:
        if certified:  # the origin, or the walk's second trial
            w, W = min(window.x1 - window.x0, window.y1 - window.y0), window.W
            walks = [(-w * f.ay, w * f.ax, 4 * W * (abs(f.ax) + abs(f.ay))) if f0.ex_n
                     else (0, 0, 1) for f in families]
        else:
            walks = [_interior_point(f, window) for f in families]
            if method == "exact-candidates" and not final:
                _floor_refusal(families, cross, ranges, walks, best)
        floor = [pt for pt in walks if pt is not None]
        checked += len(floor)
        if not final:
            for px, py, d in floor:
                count = sum(f.member(px, py, d) for f in families)
                if count > best:
                    best, witness = count, (Fraction(px, d), Fraction(py, d))

    return OverlapReport(
        s=f0.s, C1=f0.C1, max_overlap=best, witness=witness,
        family_count=len(families), method=method, variant=variant,
        window=window, candidates_checked=checked,
        r_values=tuple(f.r for f in families), samples_counted=counted,
        shared_centers=shared,
    )


def replay_witness(report: OverlapReport, families: list[TubeFamily]) -> int:
    """Recompute the overlap count at the report's witness point."""
    if report.witness is None:
        return 0
    point = _over_lcd(*report.witness)  # as tube_membership puts it, once for every family
    return sum(f.member(*point) for f in families)


# -- families from a constructed direction set ---------------------------------------

def default_c1(ds: DirectionSet) -> int:
    """Thickness exponent large enough that the ball at the origin captures a
    single tube per direction: 2^(-C1) below the exclusion radius by a margin
    of 16 binary orders.

    Mirrors the requirement that the thickness constant be chosen sufficiently
    large depending on A: every family's zero-index tube passes through the
    origin, so the all-directions overlap zone there has radius on the order
    of thickness / min angle and must sit inside the excluded ball.
    """
    if ds.A is None:
        raise ValueError("rescale the set first (the thickness default derives from A)")
    return (ds.A * ds.A).bit_length() + 16


def families_from_direction_set(
    ds: DirectionSet,
    s: int,
    C1: int | None = None,
    r_values: list[int] | None = None,
    variant: str = "ktilde",
) -> list[TubeFamily]:
    """Tube families for every direction of a constructed set.

    The scaled-torus variant uses the rational pre-scaling vectors with
    exclusion ball 1/A; the unit-torus variant uses the integer vectors with
    exclusion ball 1/A^2 (and needs the set rescaled first).  ``r_values``
    defaults to r = 2^s for every direction; ``C1`` to the spec override or
    the A-derived default.
    """
    if C1 is None:
        C1 = ds.spec.C1 if ds.spec.C1 is not None else default_c1(ds)
    if r_values is None:
        r_values = [1 << s] * len(ds.vectors)
    if len(r_values) != len(ds.vectors):
        raise ValueError("need one denominator per direction")
    if variant == "ktilde":
        if ds.A is None:
            raise ValueError("rescale the set first (the exclusion ball needs A)")
        vs = [rec.v for rec in ds.vectors]
        excl, side = Fraction(1, ds.A), ds.A_tilde
    elif variant == "k":
        if ds.integer_vectors is None:
            raise ValueError("rescale the set first (the unit-torus variant uses integer vectors)")
        vs = [(Fraction(ix), Fraction(iy)) for ix, iy in ds.integer_vectors]
        excl, side = Fraction(1, ds.A**2), 1
    else:
        raise ValueError("variant must be 'k' or 'ktilde'")
    return [TubeFamily(v=v, r=r, s=s, C1=C1, exclusion_radius=excl, torus_side=side)
            for v, r in zip(vs, r_values)]


# -- report files -----------------------------------------------------------------------

_REPORT_SCHEMA = "primedir.overlap_report.v3"
_EDGES = items(rational, 4)
_WINDOW = Field(lambda value, name: ScanWindow(*_EDGES.read(value, name)),
                lambda w: _EDGES.write((w.x_lo, w.x_hi, w.y_lo, w.y_hi)))


def _report_fields(n) -> tuple:
    """The report file's table, in OverlapReport's order, for n families:
    replay rebuilds each family from its r."""
    return (("s", json_int), ("C1", json_int), ("max_overlap", json_int),
            ("witness", nullable(items(rational, 2))), ("family_count", json_int),
            ("method", one_of("exact-candidates", "grid-sample")),
            ("variant", one_of("k", "ktilde")), ("window", _WINDOW),
            ("candidates_checked", json_int), ("r_values", items(json_int, n)),
            ("baseline", one_of(None, "parallel")))


def save_overlap_report(report: OverlapReport, path) -> None:
    """Write the report; a ValueError, before the file opens, unless its
    r_values hold one denominator per family, as the reader requires."""
    fields = _report_fields(report.family_count)
    doc = write_fields([getattr(report, key) for key, _ in fields], fields)
    with open(path, "w") as fh:
        json.dump({"schema": _REPORT_SCHEMA, **doc}, fh, indent=1, sort_keys=True)


def load_overlap_report(path) -> OverlapReport:
    """Read a report written by save_overlap_report; any malformed field is a
    ParseError that names it, after the path, and so is a witness outside
    the window."""
    try:
        with open(path, "rb") as fh:
            doc = json_object(fh.read(), _REPORT_SCHEMA, "report")
        report = OverlapReport(*read_fields(doc, _report_fields(doc.get("family_count"))))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if report.witness is not None and not report.window.contains(*report.witness):
        raise ParseError(f"{path}: field 'witness' lies outside the window")  # no scan writes one
    return report
