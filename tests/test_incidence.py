import dataclasses
import functools
import itertools
import json
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primedir import directions
from primedir import incidence as I
from primedir.errors import ParseError


def axis_families():
    f1 = I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=8, torus_side=1)
    f2 = I.TubeFamily(v=(F(0), F(1)), r=3, s=1, C1=8, torus_side=1)
    return f1, f2


def _floor_point(fam, window):
    """The family's floor point as Fractions (None when the walk finds none)."""
    pt = I._interior_point(fam, window)
    return pt and (F(pt[0], pt[2]), F(pt[1], pt[2]))


class TestTubeFamily:
    def test_dyadic_denominator_enforced(self):
        with pytest.raises(ValueError):
            I.TubeFamily(v=(F(1), F(0)), r=4, s=1, C1=8)
        with pytest.raises(ValueError):
            I.TubeFamily(v=(F(1), F(0)), r=1, s=1, C1=8)

    def test_thickness_below_spacing(self):
        # r^2 |v|^2 >= 4^(C1 s) flags tubes thicker than their spacing
        with pytest.raises(ValueError, match="spacing"):
            I.TubeFamily(v=(F(40), F(0)), r=2, s=1, C1=3)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            I.TubeFamily(v=(F(0), F(0)), r=2, s=1, C1=8)

    @pytest.mark.parametrize("r,s", [(-4, 2), (-5, 2), (0, 0), (1, -1)])
    def test_negative_level_or_denominator_rejected(self, r, s):
        # -4 and -5 have the bit length of a level-2 denominator
        with pytest.raises(ValueError, match=r"need 2\^s <= r"):
            I.TubeFamily(v=(F(1), F(0)), r=r, s=s, C1=8)

    def test_thickness_boundary_exact(self):
        # r^2 |v|^2 = 4 * 64 = 4^(C1 s) at C1 s = 4: equal is refused, one less passes
        with pytest.raises(ValueError, match="spacing"):
            I.TubeFamily(v=(F(8), F(0)), r=2, s=1, C1=4)
        I.TubeFamily(v=(F(8), F(0)), r=2, s=1, C1=5)
        I.TubeFamily(v=(F(8) - F(1, 10**6), F(0)), r=2, s=1, C1=4)

    @pytest.mark.parametrize("side", [0, -1])
    def test_nonpositive_torus_side_rejected(self, side):
        # side 0 would read as no fold in the scan while member() divides by it
        with pytest.raises(ValueError, match="torus side"):
            I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=8, torus_side=side)

    @pytest.mark.parametrize("ex", [F(-1, 2), -1, -0.5, "-1/10"])
    def test_negative_exclusion_radius_rejected(self, ex):
        # the scan's ball certificates read the radius' sign: the axes and
        # the diagonal with a radius of -1/2 were once scanned as if no ball
        # held the center (1/2, 0), which the ball 1/2 does ("ball-center")
        with pytest.raises(ValueError, match="exclusion radius must be >= 0"):
            I.TubeFamily(v=(F(1), F(0)), r=4, s=2, C1=12, exclusion_radius=ex, torus_side=1)


class TestExactInputs:
    """An int or a Fraction is read as it is, any other value through
    Fraction(): the integer forms and answers are those of the Fraction."""

    VALUES = (3, -2, True, F(3, 4), F(-5, 6), 0.75, -1.5, "3/4", "-5/6", "2")
    RADII = (0, 1, F(1, 10), 0.25, "1/10", "0")

    @pytest.mark.parametrize("x", VALUES)
    @pytest.mark.parametrize("y", VALUES)
    def test_family_integer_forms(self, x, y):
        vx, vy = F(x), F(y)
        den = math.lcm(vx.denominator, vy.denominator)
        want = (vx.numerator * den // vx.denominator, vy.numerator * den // vy.denominator, den)
        for ex in self.RADII:
            fam = I.TubeFamily(v=(x, y), r=4, s=2, C1=8, exclusion_radius=ex)
            assert (fam.ax, fam.ay, fam.den) == want
            assert (fam.ex_n, fam.ex_d) == (F(ex).numerator, F(ex).denominator)
            assert all(type(k) is int for k in (fam.ax, fam.ay, fam.den, fam.ex_n, fam.ex_d))

    @pytest.mark.parametrize("edges", [(-0.5, 0.5, -0.5, 0.5), ("-1/2", "1/2", "-1/2", "1/2"),
                                       (F(-1, 2), F(1, 2), -0.5, "1/2"), (-1, 1, F(-3, 4), 0.75)])
    def test_window_edges(self, edges):
        win = I.ScanWindow(*edges)
        want = tuple(F(e) for e in edges)
        assert (win.x_lo, win.x_hi, win.y_lo, win.y_hi) == want
        assert all(type(e) in (int, F) for e in (win.x_lo, win.x_hi, win.y_lo, win.y_hi))
        exact = I.ScanWindow(*want)
        assert win == exact
        assert (win.x0, win.x1, win.y0, win.y1, win.W) == (exact.x0, exact.x1, exact.y0, exact.y1,
                                                           exact.W)

    def test_window_refuses_empty_edges(self):
        with pytest.raises(ValueError, match="empty window"):
            I.ScanWindow("1/2", 0.25, 0, 1)

    @pytest.mark.parametrize("ex", RADII)
    def test_membership_answers(self, ex):
        fam = I.TubeFamily(v=(F(3, 4), -2), r=5, s=2, C1=3, exclusion_radius=ex, torus_side=7)
        answers = set()
        for x, y in itertools.product(self.VALUES + (F(1, 8), "1/16", 0.0625, 0), repeat=2):
            want = fam.member(*I._over_lcd(F(x), F(y)))
            assert I.tube_membership((x, y), fam) == want, (x, y)
            answers.add(want)
        assert answers == {False, True}


class TestMembership:
    def test_axis_plane(self):
        f1, _ = axis_families()
        assert I.tube_membership((F(1, 2), F(1, 7)), f1)
        assert I.tube_membership((F(0), F(2, 5)), f1)

    def test_boundary_closed(self):
        fam = I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=8)
        # v . beta = 1/2 + 2^-8 exactly: distance to the plane equals the thickness
        assert I.tube_membership((F(1, 2) + F(1, 256), F(0)), fam)
        assert not I.tube_membership((F(1, 2) + F(1, 256) + F(1, 10**9), F(0)), fam)

    def test_midway_point_outside(self):
        fam = I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=8)
        assert not I.tube_membership((F(1, 4), F(0)), fam)

    def test_torus_periodicity(self):
        f1, f2 = axis_families()
        rng = np.random.default_rng(0)
        for fam in (f1, f2):
            for _ in range(20):
                b = (F(int(rng.integers(0, 997)), 997), F(int(rng.integers(0, 991)), 991))
                base = I.tube_membership(b, fam)
                for shift in ((1, 0), (0, 1), (-3, 7)):
                    assert I.tube_membership((b[0] + shift[0], b[1] + shift[1]), fam) == base

    def test_exclusion_ball(self):
        fam = I.TubeFamily(
            v=(F(1), F(0)), r=2, s=1, C1=8, exclusion_radius=F(1, 100), torus_side=1
        )
        assert not I.tube_membership((F(0), F(0)), fam)
        assert not I.tube_membership((F(0), F(1, 200)), fam)
        assert I.tube_membership((F(0), F(1, 50)), fam)


def _centers(f1, f2, win):
    """The pair's in-window cell centers from ``_pair_centers``, the scan's one
    lattice enumerator, as Fractions: the origin is the key None."""
    delta = f1.ax * f2.ay - f1.ay * f2.ax
    _, keys = I._pair_centers(f1, f2, delta, I._plane_range(f1, win), I._plane_range(f2, win),
                              win)
    return [(F(kx, kd), F(ky, kd)) for kx, ky, kd in (key or (0, 0, 1) for key in keys)]


class TestCandidates:
    def test_axis_lattice(self):
        f1, f2 = axis_families()
        win = I.default_window("k")
        pts = set(_centers(f1, f2, win))
        expect = {
            (F(a, 2), F(b, 3))
            for a in range(-1, 2)
            for b in range(-2, 3)
            if abs(F(a, 2)) <= F(1, 2) and abs(F(b, 3)) <= F(1, 2)
        }
        assert pts == expect

    def test_centers_belong_to_both(self):
        f1 = I.TubeFamily(v=(F(3, 2), F(1, 3)), r=5, s=2, C1=6)
        f2 = I.TubeFamily(v=(F(-1, 2), F(7, 5)), r=4, s=2, C1=6)
        win = I.ScanWindow(F(-1), F(1), F(-1), F(1))
        pts = _centers(f1, f2, win)
        assert pts and all(
            I.tube_membership(p, f1) and I.tube_membership(p, f2) for p in pts
        )

    def test_count_matches_bruteforce(self):
        f1 = I.TubeFamily(v=(F(3, 2), F(1, 3)), r=5, s=2, C1=6)
        f2 = I.TubeFamily(v=(F(-1, 2), F(7, 5)), r=4, s=2, C1=6)
        win = I.ScanWindow(F(-1), F(1), F(-1), F(1))
        pts = _centers(f1, f2, win)
        # brute-force double loop over generous plane-index ranges
        brute = set()
        v1, v2 = f1.v, f2.v
        det = v1[0] * v2[1] - v1[1] * v2[0]
        for a in range(-40, 41):
            for b in range(-40, 41):
                t1, t2 = F(a, f1.r), F(b, f2.r)
                x = (v2[1] * t1 - v1[1] * t2) / det
                y = (-v2[0] * t1 + v1[0] * t2) / det
                if win.contains(x, y):
                    brute.add((x, y))
        assert len(pts) == len(set(pts)) and set(pts) == brute


class TestScan:
    def test_single_family_floor(self):
        f1, _ = axis_families()
        assert I.max_overlap_scan([f1], I.default_window("k")).max_overlap == 1

    def test_two_families(self):
        f1, f2 = axis_families()
        rep = I.max_overlap_scan([f1, f2], I.default_window("k"))
        assert rep.max_overlap == 2
        assert I.replay_witness(rep, [f1, f2]) == 2
        assert rep.method == "exact-candidates"

    def test_replay_without_witness_counts_zero(self):
        # a report that names no witness point recounts to 0, without a membership test
        fams = list(axis_families())
        rep = dataclasses.replace(I.max_overlap_scan(fams, I.default_window("k")), witness=None)
        assert I.replay_witness(rep, fams) == 0

    def test_parallel_baseline(self):
        base = [I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=8)] * 5
        rep = I.max_overlap_scan(base, I.default_window("k"))
        assert rep.max_overlap == 5

    @pytest.mark.parametrize("field,other", [
        ("s", {"r": 4, "s": 2}),
        ("C1", {"C1": 9}),
        ("torus_side", {"torus_side": 2}),
        ("exclusion_radius", {"exclusion_radius": F(1, 100)}),
    ])
    def test_mixed_geometry_rejected(self, field, other):
        # the axis families and a diagonal that differs from them in one field
        diagonal = {"v": (F(1), F(1)), "r": 2, "s": 1, "C1": 8, "torus_side": 1, **other}
        fams = [*axis_families(), I.TubeFamily(**diagonal)]
        with pytest.raises(ValueError, match=f"family 2 has {field} "):
            I.max_overlap_scan(fams, I.default_window("k"))

    def test_soundness_random_points(self):
        f1, f2 = axis_families()
        f3 = I.TubeFamily(v=(F(1), F(1)), r=2, s=1, C1=8, torus_side=1)
        fams = [f1, f2, f3]
        win = I.default_window("k")
        rep = I.max_overlap_scan(fams, win)
        rng = np.random.default_rng(1)
        for _ in range(300):
            b = (F(int(rng.integers(-500, 500)), 1000), F(int(rng.integers(-500, 500)), 1000))
            count = sum(1 for f in fams if I.tube_membership(b, f))
            assert count <= rep.max_overlap

    def test_monotone_in_thickness(self):
        # fatter tubes (smaller C1) can only raise the maximum, down to the
        # least C1 the certificates accept; below it the scan refuses, naming
        # that C1 (at C1 = 2 the window certificate fails too, below 4)
        def scan(c1):
            fams = [
                I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=c1, torus_side=1),
                I.TubeFamily(v=(F(0), F(1)), r=3, s=1, C1=c1, torus_side=1),
                I.TubeFamily(v=(F(1), F(1)), r=2, s=1, C1=c1, torus_side=1),
            ]
            return I.max_overlap_scan(fams, I.default_window("k")).max_overlap

        with pytest.raises(ValueError, match=r"^slab .* \(0, 1\); C1 >= 6 passes it$"):
            scan(2)
        with pytest.raises(ValueError, match=r"^slab .* \(0, 1\); C1 >= 6 passes it$"):
            scan(4)
        results = [scan(c1) for c1 in (6, 8, 12)]
        assert all(a >= b for a, b in zip(results, results[1:]))
        assert results[0] == 3  # the origin, with no ball, lies in all three

    def test_grid_sample_fallback(self, monkeypatch):
        f1, f2 = axis_families()
        monkeypatch.setattr(I, "_EXACT_BUDGET", 1)
        rep = I.max_overlap_scan([f1, f2], I.default_window("k"))
        assert rep.method == "grid-sample"
        assert rep.max_overlap >= 1

    def test_constructed_below_baseline(self, toy_ds):
        fams = I.families_from_direction_set(toy_ds, s=2)
        win = I.default_window("ktilde")
        rep = I.max_overlap_scan(fams, win)
        repb = I.max_overlap_scan(fams[:1] * len(fams), win)
        assert repb.max_overlap == len(toy_ds.vectors)
        assert 1 <= rep.max_overlap < repb.max_overlap

    def test_k_variant_families(self, toy_ds, monkeypatch):
        fams = I.families_from_direction_set(toy_ds, s=1, variant="k")
        # integer vectors are enormous: restrict to a tiny window around a
        # known tube plane and check the scan stays exact and bounded
        win = I.ScanWindow(F(1, 7), F(1, 7) + F(1, 10**6), F(1, 11), F(1, 11) + F(1, 10**6))
        monkeypatch.setattr(I, "_EXACT_BUDGET", 200_000)
        rep = I.max_overlap_scan(fams, win)
        assert rep.max_overlap <= len(fams)

    def test_memory_does_not_grow_with_c1(self, toy_ds):
        # the plane ranges and the ball certificate compare by right shift,
        # so a scan at C1 = 10^7, a shift of 2 10^7 bits, builds no integer
        # of that size and reports what it reports at C1 = 44
        window = I.default_window("ktilde")
        want = I.max_overlap_scan(I.families_from_direction_set(toy_ds, s=2, C1=44), window)
        fams = I.families_from_direction_set(toy_ds, s=2, C1=10**7)
        tracemalloc.start()
        try:
            rep = I.max_overlap_scan(fams, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2**20
        assert rep == dataclasses.replace(want, C1=10**7)


def _geometry_family(v=(1, 0), r=2, s=1, C1=8, ex=F(0), side=None):
    return I.TubeFamily(v=v, r=r, s=s, C1=C1, exclusion_radius=ex, torus_side=side)


class TestOneGeometry:
    """A scan refuses families of more than one geometry, naming the first
    field, in the order s, C1, torus side, radius, that some family has
    otherwise than family 0, and the first such family."""

    @pytest.mark.parametrize("fams,message", [
        ([_geometry_family(), _geometry_family(v=(0, 1), r=4, s=2)], "family 1 has s 2, family 0 1"),
        ([_geometry_family(), _geometry_family(v=(0, 1), C1=9)], "family 1 has C1 9, family 0 8"),
        ([_geometry_family(side=1), _geometry_family(v=(0, 1))],
         "family 1 has torus_side None, family 0 1"),
        ([_geometry_family(ex=F(1, 10)), _geometry_family(v=(0, 1)),
          _geometry_family(v=(1, 1), ex=F(1, 9))],
         "family 1 has exclusion_radius Fraction(0, 1), family 0 Fraction(1, 10)"),
        # family 1's C1 differs first, but s comes first among the fields
        ([_geometry_family(), _geometry_family(v=(0, 1), C1=9),
          _geometry_family(v=(1, 1), r=4, s=2)], "family 2 has s 2, family 0 1"),
    ])
    def test_mismatch_messages(self, fams, message):
        with pytest.raises(ValueError) as exc:
            I.max_overlap_scan(fams, I.default_window("ktilde"))
        assert str(exc.value) == "a scan takes one geometry: " + message

    @pytest.mark.parametrize("ex", [0.25, "1/4"])
    def test_radius_compared_exactly(self, ex):
        # a float or a string radius equal to family 0's Fraction is one geometry
        fams = [_geometry_family(ex=F(1, 4)), _geometry_family(v=(0, 1), ex=ex)]
        want = [_geometry_family(ex=F(1, 4)), _geometry_family(v=(0, 1), ex=F(1, 4))]
        window = I.default_window("ktilde")
        assert I.max_overlap_scan(fams, window) == I.max_overlap_scan(want, window)


class TestIntWindow:
    """The window's integer edges, fixed at construction, against its Fractions."""

    WINDOWS = (
        I.ScanWindow(F(-3, 7), F(2, 5), F(-1, 3), F(-1, 9)),
        I.ScanWindow(F(-2), F(-1, 2), F(0), F(5, 3)),
        I.ScanWindow(F(1, 3), F(1, 3), F(-2, 7), F(-2, 7)),  # a single point
    )

    @pytest.mark.parametrize("win", WINDOWS)
    def test_edges_and_corners_match_contains(self, win):
        # mask() on scalar triples against the Fraction reference contains()
        eps = F(1, 10**9)
        xs = (win.x_lo, (win.x_lo + win.x_hi) / 2, win.x_hi)
        ys = (win.y_lo, (win.y_lo + win.y_hi) / 2, win.y_hi)
        for x0 in xs:
            for y0 in ys:
                for dx in (-eps, F(0), eps):
                    for dy in (-eps, F(0), eps):
                        x, y = x0 + dx, y0 + dy
                        px, py, d = I._over_lcd(x, y)
                        for k in (1, 6):  # unreduced triples too
                            assert win.mask(k * px, k * py, k * d) == win.contains(x, y)

    @pytest.mark.parametrize("win", WINDOWS)
    def test_closed_edges_are_members(self, win):
        cx, cy = (win.x_lo + win.x_hi) / 2, (win.y_lo + win.y_hi) / 2
        pts = [(x, y) for x in (win.x_lo, win.x_hi) for y in (win.y_lo, win.y_hi)]
        pts += [(x, cy) for x in (win.x_lo, win.x_hi)] + [(cx, y) for y in (win.y_lo, win.y_hi)]
        px, py, d = zip(*(I._over_lcd(x, y) for x, y in pts))
        e = math.lcm(*d)  # one denominator, as the grid sample's points share
        assert all(win.mask(x * (e // k), y * (e // k), e) for x, y, k in zip(px, py, d))


# -- the scan's counter against the scalar predicate ---------------------------------

def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, w) with a u + b w = g = gcd(a, b) >= 0."""
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, u, w = _ext_gcd(b, a % b)
    return g, w, u - (a // b) * w


@st.composite
def _family_lists(draw, min_size=1, max_size=1):
    """min_size to max_size families that share one geometry, as a scan
    requires: s, C1, the torus side and the exclusion radius.  |v| <= 50,
    2^s <= r < 2^(s+1), and the smallest C1 the spacing of every family
    allows (or one more), so that the thickness matters."""
    s = draw(st.integers(1, 2))
    vrs = []
    for _ in range(draw(st.integers(min_size, max_size))):
        vx = F(draw(st.integers(-35, 35)), draw(st.integers(1, 3)))
        vy = F(draw(st.integers(-35, 35)), draw(st.integers(1, 3)))
        if vx == vy == 0:
            vx = F(1)
        vrs.append(((vx, vy), draw(st.integers(1 << s, (2 << s) - 1))))
    C1 = 1
    while any(r * r * (vx * vx + vy * vy) >= 4 ** (C1 * s) for (vx, vy), r in vrs):
        C1 += 1
    C1 += draw(st.integers(0, 1))
    ex = draw(st.one_of(st.just(F(0)), st.builds(F, st.integers(1, 5), st.integers(10, 20))))
    side = draw(st.one_of(st.just(1), st.integers(2, 4), st.none()))
    return [I.TubeFamily(v=v, r=r, s=s, C1=C1, exclusion_radius=ex, torus_side=side)
            for v, r in vrs]


def _tube_families():
    """One family, drawn as _family_lists draws each of a list's."""
    return _family_lists().map(lambda fams: fams[0])


@st.composite
def _one_geometry_families(draw):
    """(families, large): 2-4 families with one s, C1, torus side and
    exclusion radius, so one shift c = C1 s.  C1 is the smallest the spacing
    allows plus 0-2, where the certificates mostly refuse the scan, or plus
    60-70 (large), where they hold unless s = 0 (so c = 0), the radius is
    1/3, or a window that reaches the edge x = 1/2 of a torus side of 1
    meets a family that a unit shift moves (``_fold_moves``)."""
    s = draw(st.integers(0, 2))
    n = draw(st.integers(2, 4))
    coord = st.builds(F, st.integers(-9, 9), st.integers(1, 3))
    vs = [(draw(coord), draw(coord)) for _ in range(n)]
    vs = [(F(1), F(0)) if v == (0, 0) else v for v in vs]
    rs = [draw(st.integers(1 << s, (2 << s) - 1)) for _ in range(n)]
    C1 = 1
    while s and any(r * r * (vx * vx + vy * vy) >= 4 ** (C1 * s) for (vx, vy), r in zip(vs, rs)):
        C1 += 1
    large = draw(st.booleans())
    C1 += draw(st.integers(60, 70) if large else st.integers(0, 2))
    side = draw(st.sampled_from((None, 7, 1)))
    ex = draw(st.sampled_from((F(0), F(1, 10**9), F(1, 3))))
    fams = [I.TubeFamily(v=v, r=r, s=s, C1=C1, exclusion_radius=ex, torus_side=side)
            for v, r in zip(vs, rs)]
    return fams, large


@st.composite
def _concurrent_families(draw):
    """3-5 families of one geometry whose central planes meet three at a time:
    v_i, v_j non-parallel, v_i + v_j, all at one r (so plane a of i and b of
    j cross on plane a + b of the sum, at every center of (i, j)), and a
    parallel copy of v_i at another r; sometimes one more family.  C1 and
    the torus side and radius are drawn as in _one_geometry_families, and
    the families come in a drawn order."""
    s = draw(st.integers(1, 2))
    coord = st.builds(F, st.integers(-9, 9), st.integers(1, 3))
    vi = (draw(coord), draw(coord))
    vi = (F(1), F(0)) if vi == (0, 0) else vi
    vj = (draw(coord), draw(coord))
    if vi[0] * vj[1] == vi[1] * vj[0]:
        vj = (-vi[1], vi[0])
    r = draw(st.integers(1 << s, (2 << s) - 1))
    other = draw(st.integers(1 << s, (2 << s) - 1).filter(lambda x: x != r))
    vrs = [(vi, r), (vj, r), ((vi[0] + vj[0], vi[1] + vj[1]), r), (vi, other)]
    if draw(st.booleans()):
        v = (draw(coord), draw(coord))
        vrs.append(((F(1), F(0)) if v == (0, 0) else v, draw(st.integers(1 << s, (2 << s) - 1))))
    vrs = draw(st.permutations(vrs))
    C1 = 1
    while any(q * q * (vx * vx + vy * vy) >= 4 ** (C1 * s) for (vx, vy), q in vrs):
        C1 += 1
    C1 += draw(st.sampled_from((0, 1, 2, 60, 70)))
    side = draw(st.sampled_from((None, 7, 1)))
    ex = draw(st.sampled_from((F(0), F(1, 10**9), F(1, 3))))
    return [I.TubeFamily(v=v, r=q, s=s, C1=C1, exclusion_radius=ex, torus_side=side)
            for v, q in vrs]


def _axis_families(r=(2, 2, 2), s=1, C1=40, ex=F(0), side=None):
    """The axes and the diagonal, with one shift C1 s."""
    vs = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    return [I.TubeFamily(v=v, r=ri, s=s, C1=C1, exclusion_radius=ex, torus_side=side)
            for v, ri in zip(vs, r)]


def _slab_points(f: I.TubeFamily):
    """Triples over one denominator d on the family's slab boundaries, one step
    inside and outside them, and at the tie midway between two planes."""
    g, u, w = _ext_gcd(f.ax, f.ay)
    d = g * f.r << (f.shift + 1)
    M = f.den * d  # v . beta = T / M at the point (px/d, py/d), T = ax px + ay py
    # T = b M / r + edge puts the point on a slab boundary (r T - b M = r M 2^-shift),
    # T = b M / r + tie midway between two planes (r T - b M = M / 2)
    edge, tie = M >> f.shift, M // (2 * f.r)
    pts = []
    for b in (-1, 0, 1):
        base = b * M // f.r
        for T in (base + edge, base - edge, base + edge - g, base + edge + g,
                  base - edge + g, base - edge - g, base + tie):
            px, py = u * T // g, w * T // g
            if f.ay:  # slide along the line to keep the coordinates small
                k = -(px * g) // f.ay
                px, py = px + k * (f.ay // g), py - k * (f.ax // g)
            assert f.ax * px + f.ay * py == T
            pts.append((px, py, d))
    return pts


def _circle_points(fam: I.TubeFamily):
    """Rational points on the exclusion circle, and just inside and outside it."""
    ex = F(fam.exclusion_radius)
    pts = []
    for j, k in ((0, 1), (1, 2), (1, 3), (2, 3)):
        c, s = F(k * k - j * j, k * k + j * j), F(2 * j * k, k * k + j * j)
        for x, y in ((c, s), (-s, c), (-c, -s), (s, -c)):
            for stretch in (F(1), F(63, 64), F(65, 64)):
                pts.append(I._over_lcd(ex * stretch * x, ex * stretch * y))
    return pts


def _fold_edge_points(fam: I.TubeFamily):
    """Points on the fold edges x = +-side/2 and y = +-side/2 that lie on a slab
    boundary, just inside it or just outside, the other coordinate in [-side/2, side/2)."""
    if fam.torus_side is None:
        return []
    half = F(fam.torus_side, 2)
    vx, vy = F(fam.v[0]), F(fam.v[1])
    edge = F(1, 2 ** (fam.C1 * fam.s))  # distance of a slab boundary from its plane
    pts = []
    for x0 in (-half, half):
        for k in (-1, 0, 1):
            for e in (edge, -edge, edge * F(63, 64), edge * F(65, 64)):
                for w, u, swap in ((vx, vy, False), (vy, vx, True)):
                    # w x0 + u y = (b + k) / r + e with b the plane nearest w x0
                    if u:
                        y = (F(round(fam.r * w * x0) + k, fam.r) + e - w * x0) / u
                        if -half <= y < half:
                            pts.append((y, x0) if swap else (x0, y))
    return pts


def _oracle_member(beta, fam: I.TubeFamily) -> bool:
    """The tube definition in plain Fractions, from the family's fields alone."""
    x, y = F(beta[0]), F(beta[1])
    if fam.torus_side is not None:  # fold into [-side/2, side/2)^2
        side = fam.torus_side
        x -= side * ((x + F(side, 2)) // side)
        y -= side * ((y + F(side, 2)) // side)
    t = fam.r * (F(fam.v[0]) * x + F(fam.v[1]) * y)
    if abs(t - round(t)) > fam.r * F(1, 2 ** (fam.C1 * fam.s)):
        return False
    return x * x + y * y >= F(fam.exclusion_radius) ** 2


class TestMembershipOracle:
    @settings(max_examples=150, deadline=None)
    @given(fam=_tube_families(), data=st.data())
    def test_membership_matches_definition(self, fam, data):
        coord = st.one_of(st.fractions(-5, 5, max_denominator=97),
                          st.integers(-10, 10).map(lambda k: F(k, 2)))
        pts = [(F(px, d), F(py, d)) for px, py, d in _slab_points(fam) + _circle_points(fam)]
        pts += _fold_edge_points(fam)
        pts += data.draw(st.lists(st.tuples(coord, coord), max_size=40))
        for beta in pts:
            assert I.tube_membership(beta, fam) == _oracle_member(beta, fam), beta


@functools.cache
def _samples(window):
    """The scan's 20 000 seeded sample points, built in Fractions."""
    rng = random.Random(0)
    res = 1 << 24
    wx, wy = window.x_hi - window.x_lo, window.y_hi - window.y_lo
    points = []
    for _ in range(20_000):
        x = window.x_lo + F(rng.randrange(res + 1), res) * wx
        y = window.y_lo + F(rng.randrange(res + 1), res) * wy
        points.append((x, y))
    return points


def _recount_scan(fams, window):
    """The grid-sample scan recounted point by point through tube_membership."""
    best, witness = 0, None
    floor = [pt for pt in (_floor_point(f, window) for f in fams) if pt is not None]
    for pt in _samples(window) + floor:
        c = sum(I.tube_membership(pt, f) for f in fams)
        if c > best:
            best, witness = c, pt
    return best, witness


def _exact_facts(rep):
    """What _recount_exact recomputes of an exact scan's report."""
    return rep.max_overlap, rep.witness, rep.candidates_checked


def _int_form(v):
    """(ax, ay, den) with v = (ax, ay) / den."""
    x, y = F(v[0]), F(v[1])
    den = math.lcm(x.denominator, y.denominator)
    return x.numerator * (den // x.denominator), y.numerator * (den // y.denominator), den


def _lattice_candidates(f1, f2, window):
    """The pair's in-window candidates in (a, b, o) order, a outermost, as
    triples (px, py, d): Cramer's rule on v1.beta = a/r1 + o1 2^-c and
    v2.beta = b/r2 + o2 2^-c at every plane-index pair (a, b) whose slabs
    meet the window's range of v1.beta and v2.beta, and at every offset o
    (the center, then the four corners).  [] for a parallel pair."""
    c, r1, r2 = f1.shift, f1.r, f2.r
    (ax1, ay1, k1), (ax2, ay2, k2) = _int_form(f1.v), _int_form(f2.v)
    det = ax1 * ay2 - ay1 * ax2
    if det == 0:
        return []
    sgn = 1 if det > 0 else -1
    d = sgn * det * r1 * r2 << c

    def indices(f):
        dots = [F(f.v[0]) * x + F(f.v[1]) * y
                for x in (window.x_lo, window.x_hi) for y in (window.y_lo, window.y_hi)]
        thick = F(1, 1 << c)
        return range(math.floor(f.r * (min(dots) - thick)),
                     math.ceil(f.r * (max(dots) + thick)) + 1)

    def inside(p, lo, hi):  # lo <= p / d <= hi
        return lo.numerator * d <= p * lo.denominator and p * hi.denominator <= hi.numerator * d

    pts = []
    for a in indices(f1):
        for b in indices(f2):
            for o1, o2 in ((0, 0), (-1, -1), (-1, 1), (1, -1), (1, 1)):
                # (ax1 x + ay1 y) / k1 = u / (r1 2^c) and (ax2 x + ay2 y) / k2 = w / (r2 2^c)
                u, w = (a << c) + o1 * r1, (b << c) + o2 * r2
                px = sgn * (k1 * ay2 * r2 * u - k2 * ay1 * r1 * w)
                py = sgn * (k2 * ax1 * r1 * w - k1 * ax2 * r2 * u)
                if inside(px, window.x_lo, window.x_hi) and inside(py, window.y_lo, window.y_hi):
                    pts.append((px, py, d))
    return pts


def _recount_exact(fams, window):
    """The exact scan recounted point by point through member(): every in-window
    candidate of every pair (``_lattice_candidates``), then the floor points."""
    pts = [pt for f1, f2 in itertools.combinations(fams, 2)
           for pt in _lattice_candidates(f1, f2, window)]
    pts += [pt for pt in (I._interior_point(f, window) for f in fams) if pt]
    best, witness = 0, None
    for px, py, d in pts:
        c = sum(f.member(px, py, d) for f in fams)
        if c > best:
            best, witness = c, (F(px, d), F(py, d))
    return best, witness, len(pts)


def _pairs_max(fams, window):
    """The largest count, through member(), at every pair's in-window
    candidates (``_lattice_candidates``): the scan's maximum without its floor."""
    return max((sum(f.member(*pt) for f in fams) for f1, f2 in itertools.combinations(fams, 2)
                for pt in _lattice_candidates(f1, f2, window)), default=0)


def _as_points(triples):
    """Triples (px, py, d) as Fraction points, so that scaled triples compare equal."""
    return [(F(px, d), F(py, d)) for px, py, d in triples]


def _floor_unproven(fams, window, best=0) -> bool:
    """Can the floor walks leave a maximum unproven?  In Fractions, within a
    parallel class of more than best families: a family whose thickened
    slabs meet the window and whose walk finds no point, or two families
    whose slabs meet it with r v != +-r' v'."""
    meets = [lo <= hi for lo, hi in (_fraction_plane_range(f, window) for f in fams)]
    rv = [(f.r * F(f.v[0]), f.r * F(f.v[1])) for f in fams]

    def parallel(i, j):
        return rv[i][0] * rv[j][1] == rv[i][1] * rv[j][0]

    big = [sum(parallel(i, j) for j in range(len(fams))) > best for i in range(len(fams))]
    if any(b and m and _floor_point(f, window) is None for f, m, b in zip(fams, meets, big)):
        return True
    return any(big[i] and meets[i] and meets[j] and parallel(i, j)
               and rv[j] not in (rv[i], (-rv[i][0], -rv[i][1]))
               for i, j in itertools.combinations(range(len(fams)), 2))


_REFUSAL = re.compile(r"(window|ball|origin-cell|slab|fold|floor) certificate fails")


def _scan_or_refusal(fams, window):
    """The exact scan's report, or None when the scan refuses with a
    ValueError that names a certificate.  A refusal that names a least C1
    gives the scan's one answer: the same families at that C1 pass every
    pair certificate, so only the floor certificate, which names no C1, may
    refuse them, and one below it they get the same refusal."""
    try:
        return I.max_overlap_scan(fams, window)
    except ValueError as exc:
        assert _REFUSAL.match(str(exc)), exc
        hint = re.search(r"C1 >= (\d+) passes it$", str(exc))
        if hint:
            c1 = int(hint[1])
            try:  # every pair passes at c1, so only the floor certificate may refuse
                I.max_overlap_scan([dataclasses.replace(f, C1=c1) for f in fams], window)
            except ValueError as floor:
                assert str(floor).startswith("floor certificate fails"), floor
            with pytest.raises(ValueError) as again:
                I.max_overlap_scan([dataclasses.replace(f, C1=c1 - 1) for f in fams], window)
            assert str(again.value) == str(exc)
        return None


def _fold_moves(fams, window) -> bool:
    """Does the fold move a window point's membership?  A torus side of 1 moves
    the edge x = 1/2 or y = 1/2 to -1/2, which a family notices unless a unit
    shift changes r v . beta by an integer."""
    return (fams[0].torus_side == 1 and F(1, 2) in (window.x_hi, window.y_hi)
            and any(F(f.r * f.v[0]).denominator > 1 or F(f.r * f.v[1]).denominator > 1
                    for f in fams))


def _deltas(fams) -> list[int]:
    """|Delta| over the non-parallel pairs, in pair order."""
    return [abs(f.ax * g.ay - f.ay * g.ax) for f, g in itertools.combinations(fams, 2)
            if f.ax * g.ay != f.ay * g.ax]


def _pair_failures(fams, window) -> list:
    """The certificates that each non-parallel pair fails after the scan's
    first pass (``_pair_failures``), one list per pair, in pair order."""
    n = len(fams)
    cross = [[f.ax * g.ay - f.ay * g.ax for g in fams] for f in fams]
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if cross[i][j]]
    ranges = [I._plane_range(f, window) for f in fams]
    cells = {(i, j): I._pair_centers(fams[i], fams[j], cross[i][j], ranges[i], ranges[j],
                                     window)[1] for i, j in pairs}
    fails = I._pair_failures(fams, pairs, cross, cells, window)
    return [[(name, bits) for name, k, m, bits in fails if (k, m) == pair] for pair in pairs]


def _refused_pairs(fams, window) -> int:
    """How many of the scan's non-parallel pairs a certificate refuses: all of
    them when the fold certificate fails, else those that fail one of
    ``_failed_certificates`` after the scan's first pass."""
    try:
        I._fold_certificate(fams, window)
    except ValueError:
        return len(_deltas(fams))
    return sum(map(bool, _pair_failures(fams, window)))


class TestInt64Counts:
    """The scan against member() at every point it answers for, and its
    refusals, which name a certificate."""

    # dyadic windows, one with thirds and fifths, and a tiny one whose edge
    # denominators put the samples' common denominator near 2^50
    WINDOWS = (
        I.ScanWindow(F(-1, 2), F(1, 2), F(-1, 2), F(1, 2)),
        I.ScanWindow(F(-1), F(1), F(-1, 2), F(3, 4)),
        I.ScanWindow(F(-1, 3), F(2, 5), F(-1, 3), F(2, 5)),
        I.ScanWindow(F(1, 7), F(1, 7) + F(1, 10**6), F(1, 11), F(1, 11) + F(1, 10**6)),
    )

    EXACT_WINDOWS = (
        I.ScanWindow(F(-1, 16), F(1, 16), F(-1, 16), F(1, 16)),
        I.ScanWindow(F(1, 7), F(1, 7) + F(1, 20), F(-1, 3), F(-1, 3) + F(1, 30)),
    )

    def test_exact_scan_equals_recount(self):
        """The exact scan refuses, naming a certificate, or equals member() at
        every candidate; both outcomes are drawn."""
        refused = set()

        @settings(max_examples=25, deadline=None)
        @given(fams=_family_lists(1, 3), win=st.sampled_from(self.EXACT_WINDOWS))
        def check(fams, win):
            rep = _scan_or_refusal(fams, win)
            if rep is not None:
                assert rep.method == "exact-candidates"
                assert _exact_facts(rep) == _recount_exact(fams, win)
            refused.add(rep is None)

        check()
        assert refused == {False, True}

    # windows for the plane-index counter: one holding the origin, one off it,
    # one with the origin (always a cell center) on its left edge, and one
    # whose edge x = 1/2 a torus side of 1 folds to -1/2, which only a family
    # that a unit shift moves notices
    INDEX_WINDOWS = EXACT_WINDOWS + (
        I.ScanWindow(F(0), F(1, 8), F(-1, 16), F(1, 16)),
        I.ScanWindow(F(7, 16), F(1, 2), F(-1, 16), F(1, 16)),
    )

    def test_index_scan_equals_recount(self):
        """The scan refuses, naming a certificate, or equals member() at every
        candidate; it accepts every large C1 at s >= 1 with a small radius, a
        fold that moves nothing and floor walks that cannot leave the maximum
        unproven.  Both outcomes are drawn."""
        refused = set()

        @settings(max_examples=150, deadline=None)
        @given(case=_one_geometry_families(), win=st.sampled_from(self.INDEX_WINDOWS))
        def check(case, win):
            fams, large = case
            rep = _scan_or_refusal(fams, win)
            if (large and fams[0].s and not _fold_moves(fams, win)
                    and fams[0].exclusion_radius < F(1, 3) and not _floor_unproven(fams, win)):
                assert rep is not None
            if rep is not None:
                assert rep.method == "exact-candidates"
                assert _exact_facts(rep) == _recount_exact(fams, win)
            refused.add(rep is None)

        check()
        assert refused == {False, True}

    @pytest.mark.parametrize("fams,window,refused", [
        # the origin, a cell center, on the window's left edge
        (_axis_families(), I.ScanWindow(F(0), F(1, 2), F(-1, 4), F(1, 4)), 0),
        # the origin cell without an exclusion ball, and inside a small one
        (_axis_families(), I.default_window("ktilde"), 0),
        (_axis_families(ex=F(1, 10**6)), I.default_window("ktilde"), 0),
        # a ball too small to hold the origin cell's corners, in a window
        # that holds only that cell: every pair is refused
        (_axis_families(C1=8, ex=F(1, 1000)), I.ScanWindow(F(0), F(1, 4), F(0), F(1, 4)), 3),
        # a ball wider than 1 / (|Delta| r_i r_j), but narrower than the
        # nearest in-window nonzero center of every pair, at 1/2
        (_axis_families(ex=F(1, 3)), I.default_window("ktilde"), 0),
        # s = 0, so r = 1 and the shift is 0: no certificate holds
        (_axis_families(r=(1, 1, 1), s=0), I.default_window("ktilde"), 3),
        # a different r per family
        (_axis_families(r=(2, 3, 2)), I.default_window("ktilde"), 0),
        # 2^c = 4 is not above r_i r_j W max(Kx, Ky) >= 4: no window
        # certificate holds
        (_axis_families(C1=2), I.default_window("ktilde"), 3),
        # the k window against a torus side of 1, whose fold moves the edges
        # x = 1/2 and y = 1/2 to -1/2 but no integer direction's planes, and
        # against a side of 2, whose fold moves no window point
        (_axis_families(side=1), I.default_window("k"), 0),
        (_axis_families(side=2), I.default_window("k"), 0),
        # a slab 2^-8 off the lattice point (1/2, 0) of the axis pair covers
        # it: the window certificate holds there and the slab one fails
        (_axis_families(C1=8)[:2] + [I.TubeFamily(v=(F(257, 256), F(0)), r=2, s=1, C1=8)],
         I.default_window("ktilde"), 2),
        # the axis pair's center (0, 0) lies just left of the window and its
        # corners (2^-8, +-2^-8) inside it: the window certificate fails
        (_axis_families(C1=8)[:2], I.ScanWindow(F(1, 512), F(1, 4), F(-1, 4), F(1, 4)), 1),
    ])
    def test_index_certificates_pinned(self, fams, window, refused):
        """``refused`` pairs of the scan fail a certificate: with none the scan
        equals member() at every candidate, and otherwise it refuses."""
        if window.x_lo == 0:
            assert (F(0), F(0)) in _centers(fams[0], fams[1], window)
        assert _refused_pairs(fams, window) == refused
        rep = _scan_or_refusal(fams, window)
        assert (rep is None) == (refused > 0)
        if rep is not None:
            assert _exact_facts(rep) == _recount_exact(fams, window)

    @pytest.mark.parametrize("fams,window,message", [
        (_axis_families(C1=8, ex=F(1, 1000)), I.ScanWindow(F(0), F(1, 4), F(0), F(1, 4)),
         "origin-cell certificate fails for pair (0, 2); C1 >= 12 passes it"),
        (_axis_families(r=(1, 1, 1), s=0), I.default_window("ktilde"),
         "window certificate fails for pair (0, 1); no C1 passes it"),
        # the window certificate passes from C1 = 3 and the slab one from 5:
        # the refusal names the larger
        (_axis_families(C1=2), I.default_window("ktilde"),
         "slab certificate fails for pair (0, 1); C1 >= 5 passes it"),
        # pair (0, 1) passes the slab bound from C1 = 13, pair (1, 2) from 21
        (_axis_families(C1=8)[:2] + [I.TubeFamily(v=(F(257, 256), F(0)), r=2, s=1, C1=8)],
         I.default_window("ktilde"), "slab certificate fails for pair (1, 2); C1 >= 21 passes it"),
        (_axis_families(C1=8)[:2], I.ScanWindow(F(1, 512), F(1, 4), F(-1, 4), F(1, 4)),
         "window certificate fails for pair (0, 1); C1 >= 12 passes it"),
        # the nearest nonzero center of the axis pair, (1/2, 0), lies on the
        # ball; inside a smaller ball its cell's corners reach 2 2^-3 from it
        (_axis_families(ex=F(1, 2)), I.default_window("ktilde"),
         "ball certificate fails for pair (0, 1); no C1 passes it"),
        (_axis_families(C1=3, ex=F(2, 5)), I.default_window("ktilde"),
         "ball certificate fails for pair (0, 1); C1 >= 5 passes it"),
        # a unit shift moves the planes of v = (1/3, 0) at r = 2
        (_axis_families(side=1)[1:] + [I.TubeFamily(v=(F(1, 3), F(0)), r=2, s=1, C1=40,
                                                    torus_side=1)],
         I.default_window("k"), "fold certificate fails: the window reaches the edge 1/2, "
                                "and a shift by the torus side moves family 2"),
        (_axis_families(side=1), I.ScanWindow(F(-1, 2), F(3, 4), F(-1, 2), F(1, 2)),
         "fold certificate fails: the window leaves [-1/2, 1/2]^2"),
        # |Delta| is 1 for the pair (0, 1) and 35 and 45 for the others: the
        # per-scan origin-cell bound divides by the least |Delta|, and only
        # it fails at C1 = 13, where pair (0, 1) fails too
        ([I.TubeFamily(v=(F(a), F(b)), r=2, s=1, C1=13, exclusion_radius=F(1, 10**4))
          for a, b in ((5, 4), (4, 3), (-5, 5))], I.default_window("ktilde"),
         "origin-cell certificate fails for pair (0, 1); C1 >= 18 passes it"),
    ], ids=["origin-cell", "window-s0", "window", "slab", "window-edge", "ball-center",
            "ball-reach", "fold-shift", "fold-box", "origin-cell-spread"])
    def test_certificate_refusal_named(self, fams, window, message):
        with pytest.raises(ValueError) as info:
            I.max_overlap_scan(fams, window)
        assert str(info.value) == message
        assert _scan_or_refusal(fams, window) is None  # a named C1 is accepted

    def test_nearest_center_ball_certifies(self):
        # the N = 4, seed-0 ktilde families at s = 6 and the default C1: for
        # one pair the ball bound with a center at 1/G fails, and its nearest
        # in-window nonzero center clears the ball
        ds = directions.rescale_to_integers(
            directions.construct_directions(directions.DirectionSpec(N=4, eps=0.5, seed=0)))
        fams, window = I.families_from_direction_set(ds, s=6), I.default_window("ktilde")
        c, ex_n, ex_d = fams[0].shift, fams[0].ex_n, fams[0].ex_d
        coarse = 0
        for fi, fj in itertools.combinations(fams, 2):
            rr = fi.r * fj.r
            G = abs(fi.ax * fj.ay - fi.ay * fj.ax) * rr
            Kx, Ky = I._reach(fi, fj)
            coarse += (ex_d - ex_n * G) << c <= ex_d * (Kx + Ky) * rr
        assert coarse == 1
        rep = I.max_overlap_scan(fams, window)
        assert (rep.max_overlap, rep.shared_centers) == (2, 0)
        assert _exact_facts(rep) == _recount_exact(fams, window)

    def test_ball_bound_at_its_edge(self):
        # v = (2, 1) at r = 2 and (1, 1) at r = 3: Delta = 1, G = 6, and an
        # in-window center at max-norm distance 1/G from the origin.  With
        # the radius 1/81, x = 81 - 6 = 75 and reach = 81 (Kx + Ky) r_i r_j =
        # 81 5 6 = 2430, so x 2^5 = 2400 <= 2430 < x 2^6: the ball
        # certificate fails at C1 = 5, by less than 2^5, and passes at 6
        window = I.default_window("ktilde")
        for c1, want in ((5, [("ball", 6)]), (6, [])):
            fi = I.TubeFamily(v=(F(2), F(1)), r=2, s=1, C1=c1, exclusion_radius=F(1, 81))
            fj = I.TubeFamily(v=(F(1), F(1)), r=3, s=1, C1=c1, exclusion_radius=F(1, 81))
            _, keys = I._pair_centers(fi, fj, 1, I._plane_range(fi, window),
                                      I._plane_range(fj, window), window)
            # the center (kx, ky) / kd lies max(|kx|, |ky|) G / kd from the origin over G
            assert min(max(abs(kx), abs(ky)) * 6 // kd for kx, ky, kd in filter(None, keys)) == 1
            assert [f for f in _pair_failures([fi, fj], window)[0] if f[0] == "ball"] == want

    def test_scan_bounds_imply_pair_certificates(self):
        """Whenever the per-scan bounds pass, no pair fails a certificate; at
        the strategy's small and large C1 both outcomes of the bounds occur."""
        certified = set()

        @settings(max_examples=200, deadline=None)
        @given(fams=st.one_of(_one_geometry_families().map(lambda case: case[0]),
                              _concurrent_families(), _family_lists(2, 3)),
               win=st.sampled_from(self.INDEX_WINDOWS))
        def check(fams, win):
            if _deltas(fams):
                ok = I._scan_certified(fams, _deltas(fams), win)
                if ok:
                    assert not any(_pair_failures(fams, win))
                certified.add(ok)

        check()
        assert certified == {False, True}

    @pytest.mark.parametrize("fams,window,want", [
        # the per-scan ball bound fails, as each pair's test with a center
        # 1/G = 1/4 from the origin does, and each pair's nearest in-window
        # nonzero center, 1/2 away, clears the ball 1/3
        (_axis_families(ex=F(1, 3)), I.default_window("ktilde"),
         (3, (F(-1), F(-1)), 286, 72)),
        # the N = 4, seed-0 ktilde families at s = 6, as in
        # test_nearest_center_ball_certifies
        (None, I.default_window("ktilde"),
         (2, (F(-2851750, 3096741), F(-2653750, 3096741)), 974, 0)),
    ], ids=["axes", "n4-s6"])
    def test_scan_bound_fails_every_pair_passes(self, fams, window, want):
        """A scan whose ball bound fails while every pair passes its ball
        test is answered, with the report the pair-by-pair scan gave."""
        if fams is None:
            ds = directions.rescale_to_integers(
                directions.construct_directions(directions.DirectionSpec(N=4, eps=0.5, seed=0)))
            fams = I.families_from_direction_set(ds, s=6)
        assert not I._scan_certified(fams, _deltas(fams), window)
        assert _refused_pairs(fams, window) == 0
        rep = I.max_overlap_scan(fams, window)
        assert rep.method == "exact-candidates"
        assert (rep.max_overlap, rep.witness, rep.candidates_checked, rep.shared_centers) == want

    def test_concurrent_planes_scan_equals_recount(self):
        """Centers that lie on a third family's central plane count the
        families of every pair that holds them; the scan must refuse, naming
        a certificate, or still equal member() at every candidate.  Some
        drawn scans refuse, and some accepted ones count such centers."""
        shared = set()

        @settings(max_examples=120, deadline=None)
        @given(fams=_concurrent_families(), win=st.sampled_from(self.INDEX_WINDOWS))
        def check(fams, win):
            rep = _scan_or_refusal(fams, win)
            if rep is not None:
                assert rep.method == "exact-candidates"
                assert _exact_facts(rep) == _recount_exact(fams, win)
            shared.add(None if rep is None else rep.shared_centers > 0)

        check()
        assert shared == {None, False, True}

    def test_benchmark_inputs_take_index_path(self, toy_ds):
        # the ktilde families of the benchmark's N = 8 and N = 16 seed-0
        # sets, and the toy set
        window = I.default_window("ktilde")
        cases = []
        for n, levels in ((8, (3,)), (16, (3, 4))):
            spec = directions.DirectionSpec(N=n, eps=0.5, seed=0)
            ds = directions.rescale_to_integers(directions.construct_directions(spec))
            cases += [I.families_from_direction_set(ds, s=s) for s in levels]
        for fams in cases + [I.families_from_direction_set(toy_ds, s=2)]:
            rep = I.max_overlap_scan(fams, window)
            # every certificate holds for every pair, and no center lies on a
            # third family's plane
            assert rep.shared_centers == 0
            assert _exact_facts(rep) == _recount_exact(fams, window)

    def test_axis_families_count_shared_centers(self):
        # the diagonal is the sum of the axes at one r, so every center of
        # the axis pair but the origin lies on a diagonal plane; at C1 = 6
        # the scan's slab bound fails for one pair, and the scan refuses
        window = I.default_window("ktilde")
        fams = _axis_families(r=(2, 3, 3), C1=6)
        assert _refused_pairs(fams, window) == 1
        with pytest.raises(ValueError, match=r"^slab .* pair \(1, 2\); C1 >= 7 passes it$"):
            I.max_overlap_scan(fams, window)
        fams = _axis_families(r=(2, 3, 3), C1=7)
        assert _exact_facts(I.max_overlap_scan(fams, window)) == _recount_exact(fams, window)
        rep = I.max_overlap_scan(_axis_families(), window)
        assert rep.shared_centers > 0
        assert rep.max_overlap == 3

    @pytest.mark.parametrize("v", [(F(1), F(0)), (F(3), F(-5, 2))])
    def test_floor_witness_is_first_interior_point(self, v):
        # parallel copies have no pair candidates, so the floor decides
        fams = [I.TubeFamily(v=v, r=4, s=2, C1=8)] * 4
        win = I.default_window("ktilde")
        rep = I.max_overlap_scan(fams, win)
        assert rep.witness == _floor_point(fams[0], win)
        assert rep.max_overlap == rep.family_count == 4
        assert rep.candidates_checked == 4

    @pytest.mark.parametrize("v,ks,rs,corner,beyond", [
        # counts 1 2 2 1 2, yet (-3/10, 4/15) lies in 4 of the 5 families
        ((1, 3), (2, 1, 1, 3, 2), (4, 6, 5, 6, 5), (F(-3, 7), F(2, 9)), ((F(-3, 10), F(4, 15)), 4)),
        ((1, 0), (3, 1, 1, 3, 2), (4, 5, 4, 5, 5), (F(-4, 7), F(2, 9)), None),  # counts 1 3 3 3 3
    ])
    def test_parallel_floor_on_different_planes_refused(self, v, ks, rs, corner, beyond):
        # parallel directions with different r v: the floor points differ, and
        # the maximum of their counts is reached at more than one of them, but
        # a point off every floor point can lie in more families (in the first
        # case it does); there is no pair candidate, so the scan refuses
        fams = [I.TubeFamily(v=(F(k * v[0]), F(k * v[1])), r=r, s=2, C1=8)
                for k, r in zip(ks, rs)]
        x0, y0 = corner
        win = I.ScanWindow(x0, x0 + F(1, 3), y0, y0 + F(1, 4))
        floor = [_floor_point(f, win) for f in fams]
        counts = [sum(I.tube_membership(pt, f) for f in fams) for pt in floor]
        first = counts.index(max(counts))
        assert first > 0 and any(c == counts[first] and pt != floor[first]
                                 for c, pt in zip(counts[first + 1:], floor[first + 1:]))
        assert _floor_unproven(fams, win) and not I._floor_certified(fams[0], win)
        with pytest.raises(ValueError, match=r"^floor certificate fails for pair \(0, 1\): "
                                             r"parallel families on different planes$"):
            I.max_overlap_scan(fams, win)
        if beyond:
            pt, count = beyond
            assert win.contains(*pt) and count > max(counts)
            assert sum(I.tube_membership(pt, f) for f in fams) == count

    @pytest.mark.parametrize("win", WINDOWS)
    @settings(max_examples=3, deadline=None)
    @given(fams=_family_lists(1, 3))
    def test_sample_scan_equals_recount(self, win, fams):
        # budget -1: a list without a non-parallel pair has 0 candidates
        with mock.patch.object(I, "_EXACT_BUDGET", -1):
            rep = I.max_overlap_scan(fams, win)
        assert rep.method == "grid-sample"
        assert (rep.max_overlap, rep.witness) == _recount_scan(fams, win)


@functools.cache
def _uncapped_grid_sample(fams: tuple, win):
    """(best, witness) of the grid sample with every one of its 20 000 samples,
    built in Fractions, counted through the Fraction oracle ``_oracle_member``
    (seconds on the benchmark's families, so cached)."""
    best, witness = 0, None
    for pt in _samples(win):
        c = sum(_oracle_member(pt, f) for f in fams)
        if c > best:
            best, witness = c, pt
    return best, witness


def _counted_floor_scan(fams, window):
    """(max_overlap, witness, candidates_checked) of a grid-sample scan with
    every sample and every floor point counted through member()."""
    best, witness = _uncapped_grid_sample(tuple(fams), window)
    floor = [pt for pt in (I._interior_point(f, window) for f in fams) if pt is not None]
    for px, py, d in floor:
        c = sum(f.member(px, py, d) for f in fams)
        if c > best:
            best, witness = c, (F(px, d), F(py, d))
    return best, witness, I._SAMPLES + len(floor)


def _seed0_n8_k_families():
    spec = directions.DirectionSpec(N=8, eps=0.5, seed=0)
    ds = directions.rescale_to_integers(directions.construct_directions(spec))
    return I.families_from_direction_set(ds, s=3, variant="k")


def _thin_unit_torus_families(vs, r, C1):
    return [I.TubeFamily(v=(F(vx), F(vy)), r=r, s=2, C1=C1, torus_side=1) for vx, vy in vs]


class TestFamilyCountCeiling:
    """The grid sample stops at the first sample that reaches the family
    count, and the floor points are not counted once the maximum is the
    family count; neither changes a report."""

    @pytest.mark.parametrize("make,counted", [
        # the benchmark's k families: every sample lies on a plane of every
        # family, so the first sample reaches the ceiling
        (_seed0_n8_k_families, 1),
        # thin axis families: one family covers sample 35, both first cover
        # sample 7544 (counting from 0)
        (lambda: _thin_unit_torus_families(((1, 0), (0, 1)), r=5, C1=5), 7545),
        # thinner still: no sample is covered by both
        (lambda: _thin_unit_torus_families(((1, 0), (0, 1)), r=4, C1=9), 20_000),
    ])
    def test_grid_sample_equals_uncapped(self, make, counted, monkeypatch):
        fams = make()
        window = I.default_window("k")
        best, witness = _uncapped_grid_sample(tuple(fams), window)
        assert (best == len(fams)) == (counted < 20_000)
        if counted < 20_000:  # the witness is the last sample counted
            assert witness == _samples(window)[counted - 1]
        assert I._grid_sample(fams, window) == (best, witness, counted)
        monkeypatch.setattr(I, "_EXACT_BUDGET", -1)
        rep = I.max_overlap_scan(fams, window)
        assert rep.method == "grid-sample"
        assert rep.samples_counted == counted
        assert (rep.max_overlap, rep.witness, rep.candidates_checked) == \
            _counted_floor_scan(fams, window)

    def test_constructed_k_scans_stop_at_first_sample(self):
        # the benchmark's k scans rest on this: under the product rescaling
        # every integer vector of an N >= 8 set is divisible by 2^45 or more,
        # so the first sample, on the 2^-24 grid, lies on a plane of every
        # family (r = 2^s) and the grid sample counts one sample.  A
        # rescaling that leaves fewer factors of 2 in the vectors (the lcm
        # item) fails here; the N = 4 sets, divisible only by 2^18 to 2^21,
        # already do
        for seed, n in itertools.product(range(3), (8, 16)):
            ds = directions.rescale_to_integers(
                directions.construct_directions(directions.DirectionSpec(N=n, eps=0.5, seed=seed)))
            for s in range(1, 5):
                rep = I.max_overlap_scan(I.families_from_direction_set(ds, s=s, variant="k"),
                                         I.default_window("k"))
                assert (rep.method, rep.max_overlap, rep.samples_counted) == ("grid-sample", n, 1)

    @staticmethod
    def _floor_counts(fams, window):
        """The report, and the member() calls the scan makes outside the floor
        walks and the grid sample: the floor's counts, since the exact branch
        calls no member()."""
        counts, inside = [], []
        real_member = I.TubeFamily.member

        def member(self, *a):
            if not inside:
                counts.append(a)
            return real_member(self, *a)

        def marked(real):
            def call(*a):
                inside.append(real)
                try:
                    return real(*a)
                finally:
                    inside.pop()
            return call

        with mock.patch.object(I.TubeFamily, "member", member), \
                mock.patch.object(I, "_interior_point", marked(I._interior_point)), \
                mock.patch.object(I, "_grid_sample", marked(I._grid_sample)):
            return I.max_overlap_scan(fams, window), counts

    def test_ceiling_skips_floor_batch(self):
        exact = (_axis_families()[:2], I.default_window("ktilde"))
        sample = (_seed0_n8_k_families(), I.default_window("k"))
        reports = []
        for fams, window in (exact, sample):
            rep, counted = self._floor_counts(fams, window)
            assert counted == []  # the scan did not count its floor points
            reports.append(rep)
        rep = reports[0]
        assert (rep.method, rep.max_overlap, rep.samples_counted) == ("exact-candidates", 2, 0)
        assert _exact_facts(rep) == _recount_exact(*exact)
        rep = reports[1]
        assert (rep.method, rep.max_overlap) == ("grid-sample", 8)
        assert (rep.max_overlap, rep.witness, rep.candidates_checked) == \
            _counted_floor_scan(*sample)

    def test_floor_batch_counted_below_ceiling(self):
        # one family, no pair: the floor point alone reaches the maximum
        fams = _axis_families()[:1]
        rep, counted = self._floor_counts(fams, I.default_window("ktilde"))
        # the certified window gives the walk's point in closed form
        assert _as_points(counted) == [_floor_point(fams[0], I.default_window("ktilde"))]
        assert (rep.max_overlap, rep.candidates_checked) == (1, 1)

    def test_certified_maximum_skips_floor_batch(self):
        # the benchmark's N = 8 ktilde families: the exact branch reaches 2 of
        # 8, which its pair candidates certify, so none of the floor's 8
        # points reaches member() (candidates_checked keeps them, and the
        # floor certificate counts them without a walk)
        ds = directions.rescale_to_integers(
            directions.construct_directions(directions.DirectionSpec(N=8, eps=0.5, seed=0)))
        fams, window = I.families_from_direction_set(ds, s=3), I.default_window("ktilde")
        rep, counted = self._floor_counts(fams, window)
        assert (rep.method, rep.max_overlap, rep.family_count) == ("exact-candidates", 2, 8)
        assert counted == []
        assert _exact_facts(rep) == _recount_exact(fams, window)

    def test_parallel_copies_beat_pair_maximum(self):
        # three copies of a vertical family and a pair that reaches 2 where
        # the copies' strip x = 1/4 meets neither of them: only the floor
        # point counts 3, so the floor is counted although the pairs reach 2
        a = I.TubeFamily(v=(F(1), F(0)), r=4, s=2, C1=8)
        b = I.TubeFamily(v=(F(1), F(1)), r=4, s=2, C1=8)
        c = I.TubeFamily(v=(F(1), F(-1)), r=5, s=2, C1=8)
        fams, window = [a, a, a, b, c], I.ScanWindow(F(1, 10), F(1, 2), F(3, 20), F(7, 40))
        assert _pairs_max(fams, window) == 2
        # walks that found nothing would prove nothing: the scan refuses
        with mock.patch.object(I, "_interior_point", lambda fam, win: None), \
                pytest.raises(ValueError, match=r"^floor certificate fails for family 0: "):
            I.max_overlap_scan(fams, window)
        rep, counted = self._floor_counts(fams, window)
        assert (rep.method, rep.max_overlap) == ("exact-candidates", 3)
        assert rep.witness == _floor_point(a, window)
        floor = [pt for pt in (I._interior_point(f, window) for f in fams) if pt is not None]
        assert counted == [pt for pt in floor for _ in fams]
        assert _exact_facts(rep) == _recount_exact(fams, window)

    def test_floor_never_beats_certified_maximum(self):
        """Once the pair candidates reach 2 and the largest parallel class the
        scan counts no floor point, and none lies in more families than the
        reported maximum; below that it counts every floor point against
        every family.  Both sides are drawn, and so are scans that refuse,
        naming a certificate; one explicit example of each keeps all three
        in every run, since 80 draws do not always reach each."""
        certified = set()
        window = I.default_window("ktilde")
        parallel = [I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=40)] * 2

        @settings(max_examples=80, deadline=None)
        @given(case=_one_geometry_families(),
               win=st.sampled_from(TestInt64Counts.INDEX_WINDOWS))
        @example(case=(_axis_families(), True), win=window)  # the pairs reach 3
        @example(case=(parallel, True), win=window)  # no pair: the floor decides
        @example(case=(_axis_families(C1=2), False), win=window)  # refused
        def check(case, win):
            fams, _ = case
            try:
                rep, counted = self._floor_counts(fams, win)
            except ValueError as exc:
                assert _REFUSAL.match(str(exc)), exc
                certified.add(None)
                return
            assert rep.method == "exact-candidates"
            floor = [pt for pt in (I._interior_point(f, win) for f in fams) if pt is not None]
            assert all(sum(f.member(*pt) for f in fams) <= rep.max_overlap for pt in floor)
            pairs_max = _pairs_max(fams, win)
            par = max(sum(f.ax * g.ay == f.ay * g.ax for g in fams) for f in fams)
            if pairs_max >= max(2, par):
                assert counted == [] and rep.max_overlap == pairs_max
            else:
                assert _as_points(counted) == _as_points([pt for pt in floor for _ in fams])
            certified.add(pairs_max >= 2)

        check()
        assert certified == {None, False, True}


def _fraction_plane_range(fam: I.TubeFamily, window: I.ScanWindow) -> tuple[int, int]:
    """Plane indices a whose thickened slab meets the window, in plain Fractions."""
    vx, vy = F(fam.v[0]), F(fam.v[1])
    dots = [vx * x + vy * y for x in (window.x_lo, window.x_hi) for y in (window.y_lo, window.y_hi)]
    return (math.ceil((min(dots) - fam.thickness) * fam.r),
            math.floor((max(dots) + fam.thickness) * fam.r))


def _fraction_interior_point(fam: I.TubeFamily, window: I.ScanWindow):
    """The floor walk in plain Fractions, one trial at a time through
    tube_membership: from the window center along v to the planes a/r
    nearest it, then along each plane by multiples of a quarter side
    times the direction (-vy, vx) / (|vx| + |vy|)."""
    vx, vy = F(fam.v[0]), F(fam.v[1])
    n2, n1 = vx * vx + vy * vy, abs(vx) + abs(vy)
    cx, cy = (window.x_lo + window.x_hi) / 2, (window.y_lo + window.y_hi) / 2
    t0 = vx * cx + vy * cy
    a0 = round(t0 * fam.r)
    quarter = min(window.x_hi - window.x_lo, window.y_hi - window.y_lo) / 4
    for a in (a0, a0 - 1, a0 + 1, a0 - 2, a0 + 2):
        lam = (F(a, fam.r) - t0) / n2
        px, py = cx + lam * vx, cy + lam * vy
        for mu in (F(0), quarter, -quarter, 2 * quarter, -2 * quarter):
            x, y = px - mu * vy / n1, py + mu * vx / n1
            if window.contains(x, y) and I.tube_membership((x, y), fam):
                return x, y
    return None


def _counted_interior_point(fam: I.TubeFamily, win: I.ScanWindow):
    """The integer floor walk with its in-window trials collected first and
    then tested through the Fraction oracle ``_oracle_member``, the first
    covered trial kept."""
    ax, ay, den, r = fam.ax, fam.ay, fam.den, fam.r
    x0, x1, y0, y1, W = win.x0, win.x1, win.y0, win.y1, win.W
    S, T, n1 = ax * ax + ay * ay, ax * (x0 + x1) + ay * (y0 + y1), abs(ax) + abs(ay)
    d, step = 4 * W * r * S * den * n1, r * S * den * min(x1 - x0, y1 - y0)
    c = 2 * r * S * den * n1
    cx, cy = c * (x0 + x1), c * (y0 + y1)
    a0 = round(F(r * T, 2 * W * den))
    trials = []
    for a in (a0, a0 - 1, a0 + 1, a0 - 2, a0 + 2):
        lam = 2 * den * n1 * (2 * W * den * a - r * T)
        for m in (0, 1, -1, 2, -2):
            px, py = cx + lam * ax - m * step * ay, cy + lam * ay + m * step * ax
            if win.mask(px, py, d):
                trials.append((px, py))
    for px, py in trials:
        if _oracle_member((F(px, d), F(py, d)), fam):
            return px, py, d
    return None


@st.composite
def _windows(draw):
    """Default, off-centre and single-point windows, and one drawn at random."""
    corner = st.fractions(-1, 1, max_denominator=30)
    side = st.fractions(0, 2, max_denominator=30)
    x0, y0 = draw(corner), draw(corner)
    drawn = I.ScanWindow(x0, x0 + draw(side), y0, y0 + draw(side))
    return draw(st.sampled_from((
        I.default_window("k"), I.default_window("ktilde"),
        I.ScanWindow(F(1, 7), F(1, 7) + F(1, 3), F(-2, 9), F(-2, 9) + F(1, 4)),
        I.ScanWindow(F(-5, 3), F(-1, 2), F(2, 5), F(9, 7)),
        I.ScanWindow(F(1, 3), F(1, 3), F(-2, 7), F(-2, 7)),
        I.ScanWindow(F(0), F(0), F(0), F(0)),
        drawn,
    )))


class TestFloorWalkOracle:
    """The integer floor walk and plane range against their Fraction forms."""

    @pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (5, 2), (-1, 2), (-3, 2), (-5, 2),
                                     (6, 4), (-6, 4), (10, 4), (0, 7), (-1, 3), (-2, 3),
                                     (2 * 10**30 + 1, 2), (-(2 * 10**30 + 3), 2)])
    def test_round_half_even_pinned(self, n, d):
        # ties, in both signs and unreduced, and values on either side of them
        assert I._round_half_even(n, d) == round(F(n, d))

    @given(n=st.integers(-10**40, 10**40), d=st.integers(1, 10**6))
    def test_round_half_even(self, n, d):
        assert I._round_half_even(n, d) == round(F(n, d))
        tie = ((2 * n + 1) * d, 2 * d)  # n + 1/2, unreduced
        assert I._round_half_even(*tie) == round(F(*tie)) == n + (n & 1)

    @settings(max_examples=300, deadline=None)
    @given(fam=_tube_families(), window=_windows(), shrink=st.sampled_from((1, 12, 40)))
    def test_integer_walk_equals_fraction_walk(self, fam, window, shrink):
        # dividing v by shrink spreads the planes, 1/(r |v|) apart, so walks
        # whose nearest planes miss the window, or whose trials sit at the
        # window edges, are exercised, and raises the denominator den of v
        fam = I.TubeFamily(v=(fam.v[0] / shrink, fam.v[1] / shrink), r=fam.r, s=fam.s,
                           C1=fam.C1, exclusion_radius=fam.exclusion_radius,
                           torus_side=fam.torus_side)
        assert I._plane_range(fam, window) == _fraction_plane_range(fam, window)
        assert _floor_point(fam, window) == _fraction_interior_point(fam, window)

    @settings(max_examples=300, deadline=None)
    @given(fam=_tube_families(), window=_windows(), shrink=st.sampled_from((1, 12, 40)))
    def test_walk_equals_counted_walk(self, fam, window, shrink):
        # the walk tests one trial at a time through member(); testing all
        # in-window trials through the Fraction oracle must keep the same
        # first covered trial
        fam = I.TubeFamily(v=(fam.v[0] / shrink, fam.v[1] / shrink), r=fam.r, s=fam.s,
                           C1=fam.C1, exclusion_radius=fam.exclusion_radius,
                           torus_side=fam.torus_side)
        assert I._interior_point(fam, window) == _counted_interior_point(fam, window)

    @pytest.mark.parametrize("ex,window,want", [
        # the window center sits midway between the planes x = 0 and x = 1/2:
        # t0 r = 1/2 rounds to the even plane 0, whose first trial (0, 0) is
        # on the window edge; rounding half up would give (1/2, 0)
        (F(0), I.ScanWindow(F(0), F(1, 2), F(-1, 4), F(1, 4)), (F(0), F(0))),
        # the origin is excluded, so the walk slides along plane 0, up first
        (F(1, 10), I.default_window("k"), (F(0), F(1, 4))),
    ])
    def test_explicit_walks(self, ex, window, want):
        fam = I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=8, exclusion_radius=ex)
        assert _floor_point(fam, window) == want
        assert _fraction_interior_point(fam, window) == want

    def test_long_direction_still_finds_floor(self):
        # with v = (30, 0) the planes near the center lie inside the excluded
        # ball, so the floor point is a step along plane 0; the steps must
        # not grow with |v|, or they all leave the window
        fam = I.TubeFamily(v=(30, 0), r=2, s=1, C1=8, exclusion_radius=F(1, 10), torus_side=1)
        rep = I.max_overlap_scan([fam], I.default_window("k"))
        assert (rep.max_overlap, rep.witness) == (1, (F(0), F(1, 4)))
        assert I.replay_witness(rep, [fam]) == 1


@st.composite
def _certified_floor_cases(draw):
    """(family, window): one family as _tube_families draws it, a window
    centred at the origin with half sides in [1/60, 2], and, half the time,
    an exclusion radius of t min(half sides) / 3 with t in [0, 1], so that
    6 W ex_n <= w ex_d holds, at times with equality."""
    fam = draw(_tube_families())
    hx, hy = (draw(st.fractions(F(1, 60), 2, max_denominator=60)) for _ in "xy")
    if draw(st.booleans()):
        t = draw(st.sampled_from((F(0), F(1))) | st.fractions(0, 1, max_denominator=20))
        fam = dataclasses.replace(fam, exclusion_radius=t * min(hx, hy) / 3)
    return fam, I.ScanWindow(-hx, hx, -hy, hy)


class TestFloorCertificate:
    """A final maximum under the floor certificate adds the family count to
    candidates_checked without walking; the certificate is what makes every
    walk find a point.  The axes and the diagonal at r = 2 meet at every
    pair center, so their scans reach the family count."""

    def test_certified_walks_find_a_point(self):
        seen = set()

        @settings(max_examples=300, deadline=None)
        @given(case=_certified_floor_cases())
        # equality in both bounds: 6 W ex_n = w ex_d and w = W side, and the
        # diagonal's second trial (-1/8, 1/8) lies just outside the ball 1/6
        @example(case=(I.TubeFamily(v=(F(1), F(1)), r=2, s=1, C1=8, exclusion_radius=F(1, 6),
                                    torus_side=1), I.default_window("k")))
        def check(case):
            fam, win = case
            if not I._floor_certified(fam, win):
                seen.add(False)
                return
            seen.add(True)
            # the walk's first trial, the origin, when the ball is empty, else its second
            w, W, n1 = min(win.x1 - win.x0, win.y1 - win.y0), win.W, abs(fam.ax) + abs(fam.ay)
            step = F(w, 4 * W * n1)
            want = (F(0), F(0)) if not fam.ex_n else (-step * fam.ay, step * fam.ax)
            assert _floor_point(fam, win) == want

        check()
        assert seen == {False, True}

    def test_benchmark_scans_match_the_walk(self, monkeypatch):
        """The 192 scans of the benchmark's range (N = 8 and 16, direction-set
        seeds 0-23, s = 3 and 4, both variants) give the same reports with
        the certificate forced off, and with it on walk no family."""
        walks = []

        def walk(fam, win):
            walks.append(fam)
            return real_walk(fam, win)

        def reports():
            out = []
            for n, seed in itertools.product((8, 16), range(24)):
                ds = directions.rescale_to_integers(directions.construct_directions(
                    directions.DirectionSpec(N=n, eps=0.5, seed=seed)))
                for s, variant in itertools.product((3, 4), ("ktilde", "k")):
                    rep = I.max_overlap_scan(I.families_from_direction_set(ds, s=s, variant=variant),
                                             I.default_window(variant))
                    out.append((rep.max_overlap, rep.witness, rep.method, rep.candidates_checked,
                                rep.shared_centers, rep.samples_counted))
            return out

        real_walk = I._interior_point
        monkeypatch.setattr(I, "_interior_point", walk)
        certified = reports()
        assert len(certified) == 192 and walks == []
        monkeypatch.setattr(I, "_floor_certified", lambda fam, win: False)
        assert reports() == certified
        assert len(walks) == 24 * 4 * (8 + 16)  # every family of every scan

    @pytest.mark.parametrize("fams,window,want", [
        # off centre: x0 + x1 != 0
        (_axis_families(ex=F(1, 10)), I.ScanWindow(F(-1, 2), F(1), F(-1), F(1)),
         (3, (F(-1, 2), F(-1)), 221)),
        # a ball with 6 W ex_n > w ex_d: the diagonal's second trial lies in it
        (_axis_families(ex=F(2, 5)), I.default_window("ktilde"), (3, (F(-1), F(-1)), 286)),
    ])
    def test_uncertified_exact_scans_walk(self, fams, window, want):
        assert not I._floor_certified(fams[0], window)
        with mock.patch.object(I, "_interior_point", mock.Mock(wraps=I._interior_point)) as walk:
            rep = I.max_overlap_scan(fams, window)
        assert walk.call_count == len(fams)
        assert rep.max_overlap == rep.family_count  # final, yet walked
        assert _exact_facts(rep) == want == _recount_exact(fams, window)

    def test_window_wider_than_torus_walks(self):
        # a grid-sample scan over [-1, 1]^2 of unit-torus families: w > W side
        fams, window = _seed0_n8_k_families(), I.ScanWindow(F(-1), F(1), F(-1), F(1))
        assert not I._floor_certified(fams[0], window)
        with mock.patch.object(I, "_interior_point", mock.Mock(wraps=I._interior_point)) as walk:
            rep = I.max_overlap_scan(fams, window)
        assert walk.call_count == 8
        assert (rep.max_overlap, rep.witness, rep.method, rep.candidates_checked,
                rep.samples_counted) == (8, (F(4538079, 8388608), F(715429, 1048576)),
                                         "grid-sample", 20008, 1)

    def test_certified_scan_counts_the_families(self):
        # centred and certified (w = W side, 6 W ex_n < w ex_d): no walk, and
        # the count the walks would give
        fams, window = _axis_families(ex=F(1, 10), side=1), I.default_window("k")
        assert I._floor_certified(fams[0], window)
        with mock.patch.object(I, "_interior_point", mock.Mock(wraps=I._interior_point)) as walk:
            rep = I.max_overlap_scan(fams, window)
        assert walk.call_count == 0
        assert _exact_facts(rep) == (3, (F(-1, 2), F(-1, 2)), 86) == _recount_exact(fams, window)


class TestFloorRefusal:
    """Below a final maximum, an uncertified window's floor walks are the
    only evidence off the pair candidates, so the exact scan refuses, naming
    the floor certificate, where they could miss a point; a certified window
    gives every walk's point in closed form."""

    @pytest.mark.parametrize("fams,window,point,message", [
        # a thick tube whose slab covers the window's corner (1/7, -1/3)
        ([I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=2)],
         I.ScanWindow(F(1, 7), F(27, 140), F(-1, 3), F(-3, 10)), (F(1, 7), F(-1, 3)),
         "family 0: its planes meet the window, and its walk finds no point"),
        # a thin window, 40 long, that the walk's quarter-side steps miss in
        ([I.TubeFamily(v=(F(1, 40), F(1)), r=2, s=1, C1=8)],
         I.ScanWindow(F(0), F(40), F(3, 10), F(2, 5)), (F(26), F(7, 20)),
         "family 0: its planes meet the window, and its walk finds no point"),
        # parallel families at r = 3 and r = 2, whose planes meet at x = 1
        ([I.TubeFamily(v=(F(1), F(0)), r=r, s=1, C1=8) for r in (3, 2)],
         I.ScanWindow(F(19, 20), F(37, 20), F(-1, 2), F(1, 2)), (F(1), F(1, 4)),
         "pair (0, 1): parallel families on different planes"),
    ], ids=["thick-tube", "thin-window", "parallel-spacings"])
    def test_unproven_floor_refused(self, fams, window, point, message):
        # each scan reported a maximum below the count at point before
        assert window.contains(*point)
        count = sum(I.tube_membership(point, f) for f in fams)
        assert count == len(fams) and _floor_unproven(fams, window)
        with pytest.raises(ValueError, match=re.escape(f"floor certificate fails for {message}")):
            I.max_overlap_scan(fams, window)

    def test_refusal_only_where_walks_can_miss(self):
        """A floor refusal comes only from an uncertified window whose floor
        walks, recounted in Fractions, can miss a point of a parallel class
        larger than the pairs' maximum; every other exact scan equals its
        recount.  One explicit example of each outcome keeps both in every run."""
        seen = set()
        window = TestInt64Counts.EXACT_WINDOWS[1]

        @settings(max_examples=120, deadline=None)
        @given(fams=st.one_of(_one_geometry_families().map(lambda case: case[0]),
                              _concurrent_families()),
               win=st.sampled_from(TestInt64Counts.INDEX_WINDOWS))
        @example(fams=[I.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=2)], win=window)  # refused
        @example(fams=_axis_families(), win=window)  # accepted
        def check(fams, win):
            try:
                rep = I.max_overlap_scan(fams, win)
            except ValueError as exc:
                if not str(exc).startswith("floor"):
                    return
                assert not I._floor_certified(fams[0], win)
                assert _floor_unproven(fams, win, _pairs_max(fams, win)), exc
                seen.add(True)
                return
            if rep.method == "exact-candidates":
                assert _exact_facts(rep) == _recount_exact(fams, win)
                seen.add(False)

        check()
        assert seen == {False, True}

    def test_readme_scan_takes_the_closed_form(self):
        # the README's incidence line (N = 8, seed 7, s = 2): the pairs reach
        # no 2, so the floor decides, and the certified window walks no family
        spec = directions.DirectionSpec(N=8, eps=0.5, mode="toy", seed=7)
        ds = directions.rescale_to_integers(directions.construct_directions(spec))
        fams, window = I.families_from_direction_set(ds, s=2), I.default_window("ktilde")
        assert I._floor_certified(fams[0], window)
        with mock.patch.object(I, "_interior_point", mock.Mock(wraps=I._interior_point)) as walk:
            rep = I.max_overlap_scan(fams, window)
        assert walk.call_count == 0
        assert _exact_facts(rep) == (1, (F(-1, 6), F(1, 3)), 148) == _recount_exact(fams, window)

    def test_closed_form_equals_the_walk(self):
        """Under the floor certificate, a scan below its final maximum gives the
        report that walking every family gives, unless the walk-based floor
        refuses, which the closed form does not need to.  Scans below and at
        a final maximum are drawn; one explicit example of the latter keeps
        it in every run."""
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(fams=_family_lists(1, 3), case=_certified_floor_cases())
        @example(fams=_axis_families(), case=(_axis_families()[0], I.default_window("ktilde")))
        def check(fams, case):
            _, win = case
            fams = [dataclasses.replace(f, exclusion_radius=case[0].exclusion_radius,
                                        torus_side=None) for f in fams]
            if not I._floor_certified(fams[0], win):
                return
            try:
                rep = I.max_overlap_scan(fams, win)
            except ValueError as exc:
                assert not str(exc).startswith("floor"), exc
                return
            try:
                with mock.patch.object(I, "_floor_certified", lambda fam, win: False):
                    walked = I.max_overlap_scan(fams, win)
            except ValueError as exc:
                assert str(exc).startswith("floor certificate fails"), exc
                return
            assert (rep.max_overlap, rep.witness, rep.candidates_checked) == \
                (walked.max_overlap, walked.witness, walked.candidates_checked)
            par = max(sum(f.ax * g.ay == f.ay * g.ax for g in fams) for f in fams)
            seen.add(_pairs_max(fams, win) >= max(2, par))  # final before the floor

        check()
        assert seen == {False, True}


class TestPinnedWitnesses:
    """Whole scans against recorded reports, witness included; the benchmark
    compares no witness."""

    @staticmethod
    def _report(fams, window):
        rep = I.max_overlap_scan(fams, window)
        return rep.max_overlap, rep.method, rep.candidates_checked, rep.witness

    def test_toy_ktilde(self, toy_ds):
        # the seed-7 N = 4 set at s = 2: a floor point is the witness
        fams = I.families_from_direction_set(toy_ds, s=2)
        assert self._report(fams, I.default_window("ktilde")) == (
            1, "exact-candidates", 34, (F(-3, 28), F(11, 28)))

    @pytest.mark.parametrize("variant,want", [
        ("ktilde", (2, "exact-candidates", 178,
                    (F(-8129464000000, 9664423892217), F(-8707768000000, 9664423892217)))),
        ("k", (8, "grid-sample", 20008, (F(4538079, 16777216), F(715429, 2097152)))),
    ])
    def test_seed0_n8_s3(self, variant, want):
        spec = directions.DirectionSpec(N=8, eps=0.5, seed=0)
        ds = directions.rescale_to_integers(directions.construct_directions(spec))
        fams = I.families_from_direction_set(ds, s=3, variant=variant)
        assert self._report(fams, I.default_window(variant)) == want

    def test_parallel_baseline_off_centre(self):
        fams = [I.TubeFamily(v=(F(3), F(-5, 2)), r=4, s=2, C1=8)] * 5
        window = I.ScanWindow(F(1, 7), F(2, 7), F(-1, 3), F(-1, 5))
        assert self._report(fams, window) == (
            5, "exact-candidates", 5, (F(173, 854), F(-1097, 4270)))


@functools.cache
def _rescaled_set(n, seed):
    return directions.rescale_to_integers(
        directions.construct_directions(directions.DirectionSpec(N=n, eps=0.5, seed=seed)))


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        f1, f2 = axis_families()
        rep = I.max_overlap_scan([f1, f2], I.default_window("k"))
        path = tmp_path / "r.json"
        I.save_overlap_report(rep, path)
        again = I.load_overlap_report(path)
        assert again == rep

    @pytest.mark.parametrize("window", [I.ScanWindow(-0.5, 0.5, -0.5, 0.5),
                                        I.ScanWindow("-1/2", "1/2", "-3/8", "3/8"),
                                        I.ScanWindow(F(-1, 2), F(1, 2), F(-1, 4), F(1, 4))])
    def test_inexact_window_round_trip(self, tmp_path, window):
        rep = I.max_overlap_scan(list(axis_families()), window)
        path = tmp_path / "r.json"
        I.save_overlap_report(rep, path)
        assert all(re.fullmatch(r"-?\d+(/\d+)?", e) for e in json.loads(path.read_text())["window"])
        assert I.load_overlap_report(path) == rep

    def test_table_round_trip(self, tmp_path):
        """load(save(report)) == report through the one field table, for scans
        of both variants, with and without the parallel baseline."""
        path = tmp_path / "r.json"
        variants = set()

        @settings(max_examples=24, deadline=None)
        @given(n=st.sampled_from((4, 8)), seed=st.integers(0, 3), s=st.integers(1, 3),
               variant=st.sampled_from(("k", "ktilde")), baseline=st.booleans())
        def check(n, seed, s, variant, baseline):
            fams = I.families_from_direction_set(_rescaled_set(n, seed), s=s, variant=variant)
            rep = I.max_overlap_scan(fams[:1] * len(fams) if baseline else fams,
                                     I.default_window(variant))
            rep.baseline = "parallel" if baseline else None
            I.save_overlap_report(rep, path)
            assert I.load_overlap_report(path) == rep
            variants.add((variant, baseline))

        check()
        assert len(variants) == 4

    @pytest.mark.parametrize("r_values", [None, (2,), (2, 3, 3)])
    def test_report_without_one_r_per_family_not_written(self, tmp_path, r_values):
        # the reader refuses such a report, so the writer refuses it before
        # opening the file
        rep = I.max_overlap_scan(list(axis_families()), I.default_window("k"))
        rep.r_values = r_values
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match=re.escape(f"cannot write {r_values!r} as a list of 2 "
                                                       "entries")):
            I.save_overlap_report(rep, path)
        assert not path.exists()

    def test_integral_edges_old_spelling_loads(self, tmp_path):
        # integral edges are written n/1; a report that spells them "n", as
        # earlier versions wrote them, loads to an equal report
        fams = list(axis_families())
        rep = I.max_overlap_scan([dataclasses.replace(f, torus_side=None) for f in fams],
                                 I.default_window("ktilde", half=2))
        path = tmp_path / "r.json"
        I.save_overlap_report(rep, path)
        doc = json.loads(path.read_text())
        assert doc["window"] == ["-2/1", "2/1", "-2/1", "2/1"]
        doc["window"] = ["-2", "2", "-2", "2"]
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        assert I.load_overlap_report(path) == rep

    def test_other_enumerated_values_round_trip(self, tmp_path):
        # the values test_round_trip's scan does not write
        f1, f2 = axis_families()
        rep = I.max_overlap_scan([f1, f2], I.default_window("k"))
        rep.method, rep.variant, rep.baseline = "grid-sample", "ktilde", "parallel"
        path = tmp_path / "r.json"
        I.save_overlap_report(rep, path)
        assert I.load_overlap_report(path) == rep

    def test_v2_report_refused(self, tmp_path):
        # v2 parallel baselines had no torus and no ball; v3 ones are copies
        # of the variant's first family, so a v2 file is refused, not replayed
        f1, f2 = axis_families()
        path = tmp_path / "r.json"
        I.save_overlap_report(I.max_overlap_scan([f1, f2], I.default_window("k")), path)
        path.write_text(path.read_text().replace("overlap_report.v3", "overlap_report.v2"))
        with pytest.raises(ParseError, match=r"not a primedir\.overlap_report\.v3 report"):
            I.load_overlap_report(path)

    @pytest.mark.parametrize("key,value", [
        ("method", "anything"), ("method", None), ("method", ["grid-sample"]),
        ("variant", "K"), ("variant", 1),
        ("baseline", "Parallel"), ("baseline", ""), ("baseline", {"parallel": 1}),
    ])
    def test_enumerated_field_refused(self, tmp_path, key, value):
        f1, f2 = axis_families()
        path = tmp_path / "r.json"
        I.save_overlap_report(I.max_overlap_scan([f1, f2], I.default_window("k")), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"field '{key}' must be one of"):
            I.load_overlap_report(path)

    @pytest.mark.parametrize("value,named", [
        (None, "field 'r_values' must be a list of 2 entries, got None"),
        ([2], "field 'r_values' must be a list of 2 entries"),
        ([2, 3.0], "field 'r_values[1]' must be an integer, got 3.0"),
    ])
    def test_r_values_one_integer_per_family(self, tmp_path, value, named):
        # the scan writes them all; replay rebuilds each family from its r
        f1, f2 = axis_families()
        path = tmp_path / "r.json"
        I.save_overlap_report(I.max_overlap_scan([f1, f2], I.default_window("k")), path)
        doc = json.loads(path.read_text())
        doc["r_values"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(f"{path}: {named}")):
            I.load_overlap_report(path)

    @pytest.mark.parametrize("key,value", [("s", 10**9), ("C1", 10**100)])
    def test_huge_level_or_thickness_replays_in_small_memory(self, toy_ds, tmp_path, key,
                                                             value):
        # 2^s and 2^(C1 s) are never built: s = 10^9 is refused by the
        # denominators' bit lengths, and C1 = 10^100 replays through right shifts
        path = tmp_path / "r.json"
        fams = I.families_from_direction_set(toy_ds, s=2)
        I.save_overlap_report(I.max_overlap_scan(fams, I.default_window("ktilde")), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            rep = I.load_overlap_report(path)
            try:
                fams = I.families_from_direction_set(toy_ds, s=rep.s, C1=rep.C1,
                                                     r_values=rep.r_values)
                answer = I.replay_witness(rep, fams) == rep.max_overlap
            except ValueError as exc:
                answer = str(exc)
            elapsed, peak = time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer == (True if key == "C1" else
                          "need 2^s <= r < 2^(s+1); got r=4, s=1000000000")
        assert elapsed < 0.5 and peak < 1 << 20

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"schema": "nope"}')
        with pytest.raises(ParseError):
            I.load_overlap_report(path)

    def test_garbage(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{")
        with pytest.raises(ParseError):
            I.load_overlap_report(path)

    @pytest.mark.parametrize("key,text", [("window", "1e5000000"), ("window", "1.5"),
                                          ("witness", "1e5000000"), ("witness", "1.5")] + [
        # forms that int() takes, and that save never writes
        (key, text) for text in ("1_000", " 7", "+5", "12\n", "\u0663", "1/+2", "-1/-2")
        for key in ("window", "witness")])
    def test_decimal_and_exponent_rationals_refused(self, tmp_path, key, text):
        # save writes integers and num/den only; read as a decimal, "1e5000000"
        # would become a 16.6-million-bit integer and take seconds to parse
        f1, f2 = axis_families()
        path = tmp_path / "r.json"
        I.save_overlap_report(I.max_overlap_scan([f1, f2], I.default_window("k")), path)
        doc = json.loads(path.read_text())
        doc[key][0] = text
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match=re.escape(f"bad rational {text!r} at {key}[0]")):
            I.load_overlap_report(path)
        assert time.perf_counter() - t0 < 0.5

    def test_over_long_integer_refused(self, tmp_path):
        # Python >= 3.11 refuses the literal while parsing the JSON; without
        # that limit the window fails its own check
        f1, f2 = axis_families()
        path = tmp_path / "r.json"
        I.save_overlap_report(I.max_overlap_scan([f1, f2], I.default_window("k")), path)
        doc = json.loads(path.read_text())
        doc["window"] = "BIG"
        path.write_text(json.dumps(doc).replace('"BIG"', "[" + "1" * 5000 + "]"))
        with pytest.raises(ParseError, match=re.escape(f"{path}: ")):
            I.load_overlap_report(path)

    @pytest.mark.parametrize("blob", [b"\xff\xfe{}", b'{"schema": "\xe9"}'])
    def test_not_utf8(self, tmp_path, blob):
        path = tmp_path / "r.json"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match="not UTF-8"):
            I.load_overlap_report(path)
