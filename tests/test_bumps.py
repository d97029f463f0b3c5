import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from primedir import bumps
from primedir.errors import PrecisionError


def quad_oracle(f, a, b, **kw):
    re, _ = integrate.quad(lambda t: f(t).real, a, b, limit=400, **kw)
    im, _ = integrate.quad(lambda t: f(t).imag, a, b, limit=400, **kw)
    return re + 1j * im


class TestPhi:
    def test_outside_support(self):
        assert bumps.eval_phi(0.5) == 0.0
        assert bumps.eval_phi(2.5) == 0.0
        assert bumps.eval_phi(1.0) == 0.0 and bumps.eval_phi(2.0) == 0.0

    def test_center_value(self):
        c = bumps._normalization_constant()
        assert bumps.eval_phi(1.5) == pytest.approx(c * math.exp(-1), rel=1e-14)

    def test_quarter_point(self):
        # direct formula; c cross-checked by an independent quadrature oracle
        c_oracle = 1.0 / integrate.quad(
            lambda t: math.exp(-1.0 / (1.0 - (2 * t - 3) ** 2)) if 1 < t < 2 else 0.0, 1, 2,
            limit=200,
        )[0]
        assert bumps.eval_phi(1.25) == pytest.approx(c_oracle * math.exp(-4.0 / 3.0), rel=1e-10)

    def test_unit_mass(self):
        total, _ = integrate.quad(bumps.eval_phi, 1, 2, limit=200)
        assert abs(total - 1.0) < 1e-12

    def test_nonnegative(self):
        t = np.linspace(0, 3, 2001)
        assert np.all(bumps.eval_phi(t) >= 0)


class TestChi:
    def test_plateau_and_support_exact(self):
        assert bumps.eval_chi(0.0) == 1.0
        assert bumps.eval_chi(0.25) == 1.0
        assert bumps.eval_chi(0.5) == 0.0
        assert bumps.eval_chi(0.6) == 0.0

    def test_symmetry_point(self):
        assert bumps.eval_chi(0.375) == pytest.approx(0.5, abs=1e-15)

    def test_even_and_bounded(self):
        x = np.linspace(-1, 1, 1001)
        vals = bumps.eval_chi(x)
        assert np.allclose(vals, bumps.eval_chi(-x))
        assert np.all((0 <= vals) & (vals <= 1))


class TestChiS:
    def test_examples(self):
        assert bumps.chi_s(0, 0.0) == 1.0
        # plateau boundary: 2^40 * 2^-42 = 1/4
        assert bumps.chi_s(0, 2.0**-42) == 1.0
        # support boundary: 2^40 * 2^-41 = 1/2
        assert bumps.chi_s(0, 2.0**-41) == 0.0
        assert bumps.chi_s(2, 1.0) == 0.0

    def test_matches_direct_scaling(self):
        for s in (0, 1, 2):
            scale = 2.0 ** (10 * (s + 4))
            for alpha in (0.0, 2.0**-45, 3.0 * 2.0**-43, -(2.0**-42)):
                assert bumps.chi_s(s, alpha) == pytest.approx(bumps.eval_chi(scale * alpha), abs=1e-15)

    def test_huge_scale_no_overflow(self):
        assert bumps.chi_s(10**6, 1e-300) == 0.0
        assert bumps.chi_s(10**6, 0.0) == 1.0
        assert bumps.chi_s(10**5, 5e-301) in (0.0, 1.0)

    def test_nesting(self):
        # chi_s(s) * chi_s(s-1) == chi_s(s): the level-s support sits inside
        # the level-(s-1) plateau
        for s in (1, 2, 3):
            for alpha in np.linspace(-(2.0 ** (-10 * (s + 4))), 2.0 ** (-10 * (s + 4)), 41):
                a = bumps.chi_s(s, float(alpha))
                b = bumps.chi_s(s - 1, float(alpha))
                assert a * b == pytest.approx(a, abs=1e-15)


class TestVk:
    def test_zero_frequency(self):
        for k in (0, 5, 20):
            assert bumps.v_k(k, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_depends_only_on_product(self):
        assert bumps.v_k(10, 2.0**-5) == bumps.v_k(12, 2.0**-7)
        assert bumps.v_k(3, 0.125) == bumps.v_k(0, 1.0)

    def test_against_quadrature_oracle(self):
        # independent adaptive quadrature; X = 32 is reached as 2^10 * 2^-5
        for k, alpha in ((10, 2.0**-5), (0, 0.3), (0, 7.0), (0, 129.5)):
            X = math.ldexp(alpha, k)
            oracle = quad_oracle(
                lambda t: np.exp(2j * np.pi * X * t) * bumps.eval_phi(t), 1, 2, epsabs=1e-13
            )
            assert abs(bumps.v_k(k, alpha) - oracle) < 1e-10

    def test_conjugate_symmetry(self):
        for alpha in (2.0**-5, 0.37, 3.25):
            assert bumps.v_k(6, -alpha) == bumps.v_k(6, alpha).conjugate()

    def test_decay_bound(self):
        l1_d1, _ = bumps.phi_deriv_l1()
        C = l1_d1 / (2 * math.pi) + 0.5
        for X in np.logspace(0, 6, 13):
            val = abs(bumps.v_k(0, float(X)))
            assert val <= C / X + 1e-12

    def test_budget_exhaustion_raises(self, monkeypatch):
        # at the shipped budget the decay bound already certifies 0 beyond it,
        # so the raise is only reachable with a smaller budget
        monkeypatch.setattr(bumps, "_MAX_PANELS", 64)
        with pytest.raises(PrecisionError):
            bumps.v_k(0, 1000.0)  # needs ~2000 panels, bound too large for 0

    def test_memory_flat_in_oscillation(self):
        # the panels are evaluated in fixed chunks: X = 2^18 took a 521 MiB
        # peak when all 2^19 panels were built at once
        tracemalloc.start()
        try:
            bumps.v_k(0, 2.0**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_chunks_cut_from_global_edges(self, monkeypatch):
        # 7 panels a chunk divides none of the panel counts below
        whole = [bumps.v_k(0, X) for X in (0.3, 129.5, 1000.75)]
        monkeypatch.setattr(bumps, "_CHUNK_PANELS", 7)
        for X, ref in zip((0.3, 129.5, 1000.75), whole):
            assert abs(bumps.v_k(0, X) - ref) < 1e-15

    def test_certified_zero_beyond_budget(self):
        assert bumps.v_k(0, 2.0**39) == 0.0

    def test_oscillation_cap(self):
        with pytest.raises(PrecisionError):
            bumps.v_k(0, 2.0**41)

    def test_many_panels_match_the_80_bit_reduction(self, monkeypatch):
        # the reduction the integer one replaced: X t formed and reduced in
        # np.longdouble, 80-bit on x86-64; X = 2^20 - 4.75 fills the panel budget
        Xs = (1000.3, 2.0**14 + 0.61, 2.0**20 - 4.75)
        values = [bumps.v_k(0, X) for X in Xs]
        monkeypatch.setattr(bumps, "_phase", lambda X, t: np.mod(
            np.longdouble(X) * t.astype(np.longdouble), 1.0).astype(np.float64))
        for X, value in zip(Xs, values):
            assert abs(value - bumps.v_k(0, X)) <= 1e-13

    def test_against_mpmath_quadrature(self):
        # tanh-sinh over pieces shorter than a period, at 20 digits, with the
        # normalization taken by the same quadrature
        import mpmath

        def raw(t):
            return mpmath.exp(-1 / (1 - (2 * t - 3) ** 2)) if 1 < t < 2 else mpmath.mpf(0)

        with mpmath.workdps(20):
            c = 1 / mpmath.quad(raw, mpmath.linspace(1, 2, 9))
            for X in (0.3, 7.25, 100.6, 255.5):
                pieces = mpmath.linspace(1, 2, int(X) + 9)
                oracle = c * mpmath.quad(lambda t: raw(t) * mpmath.expjpi(2 * X * t), pieces)
                assert abs(bumps.v_k(0, X) - complex(oracle)) <= 1e-12


class TestPhase:
    @settings(max_examples=200, deadline=None)
    @given(X=st.one_of(st.floats(0.0, 2.0**40), st.integers(0, 2**40).map(float)),
           t=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=32))
    def test_within_2_52_of_exact(self, X, t):
        # a float64 product X t errs by up to 2^-12 turns at X = 2^40
        for got, u in zip(bumps._phase(X, np.array(t)), t):
            gap = (Fraction(float(got)) - Fraction(X) * Fraction(u)) % 1
            assert min(gap, 1 - gap) <= 2.0**-52
