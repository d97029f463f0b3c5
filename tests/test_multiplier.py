import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primedir import arith, bumps, multiplier as M


class TestMk:
    def test_pnt_consistency(self, table21):
        m0 = M.m_k(16, Fraction(0), table21)
        assert abs(m0 - 1) < 0.05

    def test_half_forced_sign(self, table21):
        # all weighted primes are odd at k >= 2, so m_k(1/2) = -m_k(0) exactly
        m0 = M.m_k(16, Fraction(0), table21)
        mh = M.m_k(16, Fraction(1, 2), table21)
        assert abs(mh + m0) < 1e-12
        assert abs(mh + 1) < 0.05

    def test_third_mu_over_phi(self, table21):
        mt = M.m_k(16, Fraction(1, 3), table21)
        assert abs(mt - (-0.5)) < 0.05

    def test_float_matches_exact_path(self, table21):
        exact = M.m_k(14, Fraction(1, 3), table21)
        approx = M.m_k(14, 1.0 / 3.0, table21)
        assert abs(exact - approx) < 1e-9

    def test_conjugate_symmetry(self, table13):
        for a in (Fraction(1, 5), Fraction(3, 7), Fraction(123, 1024)):
            assert M.m_k(11, 1 - a, table13) == pytest.approx(
                M.m_k(11, a, table13).conjugate(), abs=1e-12
            )

    def test_insufficient_table_rejected(self, table13):
        with pytest.raises(ValueError):
            M.m_k(13, Fraction(0), table13)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, table13, alpha):
        with pytest.raises(ValueError, match="finite"):
            M.m_k(10, alpha, table13)

    def test_against_mpmath_oracle(self, table13):
        # 40-digit reference summation of the defining series at k = 8
        import mpmath

        mpmath.mp.dps = 40
        alpha = 0.1234567891011
        primes, w = M.prime_weights(8, table13)
        ref = mpmath.mpf(0) + 0j
        for p, wi in zip(primes.tolist(), w.tolist()):
            ref += mpmath.expjpi(-2 * mpmath.mpf(p) * mpmath.mpf(alpha)) * wi
        got = M.m_k(8, alpha, table13)
        assert abs(got - complex(ref)) < 1e-12


class TestGridPaths:
    def test_folded_matches_naive(self, table13):
        g = M.m_k_grid(12, 256, table13)
        n = M.m_k_naive_grid(12, 256, table13)
        assert np.abs(g - n).max() < 1e-9

    def test_folded_matches_scalar(self, table13):
        g = M.m_k_grid(12, 64, table13)
        for j in (0, 1, 17, 32, 63):
            assert abs(g[j] - M.m_k(12, Fraction(j, 64), table13)) < 1e-9

    def test_denominator_fold(self, table13):
        vals = M.m_k_at_denominator(12, 7, table13)
        for a in range(7):
            assert abs(vals[a] - M.m_k(12, Fraction(a, 7), table13)) < 1e-9

    def test_fold_weights_sums_by_residue(self, table13):
        primes, w = M.prime_weights(10, table13)
        folded = M.fold_weights(10, 12, table13)
        assert folded.shape == (12,)
        for r in range(12):
            assert folded[r] == pytest.approx(w[primes % 12 == r].sum(), abs=1e-15)
        with pytest.raises(ValueError):
            M.fold_weights(10, 0, table13)

    def test_negative_scale_rejected(self, table13):
        # every weight helper reads prime_weights; a negative scale found no
        # prime there and gave all-zero weights
        for call in (lambda: M.prime_weights(-1, table13), lambda: M.m_k_grid(-1, 16, table13),
                     lambda: M.fold_weights(-2, 16, table13), lambda: M.m_k(-1, 0.25, table13)):
            with pytest.raises(ValueError, match="scale must be >= 0"):
                call()
        # scale 0 holds the one prime 2 at weight phi(2) log 2 = 0, so its
        # average is identically 0; OperatorConfig and the CLI refuse it
        primes, w = M.prime_weights(0, table13)
        assert primes.tolist() == [2] and w.tolist() == [0.0]

    @pytest.mark.parametrize("L", [2, 3, 63, 64, 1024])
    def test_grid_hermitian(self, table13, L):
        # the half-spectrum route of maximal relies on m_k(-j/L) = conj m_k(j/L)
        for k in (5, 12):
            g = M.m_k_grid(k, L, table13)
            assert np.abs(g[(-np.arange(L)) % L] - np.conj(g)).max() <= 1e-14


@functools.cache
def _level(s: int) -> list[Fraction]:
    """The dyadic Farey level s, sorted: every reduced a/q in [0, 1) with
    2^s <= q < 2^(s+1), so the single fraction 0 at s = 0."""
    return sorted(Fraction(a, q) for q in range(1 << s, 2 << s) for a in range(q)
                  if math.gcd(a, q) == 1)


@functools.cache
def _level_values(s: int):
    """The dyadic Farey level s and its fractions' float values."""
    fracs = _level(s)
    return fracs, np.array([float(f) for f in fracs])


def _farey_sum(k: int, alpha: Fraction, s_max: int) -> complex:
    """sum over every reduced a/q of every level s <= s_max of
    mu(q)/phi(q) V_k(delta) chi_s(delta), delta = alpha - a/q taken in [-1/2, 1/2).

    chi_s(delta) vanishes once |delta| >= 2^-(10(s+4)+1) <= 2^-41, so a float
    prefilter at 2^-30 skips only zero terms; the rest are summed exactly as
    L_k forms its one term."""
    total = 0j
    x = float(alpha % 1)
    for s in range(s_max + 1):
        fracs, vals = _level_values(s)
        for i in np.flatnonzero(np.abs((x - vals + 0.5) % 1.0 - 0.5) < 2.0**-30):
            f = fracs[i]
            delta = alpha - f
            delta -= math.floor(delta + Fraction(1, 2))
            cut = bumps.chi_s(s, float(delta))
            if cut != 0.0:
                q = f.denominator
                total += (arith.mobius(q) / arith.totient(q)) * bumps.v_k(k, float(delta)) * cut
    return total


class TestLk:
    @pytest.mark.parametrize("s_max", [0, 1, 3, 6])
    def test_equals_farey_sum(self, s_max):
        # points on, inside, across and just outside the cutoff support of
        # fractions of every level up to one past s_max, shifted by integers
        rng = np.random.default_rng(s_max)
        offsets = [Fraction(c) for c in ("0", "1/8", "-3/8", "2/5", "-9/20", "3/5")]
        alphas = []
        for s in range(s_max + 2):
            fracs = _level(s)
            for i in sorted({0, len(fracs) // 2, len(fracs) - 1, int(rng.integers(len(fracs)))}):
                alphas += [fracs[i] + c / 2 ** (10 * (s + 4)) + int(rng.integers(-2, 3)) for c in offsets]
        for k in (12, 16):
            for alpha in alphas:
                got, want = M.L_k(k, alpha, s_max), _farey_sum(k, alpha, s_max)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), alpha

    def test_sum_examples(self):
        assert M.L_k(12, Fraction(0)) == pytest.approx(1.0, abs=1e-10)
        assert M.L_k(12, Fraction(1, 2)) == pytest.approx(-1.0, abs=1e-10)
        assert M.L_k(12, Fraction(1, 3)) == pytest.approx(-0.5, abs=1e-10)

    def test_periodicity_exact(self):
        for a in (Fraction(1, 3), Fraction(7, 64), Fraction(9, 11)):
            assert M.L_k(12, a + 1) == M.L_k(12, a)

    def test_conjugate_symmetry(self):
        for a in (Fraction(1, 3), Fraction(7, 64), Fraction(5, 11)):
            lhs = M.L_k(12, 1 - a)
            rhs = M.L_k(12, a).conjugate()
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_at_most_one_term_per_level(self):
        # brute force over the full level: at most one fraction has the point
        # inside its cutoff support
        rng = np.random.default_rng(5)
        for s in (1, 2, 3, 4):
            level = _level(s)
            for _ in range(20):
                alpha = Fraction(int(rng.integers(0, 2**40)), 2**40)
                hits = [f for f in level if bumps.chi_s(s, float(alpha - f)) != 0.0]
                assert len(hits) <= 1

    def test_located_fraction_unique_among_neighbors(self):
        # at a fraction's own center, the two nearest level-mates stay outside
        s = 3
        vals = _level(s)
        for i in (1, len(vals) // 2, len(vals) - 2):
            alpha = vals[i]
            for j in (i - 1, i + 1):
                assert bumps.chi_s(s, float(alpha - vals[j])) == 0.0

    def test_agreement_with_m_at_third(self, table21):
        # |m_k - L_k| at 1/3 sits inside the observed error band
        e = abs(M.m_k(16, Fraction(1, 3), table21) - M.L_k(16, Fraction(1, 3)))
        assert e < 0.05

    def test_level_above_one_term_proof_rejected(self):
        with pytest.raises(ValueError):
            M.L_k(12, Fraction(1, 3), s_max=39)

    @pytest.mark.parametrize("k", [12, 17, 20])
    def test_off_fraction_equals_cutoff_product(self, k):
        # a/q + delta for squarefree q < 128, with a dyadic delta in the
        # plateau (|delta| 2^(10(s+4)) < 1/4) or the transition band ([1/4,
        # 1/2)) of chi_s at the level s of q; a/q is then the last convergent
        # below the level cap, and L_k is the one term mu/phi V_k chi_s
        rng = np.random.default_rng(k)
        band_cuts = []
        for q in range(1, 128):
            if arith.mobius(q) == 0:
                continue
            units = [a for a in range(q) if math.gcd(a, q) == 1]
            s = q.bit_length() - 1
            for band in (0, 1 << 20):
                for sign in (1, -1):
                    a = units[int(rng.integers(len(units)))]
                    num = band + int(rng.integers(1, 1 << 20))
                    delta = sign * Fraction(num, 1 << (10 * (s + 4) + 22))
                    d = float(delta)
                    want = arith.mobius(q) / arith.totient(q) * bumps.v_k(k, d) * bumps.chi_s(s, d)
                    assert abs(M.L_k(k, Fraction(a, q) + delta) - want) <= 1e-12, (a, q, delta)
                    if band:
                        band_cuts.append(bumps.chi_s(s, d))
                    else:
                        assert bumps.chi_s(s, d) == 1.0
        # chi rounds to 1 only just above 1/4, so most band probes read below 1
        assert len(band_cuts) == 2 * sum(1 for q in range(1, 128) if arith.mobius(q) != 0)
        assert sum(0.0 < c < 1.0 for c in band_cuts) > 0.9 * len(band_cuts)

    def test_default_s_max_cap(self):
        s_max, truncated = M.default_s_max(20, 17.0)
        assert s_max == M.S_MAX_CAP and truncated
        s_max, truncated = M.default_s_max(2, 17.0)
        assert s_max == 17 and not truncated
        # k^D <= 1 needs no level, and log2(0) is never taken
        assert M.default_s_max(0) == M.default_s_max(1) == (0, False)


@st.composite
def _near_fractions(draw):
    """a/q plus a dyadic offset, mostly inside the cutoff support of q's level."""
    q = draw(st.integers(1, 300))
    a = draw(st.integers(-q, 2 * q))
    delta = Fraction(draw(st.integers(-(2**20), 2**20)), 2 ** draw(st.integers(30, 120)))
    return Fraction(a, q) + delta


@st.composite
def _near_fraction_floats(draw):
    """Floats on the 2^-51 lattice, so alpha + 1 and -alpha are exact: |alpha + 1|
    stays below 4, and 2^-51 is the spacing of the floats in [2, 4)."""
    return math.ldexp(round(math.ldexp(float(draw(_near_fractions())), 51)), -51)


class TestMainTermOneTerm:
    """L_k is the sum over every convergent below 2^(s_max+1), and that sum has
    at most one term inside its cutoff support."""

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.one_of(_near_fractions(), _near_fraction_floats()), k=st.integers(4, 20),
           s_max=st.one_of(st.none(), st.integers(0, 38)))
    def test_equals_sum_over_all_convergents(self, alpha, k, s_max):
        levels = M.default_s_max(k)[0] if s_max is None else s_max
        x = Fraction(alpha) - math.floor(Fraction(alpha))
        total, inside = 0j, 0
        for p, q in arith.convergents(x, (1 << (levels + 1)) - 1):
            d = float(x - Fraction(p, q))
            cut = bumps.chi_s(q.bit_length() - 1, d)
            if cut != 0.0:
                inside += 1
                total += arith.mobius(q) / arith.totient(q) * bumps.v_k(k, d) * cut
        assert inside <= 1
        value = M.L_k(k, alpha, s_max)
        assert (value.real.hex(), value.imag.hex()) == (total.real.hex(), total.imag.hex())


    @settings(max_examples=300, deadline=None)
    @given(s_max=st.integers(0, 38), shift=st.integers(-2, 2), whole=st.integers(-5, 5),
           data=st.data())
    def test_last_convergent_of_exact_fraction(self, s_max, shift, whole, data):
        # a denominator just below, at or just above 2^(s_max+1): below it, the
        # fraction is its own last convergent, returned without the walk
        q = max(1, (1 << (s_max + 1)) + shift)
        a = data.draw(st.integers(0, q - 1))
        alpha = whole + Fraction(a, q)
        x = alpha - math.floor(alpha)
        want = arith.convergents(x, (1 << (s_max + 1)) - 1)[-1]
        assert M._last_convergent(alpha, s_max) == (x, *want)
        assert (x.denominator < 1 << (s_max + 1)) == (want == (x.numerator, x.denominator))


class TestSymmetryProperties:
    """Periodicity and conjugate symmetry, which hold exactly for the symbol."""

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.one_of(_near_fractions(), _near_fraction_floats()), k=st.integers(4, 16))
    def test_main_term_periodic_and_conjugate(self, alpha, k):
        value = M.L_k(k, alpha)
        assert M.L_k(k, alpha + 1) == value
        assert M.L_k(k, -alpha) == value.conjugate()

    @settings(max_examples=50, deadline=None)
    @given(q=st.integers(1, 2**16), data=st.data(), k=st.integers(4, 12))
    def test_symbol_periodic_at_fractions(self, table13, q, data, k):
        alpha = Fraction(data.draw(st.integers(-q, 2 * q)), q)
        assert M.m_k(k, alpha + 1, table13) == M.m_k(k, alpha, table13)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.one_of(_near_fractions(), _near_fraction_floats()), k=st.integers(4, 12))
    def test_symbol_conjugate_symmetric(self, table13, alpha, k):
        # the float path (floats, and Fractions with q > 2^16) reduces
        # p |alpha| and puts the sign on afterwards, so the two sides are
        # equal; the fold path reduces p a mod q for each sign separately
        value, mirrored = M.m_k(k, alpha, table13), M.m_k(k, -alpha, table13)
        if isinstance(alpha, Fraction) and alpha.denominator <= 1 << 16:
            assert abs(mirrored - value.conjugate()) <= 1e-13
        else:
            assert mirrored == value.conjugate()


class TestFloatPath:
    """m_k at a float alpha, whose phases are reduced in 64-bit integers."""

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.one_of(st.floats(-8.0, 8.0), st.floats(-(2.0**-11), 2.0**-11),
                           _near_fraction_floats()),
           k=st.sampled_from([8, 14, 20]))
    def test_matches_exact_phases(self, table21, alpha, k):
        # the same weighted sum with each phase float((p Fraction(alpha)) % 1)
        # taken from Python integers
        primes, w = M.prime_weights(k, table21)
        num, den = alpha.as_integer_ratio()
        phase = np.array([(p * num % den) / den for p in primes.tolist()])
        exact = complex((w * np.exp(-2j * np.pi * phase)).sum())
        assert abs(M.m_k(k, alpha, table21) - exact) <= 1e-15


class TestNearFractionApproximation:
    def test_deviation_decreases_in_k(self, table21):
        # max over reduced fractions q <= 32 of |m_k(a/q + 2^-k) - mu/phi V_k(2^-k)|
        fracs = [
            Fraction(a, q)
            for q in range(1, 33)
            for a in range(q)
            if math.gcd(a, q) == 1 or (a, q) == (0, 1)
        ]
        sups = []
        for k in (14, 16, 18, 20):
            off = Fraction(1, 2**k)
            vk = bumps.v_k(k, float(off))
            worst = 0.0
            for f in fracs:
                main = (arith.mobius(f.denominator) / arith.totient(f.denominator)) * vk
                worst = max(worst, abs(M.m_k(k, f + off, table21) - main))
            sups.append(worst)
        assert all(a > b for a, b in zip(sups, sups[1:])), sups


class TestErrorProfile:
    def test_rejects_small_d(self, table13):
        with pytest.raises(ValueError):
            M.error_profile([10], 16.0, 64, table13)

    def test_sup_decreases(self, table13):
        res = M.error_profile([10, 12], 17.0, 128, table13)
        sups = [r.sup_abs_E for r in res.rows]
        assert sups[0] > sups[1]

    def test_profiles_m_then_l_per_k(self, table13):
        # consumers read the L profile of a one-k sweep as profiles[1]
        res = M.error_profile([10, 12], 17.0, 64, table13)
        assert [(p.kind, p.k) for p in res.profiles] == [("m", 10), ("L", 10), ("m", 12), ("L", 12)]
        for p in res.profiles:
            assert np.array_equal(p.grid, [float(f) for f in res.grid_fractions])

    def test_minor_column_nan_at_large_d(self, table13):
        # under the error-bound hypothesis D > 16 the desk-scale minor arcs
        # are empty, so the column degrades to NaN
        res = M.error_profile([10], 17.0, 64, table13)
        assert math.isnan(res.rows[0].sup_minor_m)

    def test_minor_sup_decreases_at_small_arc_d(self, table21):
        res = M.error_profile([14, 16, 18, 20], 17.0, 256, table21, arc_D=1.2)
        sups = [r.sup_minor_m for r in res.rows]
        assert all(not math.isnan(x) for x in sups)
        assert all(a > b for a, b in zip(sups, sups[1:])), sups

    def test_csv_output(self, table13, tmp_path):
        res = M.error_profile([10], 17.0, 64, table13)
        path = tmp_path / "e.csv"
        M.write_error_profile_csv(res.rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "schema,primedir.error_profile.v2"
        assert lines[1] == "k,D,sup_abs_E,sup_minor_m,argmax_alpha,s_max,truncated,wall_ms"
        assert len(lines) == 3
        # k^17 exceeds 2^(S_MAX_CAP+1) at k = 10, so the level sum is truncated
        assert (res.rows[0].s_max, res.rows[0].truncated) == (22, True)
        assert lines[2].split(",")[5:7] == ["22", "True"]

    @pytest.mark.parametrize("k", [1, 2, 12, 14, 17])
    @pytest.mark.parametrize("G", [64, 1000, 1024])
    def test_closed_form_l_profile_equals_l_k(self, table21, G, k):
        # the closed form mu(q)/phi(q) V_k(0) below the level cap and 0 above
        # it against the pointwise L_k, byte for byte, so signed zeros count;
        # at k = 1, s_max = 0 and every q >= 2 takes the zero branch
        res = M.error_profile([k], 17.0, G, table21)
        s_max = res.rows[0].s_max
        want = np.array([M.L_k(k, fr, s_max) for fr in res.grid_fractions])
        assert res.profiles[1].values.tobytes() == want.tobytes()
        if k == 1:
            assert s_max == 0
            assert np.count_nonzero(res.profiles[1].values) == 1

    def test_l_profile_makes_no_l_k_call(self, table21, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("error_profile called L_k")

        monkeypatch.setattr(M, "L_k", refuse)
        res = M.error_profile([14], 17.0, 64, table21)
        assert res.profiles[1].values[0] == bumps.v_k(14, 0.0)


def _brute_grid(G: int) -> list[Fraction]:
    """Every a/q with q < 128 that passes the gcd test, and every j/G, as
    sorted Fractions: the error profile's grid by its definition."""
    pts = {Fraction(a, q) for q in range(1, 128) for a in range(q) if math.gcd(a, q) == 1}
    pts.update(Fraction(j, G) for j in range(G))
    return sorted(pts)


class TestProfileGrid:
    """The error profile's grid is built from reduced integer pairs sorted by
    the float a/q; it is the Fraction set it stands for, and each profile
    entry is the value at its exact fraction."""

    @pytest.mark.parametrize("G", [*range(1, 65), 127, 128, 1000, 1024, 2048])
    def test_equals_fraction_set(self, G):
        assert M._profile_grid(G) == _brute_grid(G)

    def test_profiles_at_exact_fractions(self, table13):
        res = M.error_profile([10, 12], 17.0, 256, table13)
        grid = res.grid_fractions
        assert grid == _brute_grid(256)
        for m, main in zip(res.profiles[::2], res.profiles[1::2]):
            vk0 = bumps.v_k(m.k, 0.0)
            for f, m_val, l_val in zip(grid, m.values, main.values):
                q = f.denominator
                assert abs(m_val - M.m_k(m.k, f, table13)) <= 1e-12, f
                assert abs(l_val - arith.mobius(q) / arith.totient(q) * vk0) <= 1e-12, f


class TestArcs:
    def test_simplest_in_interval(self):
        F = Fraction
        assert M.simplest_in_interval(F(3, 10), F(34, 100)) == F(1, 3)
        assert M.simplest_in_interval(F(49, 100), F(51, 100)) == F(1, 2)
        assert M.simplest_in_interval(F(2, 7), F(2, 7)) == F(2, 7)
        with pytest.raises(ValueError):
            M.simplest_in_interval(F(1, 2), F(1, 3))

    def test_simplest_against_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = Fraction(int(rng.integers(0, 1000)), 1000)
            b = a + Fraction(int(rng.integers(1, 50)), 1000)
            best = M.simplest_in_interval(a, b)
            assert a <= best <= b
            for q in range(1, best.denominator):
                for num in range(math.floor(a * q), math.ceil(b * q) + 1):
                    assert not a <= Fraction(num, q) <= b

    def test_zero_is_major(self):
        # the major fraction 0 is falsy: a minor arc is told by None alone
        frac = M.classify_arc(0.0, 16, 17.0)
        assert frac is not None and frac == 0

    def test_near_half_major(self):
        # radius 20^4 2^-20 ~ 0.15 at D = 4: the window catches 1/2
        assert M.classify_arc(Fraction(1, 2) + Fraction(1, 2**20), 20, 4.0) == Fraction(1, 2)

    def test_error_exponent_regime_covers_torus(self):
        # with D = 17 and desk-scale k the radius 2^-k k^D exceeds 1: every
        # frequency is major (which is why desk minor-arc diagnostics use a
        # smaller classification exponent)
        golden = (math.sqrt(5) - 1) / 2
        assert M.classify_arc(golden, 20, 17.0) is not None

    def test_golden_ratio_minor_at_small_d(self):
        # at D = 1.2 the nearest admissible fraction stays outside the window:
        # golden-ratio convergent denominators grow like Fibonacci numbers
        golden = (math.sqrt(5) - 1) / 2
        assert M.classify_arc(golden, 20, 1.2) is None
        # exact confirmation: no fraction with q <= 20^1.2 within 2^-20 20^1.2
        Q = math.floor(20**1.2)
        R = Fraction(math.floor(20**1.2 * 2**33), 2 ** (20 + 33))
        g = Fraction(golden)
        best = M.simplest_in_interval(g - R, g + R)
        assert best.denominator > Q

    def test_golden_ratio_major_at_fibonacci_reach(self):
        # at D = 1.5 the window reaches the convergent 55/89 (89 <= 20^1.5)
        golden = (math.sqrt(5) - 1) / 2
        assert M.classify_arc(golden, 20, 1.5) == Fraction(55, 89)

    def test_folds_into_unit_interval(self):
        # the window around 0.99 holds 1, which is returned as 0
        assert M.classify_arc(Fraction(99, 100), 8, 1.0) == 0
        assert M.classify_arc(Fraction(-3, 2), 20, 4.0) == Fraction(1, 2)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.one_of(st.fractions(-3, 3, max_denominator=10**6),
                           st.floats(-3, 3, allow_nan=False)),
           k=st.integers(1, 16), D=st.integers(1, 3))
    def test_matches_bruteforce(self, alpha, k, D):
        # None exactly when no a/q with q <= k^D lies within 2^-k k^D of
        # alpha; else the smallest-denominator such a/q, taken mod 1 (for
        # q >= 2 it is unique, as two a/q in one window enclose a fraction
        # of smaller denominator)
        x, radius = Fraction(alpha), Fraction(k**D, 2**k)
        want = None
        for q in range(1, k**D + 1):
            a = round(x * q)
            if abs(x - Fraction(a, q)) <= radius:
                want = Fraction(a, q) % 1
                break
        assert M.classify_arc(alpha, k, D) == want

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.one_of(st.fractions(-10, 10, max_denominator=10**9),
                           st.floats(-10, 10, allow_nan=False)),
           n=st.integers(-(10**6), 10**6), k=st.integers(1, 24),
           D=st.one_of(st.integers(1, 19),
                       st.floats(0.5, 20, exclude_min=True, exclude_max=True)))
    def test_integer_shift_invariant(self, alpha, n, k, D):
        # the shift rule that lets classify_arc skip the mod-1 reduction
        assert M.classify_arc(Fraction(alpha) + n, k, D) == M.classify_arc(alpha, k, D)

    def test_non_finite_rejected_on_whole_torus(self):
        # D = 17 at k = 14 makes the torus one major arc, which reads no alpha,
        # yet NaN and infinities are still refused
        assert M.classify_arc(0.3, 14, 17.0) == 0
        with pytest.raises(ValueError):
            M.classify_arc(math.nan, 14, 17.0)
        for inf in (math.inf, -math.inf):
            with pytest.raises(OverflowError):
                M.classify_arc(inf, 14, 17.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            M.classify_arc(0.3, 16, 0.0)
        with pytest.raises(ValueError):
            M.classify_arc(0.3, 0, 17.0)
