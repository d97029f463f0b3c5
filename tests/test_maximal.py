import concurrent.futures
import io
import math
import os
import re
import sys
import threading
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from primedir import maximal as X
from primedir.errors import ParseError
from primedir.multiplier import fold_weights, m_k, prime_weights

@pytest.fixture()
def cfg4(table13):
    return X.OperatorConfig(
        directions=((1, 0), (0, 1), (1, 1), (2, 1)), k_min=5, k_max=6, table=table13
    )

class TestGridFunction:
    def test_side_below_two_rejected(self):
        with pytest.raises(ValueError):
            X.GridFunction(1, np.zeros((1, 1), dtype=complex))
        assert X.GridFunction(48, np.zeros((48, 48), dtype=complex)).L == 48

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            X.GridFunction(8, np.zeros((8, 4), dtype=complex))

    def test_finite_enforced(self):
        vals = np.zeros((8, 8), dtype=complex)
        vals[1, 1] = np.nan
        with pytest.raises(ValueError):
            X.GridFunction(8, vals)

    @pytest.mark.parametrize("dtype", ["float16", "float32", "complex64", "int64", "bool"])
    def test_values_kept_in_double(self, table13, dtype):
        # a single-precision f would take a single-precision forward
        # transform, 2e-8 off the spatial route at this size
        rng = np.random.default_rng(11)
        raw = 4 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        if dtype == "complex64":
            vals = raw.astype(dtype)
        elif dtype == "bool":
            vals = raw.real > 0
        else:
            vals = raw.real.astype(dtype)
        f = X.GridFunction(64, vals)
        assert f.values.dtype == (np.complex128 if dtype == "complex64" else np.float64)
        assert np.array_equal(f.values, vals)
        cfg = X.OperatorConfig(directions=((1, 0), (3, -7), (2, 1)), k_min=4, k_max=6,
                               table=table13)
        a = X.maximal_op(f, cfg, method="spatial").values
        b = X.maximal_op(f, cfg, method="spectral").values
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(a)


class TestAverages:
    def test_delta_single_prime(self, cfg4):
        # k = 1: only p = 3 carries weight (the bump vanishes at the endpoints
        # 2 and 4), so the average of a point mass is one weighted spike
        cfg = X.OperatorConfig(directions=((1, 0),), k_min=1, k_max=1, table=cfg4.table)
        primes, w = prime_weights(1, cfg.table)
        live = [(int(p), wi) for p, wi in zip(primes, w) if wi != 0.0]
        assert len(live) == 1 and live[0][0] == 3
        g = X.average_along(X.GridFunction.delta(16), (1, 0), 1, cfg)
        expect = np.zeros((16, 16), dtype=complex)
        expect[3, 0] = live[0][1]
        assert np.allclose(g.values, expect, atol=1e-15)

    def test_constant_returns_mass(self, cfg4):
        g = X.average_along(X.GridFunction.constant(32), (2, 1), 6, cfg4)
        expect = m_k(6, Fraction(0), cfg4.table)
        assert np.allclose(g.values, expect, atol=1e-12)

    def test_spatial_equals_spectral(self, cfg4):
        rng = np.random.default_rng(7)
        for L in (64, 128):
            for _ in range(3):
                f = X.GridFunction.random(L, rng)
                for v in cfg4.directions:
                    for k in cfg4.scales:
                        a = X.average_along(f, v, k, cfg4)
                        b = X.spectral_average(f, v, k, cfg4)
                        rel = np.linalg.norm(a.values - b.values) / np.linalg.norm(a.values)
                        assert rel < 1e-8

    def test_spectral_linearity(self, cfg4):
        rng = np.random.default_rng(3)
        f = X.GridFunction.random(32, rng)
        g = X.GridFunction.random(32, rng)
        lhs = X.spectral_average(
            X.GridFunction(32, 2.0 * f.values + 3j * g.values), (1, 1), 6, cfg4
        )
        rhs = 2.0 * X.spectral_average(f, (1, 1), 6, cfg4).values + 3j * X.spectral_average(
            g, (1, 1), 6, cfg4
        ).values
        assert np.abs(lhs.values - rhs).max() < 1e-10

    def test_huge_integer_directions_fold(self, toy_ds, table13):
        # constructed integer vectors are astronomically large; shifts reduce mod L
        cfg = X.OperatorConfig(directions=toy_ds.integer_vectors, k_min=5, k_max=6, table=table13)
        f = X.GridFunction.random(32, np.random.default_rng(0))
        for v in cfg.directions:
            a = X.average_along(f, v, 6, cfg)
            b = X.spectral_average(f, v, 6, cfg)
            assert np.linalg.norm(a.values - b.values) / np.linalg.norm(a.values) < 1e-8

class TestMaximal:
    def test_single_pair_is_abs_average(self, cfg4):
        cfg = X.OperatorConfig(directions=((1, 1),), k_min=6, k_max=6, table=cfg4.table)
        f = X.GridFunction.random(32, np.random.default_rng(1))
        m = X.maximal_op(f, cfg, method="spatial")
        a = X.average_along(f, (1, 1), 6, cfg)
        assert np.allclose(m.values, np.abs(a.values), atol=1e-12)

    def test_sup_monotone_in_scale_range(self, cfg4, table13):
        f = X.GridFunction(
            32, np.abs(np.random.default_rng(2).standard_normal((32, 32))).astype(complex)
        )
        small = X.OperatorConfig(directions=cfg4.directions, k_min=5, k_max=5, table=table13)
        wide = X.OperatorConfig(directions=cfg4.directions, k_min=5, k_max=6, table=table13)
        ms = X.maximal_op(f, small).values
        mw = X.maximal_op(f, wide).values
        assert np.all(mw >= ms - 1e-12)

    def test_sublinearity(self, cfg4):
        rng = np.random.default_rng(4)
        f = X.GridFunction.random(32, rng)
        g = X.GridFunction.random(32, rng)
        both = X.maximal_op(X.GridFunction(32, f.values + g.values), cfg4)
        assert np.all(
            both.values <= X.maximal_op(f, cfg4).values + X.maximal_op(g, cfg4).values + 1e-10
        )

    def test_translation_equivariance(self, cfg4):
        f = X.GridFunction.random(32, np.random.default_rng(5))
        shifted = X.GridFunction(32, np.roll(f.values, (3, 7), axis=(0, 1)))
        a = X.maximal_op(shifted, cfg4, method="spatial")
        b = np.roll(X.maximal_op(f, cfg4, method="spatial").values, (3, 7), axis=(0, 1))
        assert np.abs(a.values - b).max() < 1e-12

    def test_delta_spread_identity(self, cfg4):
        L = 512
        assert X.delta_spread_disjoint(cfg4, L)
        measured = X.maximal_op(X.GridFunction.delta(L), cfg4, method="spatial").norm2()
        closed = X.delta_spread_value(cfg4)
        assert abs(measured - closed) <= 1e-10 * closed

    def test_disjointness_detects_wraparound(self, cfg4):
        assert not X.delta_spread_disjoint(cfg4, 128)

    def test_disjointness_detects_parallel(self, table13):
        cfg = X.OperatorConfig(directions=((1, 0), (2, 0)), k_min=5, k_max=5, table=table13)
        assert not X.delta_spread_disjoint(cfg, 1 << 12)

class TestLines:
    def test_axis_lines(self):
        orbits = X.line_decompose(4, (1, 0))
        assert len(orbits) == 4 and all(len(o[0]) == 4 for o in orbits)

    def test_diagonal_lines(self):
        orbits = X.line_decompose(4, (1, 1))
        assert len(orbits) == 4 and all(len(o[0]) == 4 for o in orbits)

    def test_partition_and_equal_sizes(self):
        huge = (10**30 + 7, -(3 * 10**29 + 1))
        cases = [(8, v) for v in ((1, 0), (1, 1), (2, 1), (6, 4), (8, 0), (-3, 2), huge)]
        cases += [(12, (-4, 6)), (12, (9, -3)), (15, (-5, 10)), (15, huge)]
        for L, v in cases:
            orbits = X.line_decompose(L, v)
            sizes = {len(o[0]) for o in orbits}
            assert len(sizes) == 1  # orbit-size enumeration oracle: all equal
            size = sizes.pop()
            assert size == L // math.gcd(v[0], v[1], L)  # the order of v in (Z/L)^2
            assert (L * L) % size == 0
            assert sum(len(o[0]) for o in orbits) == L * L
            seen = set()
            for xs, ys in orbits:
                seen.update(zip(xs.tolist(), ys.tolist()))
            assert len(seen) == L * L

    def test_orbit_traversal_steps_by_v(self):
        orbits = X.line_decompose(8, (2, 1))
        xs, ys = orbits[0]
        for i in range(len(xs) - 1):
            assert (xs[i + 1] - xs[i]) % 8 == 2 and (ys[i + 1] - ys[i]) % 8 == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            X.line_decompose(8, (0, 0))

class TestTransference:
    def test_locality_and_norm_transfer(self, cfg4):
        rep = X.transference_check(cfg4, L=32, trials=30, seed=2)
        assert rep.max_off_line_leak == 0.0
        assert rep.max_norm_rel_err <= 1e-10

    def test_line_norms_sum_to_total(self, cfg4):
        # disjoint supports: sum over lines of squared restricted norms equals
        # the squared norm of the full output
        L, v = 16, (1, 1)
        cfg = X.OperatorConfig(directions=(v,), k_min=5, k_max=6, table=cfg4.table)
        f = X.GridFunction.random(L, np.random.default_rng(3))
        out = X.maximal_op(f, cfg, method="spatial")
        total = sum(
            float(np.linalg.norm(out.values[xs, ys]) ** 2)
            for xs, ys in X.line_decompose(L, v)
        )
        assert total == pytest.approx(out.norm2() ** 2, rel=1e-12)

class TestNorms:
    def test_single_direction_constant_bound(self, table13):
        cfg = X.OperatorConfig(directions=((1, 0),), k_min=5, k_max=6, table=table13)
        f = X.GridFunction.constant(32)
        ratio = X.maximal_op(f, cfg).norm2() / f.norm2()
        expect = max(abs(m_k(k, Fraction(0), table13)) for k in cfg.scales)
        assert ratio == pytest.approx(expect, rel=1e-10)

    def test_nested_prefixes_monotone(self, toy_matrix, table13):
        ds = toy_matrix[(16, 0.5)]
        ratios = []
        for n in (2, 4, 8, 16):
            cfg = X.OperatorConfig(
                directions=tuple(ds.integer_vectors[:n]), k_min=5, k_max=6, table=table13
            )
            rep = X.empirical_norm(cfg, 32, trials=3, seed=0)
            ratios.append(max(v["max_ratio"] for v in rep.per_family.values()))
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_report_fields(self, cfg4):
        rep = X.empirical_norm(cfg4, 32, trials=2, seed=1)
        assert set(rep.per_family) == {"delta", "gaussian", "rademacher", "boxes", "constant"}
        assert rep.L == 32
        assert all(v["max_ratio"] > 0 for v in rep.per_family.values())

    def test_constant_family_attains_symbol_at_zero(self, cfg4, table13):
        # M 1 = max_k |m_k(0)| everywhere, a lower bound on the operator norm
        rep = X.empirical_norm(cfg4, 32, families=("constant",))
        expect = max(abs(m_k(k, Fraction(0), table13)) for k in cfg4.scales)
        assert abs(rep.per_family["constant"]["max_ratio"] - expect) < 1e-12
        assert rep.per_family["constant"]["argmax"] == "constant 1"

    def test_point_mass_evaluated_once(self, cfg4, monkeypatch):
        real = X.maximal_op
        calls = []

        def counting(f, cfg, method="spectral"):
            calls.append(method)
            return real(f, cfg, method)

        monkeypatch.setattr(X, "maximal_op", counting)
        measured = real(X.GridFunction.delta(32), cfg4).norm2()
        rep = X.empirical_norm(cfg4, 32, families=("delta",))
        assert len(calls) == 1
        assert rep.per_family["delta"] == {"max_ratio": measured, "argmax": "point mass at 0"}
        calls.clear()
        X.empirical_norm(cfg4, 32, families=("boxes",))
        assert len(calls) == 5  # boxes of side 1..16, and no point mass

    @pytest.mark.parametrize("L", [12, 33])
    def test_matches_one_loop_per_family(self, cfg4, L):
        # each family written out as its own loop, with the rng drawn in the
        # same order: the same ratios, labels and first-max argmax
        rng = np.random.default_rng(3)

        def ratio(f):
            return X.maximal_op(f, cfg4).norm2() / f.norm2()

        want = {"delta": (ratio(X.GridFunction.delta(L)), "point mass at 0")}
        for name in ("gaussian", "rademacher"):
            best = (0.0, "")
            for t in range(2):
                r = ratio(X.GridFunction.random(L, rng, kind=name))
                if r > best[0]:
                    best = (r, f"{name} trial {t}")
            want[name] = best
        best, size = (0.0, ""), 1
        while size <= L // 2:
            vals = np.zeros((L, L))
            vals[:size, :size] = 1.0
            r = ratio(X.GridFunction(L, vals))
            if r > best[0]:
                best = (r, f"box {size}x{size}")
            size *= 2
        want["boxes"] = best
        want["constant"] = (ratio(X.GridFunction.constant(L)), "constant 1")
        rep = X.empirical_norm(cfg4, L, trials=2, seed=3)
        assert {k: (v["max_ratio"], v["argmax"]) for k, v in rep.per_family.items()} == want

    def test_unknown_family_rejected(self, cfg4):
        with pytest.raises(ValueError, match="unknown test family 'ascent'"):
            X.empirical_norm(cfg4, 16, families=("delta", "ascent"))

    def test_degenerate_directions(self, table13):
        cfg = X.OperatorConfig(directions=((64, 0), (1, 0), (0, -128)), k_min=5, k_max=6,
                               table=table13)
        assert X.degenerate_directions(cfg, 64) == 2
        assert X.degenerate_directions(cfg, 128) == 1


_VECTORS = st.tuples(st.integers(-64, 64), st.integers(-64, 64)).filter(lambda v: v != (0, 0))
# 12, 15 and 3 are not powers of two; at L = 2 the half spectrum is as wide as the full one
_SIDES = st.sampled_from([2, 3, 8, 12, 15, 16, 32])


def _draw(L, seed, real):
    """A Gaussian grid function, real (one spectral lane) or complex (two)."""
    rng = np.random.default_rng(seed)
    if real:
        return X.GridFunction(L, rng.standard_normal((L, L)))
    return X.GridFunction.random(L, rng)


class TestKernelProperties:
    """The spatial roll route and the spectral symbol route agree for any direction."""

    @settings(max_examples=50, deadline=None)
    @given(v=_VECTORS, k=st.integers(3, 6), L=_SIDES,
           seed=st.integers(0, 2**32 - 1), real=st.booleans())
    def test_spectral_average_equals_spatial(self, table13, v, k, L, seed, real):
        cfg = X.OperatorConfig(directions=(v,), k_min=k, k_max=k, table=table13)
        f = _draw(L, seed, real)
        a = X.average_along(f, v, k, cfg).values
        b = X.spectral_average(f, v, k, cfg).values
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(a)

    @settings(max_examples=50, deadline=None)
    @given(v=_VECTORS, w=_VECTORS, k=st.integers(3, 6), L=_SIDES,
           seed=st.integers(0, 2**32 - 1), real=st.booleans())
    def test_maximal_spectral_equals_spatial(self, table13, v, w, k, L, seed, real):
        cfg = X.OperatorConfig(directions=(v, w), k_min=3, k_max=k, table=table13)
        f = _draw(L, seed, real)
        a = X.maximal_op(f, cfg, method="spatial").values
        b = X.maximal_op(f, cfg, method="spectral").values
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(a)


@st.composite
def _unit_determinant(draw, L):
    """A 2 x 2 integer matrix g with a unit determinant mod L, entries in
    [0, L): diag(u, w) times three elementary matrices, u and w units."""
    units = st.sampled_from([u for u in range(1, L) if math.gcd(u, L) == 1])
    s, t, r = (draw(st.integers(0, L - 1)) for _ in range(3))
    g = np.diag([draw(units), draw(units)]) @ [[1, s], [0, 1]] @ [[1, 0], [t, 1]] @ [[1, r], [0, 1]]
    return g % L


def _transport(values, g):
    """f o g^-1 on the grid: out[g x mod L] = f[x] for every grid point x."""
    L = len(values)
    x = np.indices((L, L)).reshape(2, -1)
    y = (g @ x) % L
    out = np.empty_like(values)
    out[y[0], y[1]] = values[x[0], x[1]]
    return out


class TestCovariance:
    """GL2(Z_L) covariance: M_gV (f o g^-1) = (M_V f) o g^-1, since each
    average is a weighted sum of translates along v with weights that depend
    on the scale alone."""

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 64), data=st.data(), k=st.integers(2, 5),
           vectors=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50))
                            .filter(lambda v: v != (0, 0)), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1), real=st.booleans())
    def test_transported_directions_transport_the_output(self, table13, L, data, k, vectors,
                                                         seed, real):
        g = data.draw(_unit_determinant(L))
        moved = []
        for v in vectors:
            gv = tuple(int(c) for c in g @ v % L)
            moved.append((L, 0) if gv == (0, 0) else gv)  # a vector = 0 mod L, not (0, 0)
        cfg = X.OperatorConfig(directions=vectors, k_min=k, k_max=k + 2, table=table13)
        cfg_g = X.OperatorConfig(directions=moved, k_min=k, k_max=k + 2, table=table13)
        f = _draw(L, seed, real)
        f_g = X.GridFunction(L, _transport(f.values, g))
        for method in ("spatial", "spectral"):
            want = _transport(X.maximal_op(f, cfg, method=method).values, g)
            got = X.maximal_op(f_g, cfg_g, method=method).values
            if method == "spatial":  # the same terms summed in the same order
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestRealRoute:
    """Real input is one half-spectrum lane and complex input two; a real grid
    must give what the same grid cast to complex gives."""

    @pytest.mark.parametrize("L", [2, 3, 16, 63])
    def test_maximal_real_equals_complex(self, table13, L):
        cfg = X.OperatorConfig(directions=((1, 0), (3, -7), (2, 1), (10**30 + 1, 5)),
                               k_min=4, k_max=6, table=table13)
        vals = np.random.default_rng(L).standard_normal((L, L))
        real = X.maximal_op(X.GridFunction(L, vals), cfg).values
        full = X.maximal_op(X.GridFunction(L, vals.astype(complex)), cfg).values
        assert np.max(np.abs(real - full)) <= 1e-12 * np.max(np.abs(full))

    @pytest.mark.parametrize("L", [2, 15])
    def test_spectral_average_of_real_is_real(self, table13, L):
        cfg = X.OperatorConfig(directions=((2, 1),), k_min=5, k_max=5, table=table13)
        f = X.GridFunction(L, np.random.default_rng(3).standard_normal((L, L)))
        g = X.spectral_average(f, (2, 1), 5, cfg).values
        assert g.dtype == np.float64
        full = X.spectral_average(X.GridFunction(L, f.values.astype(complex)), (2, 1), 5, cfg)
        assert np.max(np.abs(g - full.values)) <= 1e-12 * np.max(np.abs(full.values))

    def test_real_families_are_real(self):
        rng = np.random.default_rng(0)
        assert X.GridFunction.delta(8).values.dtype == np.float64
        assert X.GridFunction.constant(8).values.dtype == np.float64
        assert X.GridFunction.constant(8, 2j).values.dtype == np.complex128
        assert X.GridFunction.random(8, rng, kind="rademacher").values.dtype == np.float64
        assert X.GridFunction.random(8, rng).values.dtype == np.complex128


class TestLanes:
    """A complex f runs as its real and imaginary lanes through one kernel."""

    @settings(max_examples=50, deadline=None)
    @given(v=_VECTORS, k=st.integers(3, 6), L=_SIDES, seed=st.integers(0, 2**32 - 1))
    def test_average_is_linear_in_lanes(self, table13, v, k, L, seed):
        cfg = X.OperatorConfig(directions=(v,), k_min=k, k_max=k, table=table13)
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, L, L))
        whole = X.spectral_average(X.GridFunction(L, a + 1j * b), v, k, cfg).values
        parts = (X.spectral_average(X.GridFunction(L, a), v, k, cfg).values
                 + 1j * X.spectral_average(X.GridFunction(L, b), v, k, cfg).values)
        assert np.linalg.norm(whole - parts) <= 1e-13 * np.linalg.norm(parts)

    @pytest.mark.parametrize("L", [15, 16])
    def test_modulus_does_not_overflow(self, table13, L):
        # |x + iy| taken as sqrt(x^2 + y^2) overflows to inf at 1e200
        cfg = X.OperatorConfig(directions=((1, 0), (3, -7), (2, 1)), k_min=4, k_max=6,
                               table=table13)
        f = X.GridFunction.random(L, np.random.default_rng(L))
        unit = X.maximal_op(f, cfg).values
        huge = X.maximal_op(X.GridFunction(L, 1e200 * f.values), cfg).values
        assert np.all(np.isfinite(huge))
        assert np.max(np.abs(huge - 1e200 * unit)) <= 1e-12 * 1e200 * np.max(unit)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("L", [3, 16, 63])
    def test_real_symbol_table(self, L, real):
        # an even real table, such as the limit operator's mu(q)/phi(q)
        fhat = X._spectrum(_draw(L, 500 + L, real).values)
        table = np.random.default_rng(L).standard_normal(L)
        table += table[-np.arange(L) % L]

        def average(symbol):
            arrays = [np.empty(*a) for a in X._kernel_arrays(fhat)]
            return np.concatenate([b.copy() for _, b in
                                   X._apply_symbol(fhat, symbol, (3, -7), *arrays)])

        assert np.array_equal(average(table), average(table.astype(np.complex128)))


class TestSpectrum:
    """The forward transform is numpy's rfft2 of each real lane, computed in
    one array of the spectrum's size."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("L", [2, 3, 15, 16, 63, 128, 181])
    def test_equals_numpy(self, L, real):
        values = _draw(L, 300 + L, real).values
        fhat = X._spectrum(values)
        lanes = [values] if real else [values.real, values.imag]
        assert fhat.shape == (len(lanes), L, L // 2 + 1)
        for lane, spectrum in zip(lanes, fhat):
            assert np.array_equal(spectrum, np.fft.rfft2(lane))

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("L", [128, 181])
    def test_one_spectrum_allocated(self, L, real):
        # a second pass that is not written into the spectrum allocates a
        # second array of its size (peak ratio 2.0); the warm-up call takes
        # numpy's one-time FFT setup, which alone peaks near 6x at L = 64
        values = _draw(L, 400 + L, real).values
        X._spectrum(values)
        tracemalloc.start()
        try:
            fhat = X._spectrum(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * fhat.nbytes


class TestInPlaceKernel:
    """The spectral kernel inverts its own product array; the input and the
    shared transform are only read, whatever (k, v) came before."""

    @staticmethod
    def _case(table, L, real):
        cfg = X.OperatorConfig(directions=((1, 0), (3, -7), (2, 1), (10**30 + 1, 5)),
                               k_min=4, k_max=6, table=table)
        return cfg, _draw(L, 100 + L, real)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("L", [2, 3, 16, 63])
    def test_read_only_input(self, table13, L, real):
        # a write into f.values raises once it is read-only
        cfg, f = self._case(table13, L, real)
        before = f.values.copy()
        m = X.maximal_op(f, cfg).values
        a = X.spectral_average(f, (3, -7), 6, cfg).values
        f.values.setflags(write=False)
        assert np.array_equal(X.maximal_op(f, cfg).values, m)
        assert np.array_equal(X.spectral_average(f, (3, -7), 6, cfg).values, a)
        assert np.array_equal(f.values, before)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("L", [2, 3, 16, 63])
    def test_repeat_call_identical(self, table13, L, real):
        cfg, f = self._case(table13, L, real)
        assert np.array_equal(X.maximal_op(f, cfg).values, X.maximal_op(f, cfg).values)
        a = X.spectral_average(f, (2, 1), 5, cfg).values
        assert np.array_equal(a, X.spectral_average(f, (2, 1), 5, cfg).values)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("L", [2, 3, 16, 63])
    def test_maximal_is_max_of_averages(self, table13, L, real):
        # maximal_op reuses one transform for every (k, v); each
        # spectral_average takes a fresh one, so any write into the shared
        # transform shows as a difference
        cfg, f = self._case(table13, L, real)
        each = [np.abs(X.spectral_average(f, v, k, cfg).values)
                for k in cfg.scales for v in cfg.directions]
        assert np.array_equal(X.maximal_op(f, cfg).values, np.max(each, axis=0))


class TestDistinctOperators:
    """The average along v reads v only mod L, so maximal_op runs one unit
    per scale and distinct v mod L; vectors that only share a line are
    different operators at finite k and both run."""

    @staticmethod
    def _counted(monkeypatch, method):
        """Count the calls of the route's kernel."""
        name = "_apply_symbol" if method == "spectral" else "_roll_sum"
        kernel, calls = getattr(X, name), []

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(X, name, counted)
        return calls

    @pytest.mark.parametrize("method", ["spectral", "spatial"])
    def test_one_call_per_distinct_vector(self, toy_matrix, table13, method, monkeypatch):
        # the README set (N = 8, seed 7): every vector is (0, 0) mod 64, so
        # k = 10..12 run 3 units (one row block each at L = 64), not 24
        vectors = toy_matrix[(8, 0.5)].integer_vectors
        cfg = X.OperatorConfig(directions=vectors, k_min=10, k_max=12, table=table13)
        first = X.OperatorConfig(directions=vectors[:1], k_min=10, k_max=12, table=table13)
        assert X.degenerate_directions(cfg, 64) == 8
        f = _draw(64, 17, False)
        calls = self._counted(monkeypatch, method)
        out = X.maximal_op(f, cfg, method=method).values
        assert len(calls) == 3
        assert np.array_equal(out, X.maximal_op(f, first, method=method).values)

    @pytest.mark.parametrize("method", ["spectral", "spatial"])
    def test_shared_line_not_merged(self, table13, method, monkeypatch):
        # 2 is a unit mod 15, so v and 2v span one line of (Z/15)^2, yet
        # their averages differ, since m_k(2t/15) != m_k(t/15)
        L, v, w = 15, (1, 3), (2, 6)
        assert {*zip(*X._orbit(L, v, (0, 0)))} == {*zip(*X._orbit(L, w, (0, 0)))}
        cfg = X.OperatorConfig(directions=(v, w), k_min=5, k_max=6, table=table13)
        f = _draw(L, 19, False)
        average = X.spectral_average if method == "spectral" else X.average_along
        each = [np.abs(average(f, u, k, cfg).values) for k in cfg.scales for u in (v, w)]
        assert not np.allclose(each[0], each[1])
        calls = self._counted(monkeypatch, method)
        out = X.maximal_op(f, cfg, method=method).values
        assert len(calls) == 4
        assert np.array_equal(out, np.max(each, axis=0))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), vectors=st.lists(_VECTORS, min_size=1, max_size=4), L=_SIDES,
           seed=st.integers(0, 2**32 - 1), real=st.booleans(),
           method=st.sampled_from(["spectral", "spatial"]))
    def test_output_reads_distinct_vectors(self, table13, data, vectors, L, seed, real, method):
        # bit-identical when the vectors are permuted, when one is
        # duplicated, and when L w is added to one
        f = _draw(L, seed, real)

        def run(directions):
            cfg = X.OperatorConfig(directions=directions, k_min=3, k_max=5, table=table13)
            return X.maximal_op(f, cfg, method=method).values

        base = run(vectors)
        assert np.array_equal(run(data.draw(st.permutations(vectors))), base)
        i = data.draw(st.integers(0, len(vectors) - 1))
        j = data.draw(st.integers(0, len(vectors)))
        assert np.array_equal(run(vectors[:j] + [vectors[i]] + vectors[j:]), base)
        w = data.draw(st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)))
        moved = (vectors[i][0] + L * w[0], vectors[i][1] + L * w[1])
        assume(moved != (0, 0))
        assert np.array_equal(run(vectors[:i] + [moved] + vectors[i + 1:]), base)


def _cpus(monkeypatch, n):
    """Make the process look as if its affinity mask held n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _workers(monkeypatch):
    """(submitted, started): the work _pair_max submits to its thread pool,
    the calling thread being one more worker, and the threads the pool
    starts.  A pool thread that has found the pairs used up takes the next
    submitted work itself, so small work may start fewer threads than it
    submits."""
    submitted, started = [], []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Thread)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return submitted, started


# spectra well above the 2^14 entries that start workers: a real L = 512 grid
# keeps 512 x 257 of them, a complex L = 363 grid (odd side) 2 x 363 x 182
_WORKER_CASES = pytest.mark.parametrize("L, real", [(512, True), (363, False)])


class TestWorkerPath:
    """Large spectra share their (k, v) pairs among worker threads; the output
    does not depend on how many there are."""

    @staticmethod
    def _case(table, L, real):
        cfg = X.OperatorConfig(directions=((1, 0), (3, -7), (2, 1)), k_min=5, k_max=6,
                               table=table)
        return cfg, _draw(L, 200 + L, real)

    def test_worker_count(self, monkeypatch):
        _cpus(monkeypatch, 2)
        assert X._worker_count(2**14 - 1, 24) == 1
        assert X._worker_count(2**14, 24) == 2
        assert X._worker_count(2**14, 1) == 1
        _cpus(monkeypatch, 64)
        assert X._worker_count(2**20, 24) == 4
        assert X._worker_count(2**20, 3) == 3

    @_WORKER_CASES
    def test_any_worker_count_identical(self, table13, L, real, monkeypatch):
        # more workers than this machine has CPUs, switching threads every
        # microsecond: a lost update to the running maximum shows as a difference
        cfg, f = self._case(table13, L, real)
        default = X.maximal_op(f, cfg).values
        _cpus(monkeypatch, 1)
        assert np.array_equal(X.maximal_op(f, cfg).values, default)
        _cpus(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                assert np.array_equal(X.maximal_op(f, cfg).values, default)
        finally:
            sys.setswitchinterval(interval)

    @_WORKER_CASES
    def test_maximal_is_max_of_averages(self, table13, L, real, monkeypatch):
        _cpus(monkeypatch, 4)
        cfg, f = self._case(table13, L, real)
        each = [np.abs(X.spectral_average(f, v, k, cfg).values)
                for k in cfg.scales for v in cfg.directions]
        assert np.array_equal(X.maximal_op(f, cfg).values, np.max(each, axis=0))

    @_WORKER_CASES
    def test_threads_live_for_one_call(self, table13, L, real, monkeypatch):
        submitted, started = _workers(monkeypatch)
        _cpus(monkeypatch, 4)
        cfg, f = self._case(table13, L, real)
        before = threading.active_count()
        X.maximal_op(f, cfg)
        assert len(submitted) == 3  # the calling thread is the fourth worker
        assert 1 <= len(started) <= 3
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in started)
        submitted.clear()
        started.clear()
        X.maximal_op(_draw(96, 0, False), cfg)  # 9 216 entries: no thread
        assert submitted == [] and started == []

    @_WORKER_CASES
    def test_worker_exception_raised(self, table13, L, real, monkeypatch):
        kernel = X._apply_symbol
        lock = threading.Lock()
        calls = []

        def failing(*args):
            with lock:
                calls.append(None)
                n = len(calls)
            if n == 3:
                raise RuntimeError("third pair")
            return kernel(*args)

        monkeypatch.setattr(X, "_apply_symbol", failing)
        _cpus(monkeypatch, 4)
        cfg, f = self._case(table13, L, real)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third pair"):
            X.maximal_op(f, cfg)
        assert threading.active_count() == before

    @_WORKER_CASES
    def test_fold_holds_the_lock(self, table13, L, real, monkeypatch):
        # a fold outside the lock loses an update only under a rare thread
        # interleaving, so this checks ownership, not output: every fold into
        # the running maximum runs while its own thread holds _pair_max's lock
        locks, held = [], []

        class Owned:
            """A lock that records which thread holds it."""

            def __init__(self):
                self._lock, self.owner = threading.Lock(), None
                locks.append(self)

            def __enter__(self):
                self._lock.acquire()
                self.owner = threading.get_ident()

            def __exit__(self, *exc):
                self.owner = None
                self._lock.release()

        class Numpy:
            """numpy, with maximum checking the lock first."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def maximum(*args, **kwargs):
                held.append([lock.owner for lock in locks] == [threading.get_ident()])
                return np.maximum(*args, **kwargs)

        monkeypatch.setattr(X, "threading", types.SimpleNamespace(
            Lock=Owned, Event=threading.Event, Thread=threading.Thread))
        monkeypatch.setattr(X, "np", Numpy())
        _cpus(monkeypatch, 4)
        cfg, f = self._case(table13, L, real)
        X.maximal_op(f, cfg)
        assert len(locks) == 1
        assert held and all(held)


def _rolled(values, folded, v):
    """The spatial sum as np.roll copies: the kernel's reference."""
    L = values.shape[0]
    out = np.zeros((L, L), dtype=np.complex128)
    vx, vy = v[0] % L, v[1] % L
    for r in np.flatnonzero(folded):
        out += folded[r] * np.roll(values, ((r * vx) % L, (r * vy) % L), axis=(0, 1))
    return out


class TestSpatialKernel:
    """The spatial kernel reads shifted views of f tiled 2 x 2; its sum is the
    np.roll sum bit for bit, and its pairs go through the workers too."""

    @pytest.mark.parametrize("rows", [None, 7])  # None: the default block size
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("L", [2, 3, 15, 16, 128])
    def test_equals_roll_reference(self, table13, L, real, rows, monkeypatch):
        f = _draw(L, 300 + L, real)
        if rows:  # blocks of 7 rows, the last one short when 7 does not divide L
            monkeypatch.setattr(X, "_ROWS", rows)
            monkeypatch.setattr(X, "_BLOCK_ENTRIES", rows * L)
            assert X._block_rows(L) == min(L, rows)
        for v in ((1, 0), (3, -7), (-2, -5), (10**30 + 1, -(10**30) - 3)):
            cfg = X.OperatorConfig(directions=(v,), k_min=3, k_max=6, table=table13)
            for k in (3, 6):
                got = X.average_along(f, v, k, cfg).values
                assert got.dtype == f.values.dtype
                assert np.array_equal(got, _rolled(f.values, fold_weights(k, L, table13), v))

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("L", [2, 3, 16, 129])
    def test_tiled_equals_np_tile(self, L, real):
        f = _draw(L, 500 + L, real).values
        tiled = X._tiled(f)
        assert tiled.dtype == f.dtype
        assert np.array_equal(tiled, np.tile(f, (2, 2)))

    def test_tiled_peak_is_its_output(self):
        # np.tile(f, (2, 2)) passes through a copy of half its output's size
        # (peak 1.5x); the tiling the spatial route reads allocates its output
        # and nothing else
        f = _draw(256, 7, False).values  # complex: 1 MiB, tiled 4 MiB
        X._tiled(f)
        tracemalloc.start()
        try:
            tiled = X._tiled(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.01 * tiled.nbytes

    @staticmethod
    def _case(table, L, real):
        cfg = X.OperatorConfig(directions=((1, 0), (3, -7), (2, 1)), k_min=5, k_max=6,
                               table=table)
        return cfg, _draw(L, 400 + L, real)

    @pytest.mark.parametrize("real", [True, False])
    def test_any_worker_count_identical(self, table13, real, monkeypatch):
        cfg, f = self._case(table13, 128, real)  # 2^14 entries: the threaded size
        _cpus(monkeypatch, 1)
        one = X.maximal_op(f, cfg, method="spatial").values
        _cpus(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                assert np.array_equal(X.maximal_op(f, cfg, method="spatial").values, one)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("real", [True, False])
    def test_maximal_is_max_of_averages(self, table13, real, monkeypatch):
        _cpus(monkeypatch, 4)
        cfg, f = self._case(table13, 128, real)
        each = [np.abs(X.average_along(f, v, k, cfg).values)
                for k in cfg.scales for v in cfg.directions]
        assert np.array_equal(X.maximal_op(f, cfg, method="spatial").values,
                              np.max(each, axis=0))

    def test_worker_exception_raised(self, table13, monkeypatch):
        kernel = X._roll_sum
        lock = threading.Lock()
        calls = []

        def failing(*args):
            with lock:
                calls.append(None)
                n = len(calls)
            if n == 3:
                raise RuntimeError("third pair")
            return kernel(*args)

        monkeypatch.setattr(X, "_roll_sum", failing)
        _cpus(monkeypatch, 4)
        cfg, f = self._case(table13, 128, False)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third pair"):
            X.maximal_op(f, cfg, method="spatial")
        assert threading.active_count() == before


    def test_one_direction_shares_row_blocks(self, table13, monkeypatch):
        # transference_check's shape: one direction and three scales, so three
        # pairs; the workers take (pair, row block) units instead, 128 rows of
        # an L = 256 grid each, and every unit sums the rows it owns
        cfg = X.OperatorConfig(directions=((3, -7),), k_min=5, k_max=7, table=table13)
        f = _draw(256, 7, False)
        units = []
        kernel = X._roll_sum

        def counted(tiled, folded, v, term, out, first=0):
            units.append((first, len(out)))
            return kernel(tiled, folded, v, term, out, first)

        monkeypatch.setattr(X, "_roll_sum", counted)
        _cpus(monkeypatch, 2)
        got = X.maximal_op(f, cfg, method="spatial").values
        assert sorted(units) == sorted([(b, 128) for b in range(0, 256, 128)] * 3)
        each = [np.abs(_rolled(f.values, fold_weights(k, 256, table13), (3, -7)))
                for k in cfg.scales]
        assert np.array_equal(got, np.max(each, axis=0))

    def test_workers_hold_row_blocks(self, table13, monkeypatch):
        # a complex L = 256 grid is 1 MiB and a row block 128 rows of it,
        # half a grid; two workers hold two blocks each beside f tiled 2 x 2
        # and the output, and one block's float64 modulus (half its bytes),
        # released before the next is made. A quarter grid of slack covers
        # the rest; two L x L arrays on the calling thread exceed it
        cfg, f = self._case(table13, 256, False)
        _, started = _workers(monkeypatch)
        _cpus(monkeypatch, 2)
        X.maximal_op(f, cfg, method="spatial")  # numpy's one-time setup
        tracemalloc.start()
        try:
            X.maximal_op(f, cfg, method="spatial")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(started) == 2  # one thread beside the caller, per call
        grid = f.values.nbytes
        block = X._block_rows(256) * 256 * f.values.itemsize
        assert block == grid // 2
        assert peak < 4 * grid + 256 * 256 * 8 + 4 * block + block + grid // 4


class TestThreshold:
    """Workers start from 2^14 entries of work: the spectrum's on the
    spectral route, the L x L grid's on the spatial one, whose worker arrays
    are row blocks (at L = 255, 128 x 255 entries)."""

    # extra: the workers beside the calling thread
    @pytest.mark.parametrize("method, L, real, extra", [
        ("spectral", 127, False, 0),  # 16 129 entries
        ("spectral", 128, False, 3),  # 16 384
        ("spectral", 180, True, 0),  # 180 x 91 = 16 380
        ("spectral", 181, True, 3),  # 181 x 91 = 16 471
        ("spatial", 127, True, 0),
        ("spatial", 128, True, 3),
        ("spatial", 129, True, 3),
        ("spatial", 255, True, 3),
        ("spatial", 127, False, 0),
        ("spatial", 128, False, 3),
        ("spatial", 129, False, 3),
        ("spatial", 255, False, 3),  # row blocks of 128 x 255
    ])
    def test_boundary(self, table13, method, L, real, extra, monkeypatch):
        cfg = X.OperatorConfig(directions=((1, 0), (3, -7), (2, 1)), k_min=5, k_max=6,
                               table=table13)
        f = _draw(L, 500 + L, real)
        _cpus(monkeypatch, 1)
        one = X.maximal_op(f, cfg, method=method).values
        submitted, started = _workers(monkeypatch)
        _cpus(monkeypatch, 4)
        assert np.array_equal(X.maximal_op(f, cfg, method=method).values, one)
        assert len(submitted) == extra
        assert len(started) <= extra


def _npy(values) -> bytes:
    buf = io.BytesIO()
    np.save(buf, values)
    return buf.getvalue()


class TestFiles:
    def test_round_trip(self, tmp_path):
        f = X.GridFunction.random(16, np.random.default_rng(9))
        path = tmp_path / "g.npy"
        X.save_grid_function(f, path)
        g = X.load_grid_function(path)
        assert g.L == 16 and np.array_equal(g.values, f.values)

    def test_round_trip_keeps_dtype(self, tmp_path):
        # the file is a .npy array of the grid's dtype, its row-major values last
        rng = np.random.default_rng(10)
        real = X.GridFunction(8, rng.standard_normal((8, 8)))
        for f, dtype in ((real, "float64"), (X.GridFunction.random(8, rng), "complex128")):
            path = tmp_path / f"{dtype}.bin"
            X.save_grid_function(f, path)
            assert path.read_bytes() == _npy(f.values)
            assert path.read_bytes().endswith(f.values.astype(dtype).tobytes())
            assert np.load(path).dtype == np.dtype(dtype)
            g = X.load_grid_function(path)
            assert g.values.dtype == np.dtype(dtype) and np.array_equal(g.values, f.values)
        # np.save added no .npy suffix
        assert sorted(p.name for p in tmp_path.iterdir()) == ["complex128.bin", "float64.bin"]

    @pytest.mark.parametrize("dtype", [">f8", ">c16"])
    def test_either_byte_order(self, tmp_path, dtype):
        vals = np.arange(16.0).reshape(4, 4) * (1j if "c" in dtype else 1)
        path = tmp_path / "g.npy"
        path.write_bytes(_npy(vals.astype(dtype)))
        g = X.load_grid_function(path)
        assert g.values.dtype == np.dtype(dtype).newbyteorder("=")
        assert np.array_equal(g.values, vals)

    def test_bad_dtype_header(self, tmp_path):
        path = tmp_path / "g.npy"
        for dtype in ("float32", "complex64", "int64"):
            path.write_bytes(_npy(np.zeros((4, 4), dtype=dtype)))
            with pytest.raises(ParseError, match=re.escape(f"{path}: holds a {dtype} array")):
                X.load_grid_function(path)

    def test_payload_length_checked_per_dtype(self, tmp_path):
        # one entry short, and one entry of a wider dtype too long
        path = tmp_path / "g.npy"
        for dtype in ("float64", "complex128"):
            blob = _npy(np.zeros((4, 4), dtype=dtype))
            size = 16 * np.dtype(dtype).itemsize
            path.write_bytes(blob[:-np.dtype(dtype).itemsize])
            with pytest.raises(ParseError, match=f"payload holds {size - size // 16} bytes, "
                                                 f"expected {size}"):
                X.load_grid_function(path)
            path.write_bytes(blob + bytes(16))
            with pytest.raises(ParseError, match=f"payload holds {size + 16} bytes, "
                                                 f"expected {size}"):
                X.load_grid_function(path)

    @pytest.mark.parametrize("shape", [(10**6, 10**6), (2**40, 2**40), (-1, -1)])
    def test_claimed_shape_checked_before_allocation(self, tmp_path, shape):
        # a short file whose header claims a huge shape: refused on the file
        # size, before numpy allocates the array it claims
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": shape})
        path = tmp_path / "g.npy"
        path.write_bytes(header.getvalue() + bytes(8))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=re.escape(str(path))):
                X.load_grid_function(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_magic(self, tmp_path):
        # an old PDGF file, and a .npz archive, fail on the .npy magic string,
        # not with numpy's message about pickled data
        path = tmp_path / "g.npy"
        npz = io.BytesIO()
        np.savez(npz, g=np.zeros((4, 4)))
        for blob in (b"PDGF 1\nL 4\ndtype complex128\nEND\n" + bytes(4 * 4 * 16),
                     b"WRONG 1\nL 4\ndtype complex128\nEND\n" + bytes(4 * 4 * 16),
                     npz.getvalue()):
            path.write_bytes(blob)
            with pytest.raises(ParseError, match="magic string") as exc:
                X.load_grid_function(path)
            assert str(path) in str(exc.value) and "pickle" not in str(exc.value)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "g.npy"
        blob = _npy(np.zeros((4, 4), dtype=complex))
        path.write_bytes(blob[:len(blob) - 4 * 4 * 16 + 10])
        with pytest.raises(ParseError, match=re.escape(str(path))):
            X.load_grid_function(path)

    @pytest.mark.parametrize("blob,match", [
        (b"", "reading magic string"),
        (_npy(np.zeros((4, 4)))[:40], "reading array header"),
        (_npy(np.zeros(16)), r"shape \(16,\)"),
        (_npy(np.zeros((2, 2, 4))), r"shape \(2, 2, 4\)"),
        (_npy(np.zeros((4, 8))), r"shape \(4, 8\)"),
        (_npy(np.zeros((4, 4), dtype=object)), "holds a object array"),
        (_npy(np.zeros((1, 1))), "grid side must be >= 2"),
        (_npy(np.full((4, 4), np.nan)), "finite"),
    ], ids=["empty", "short-header", "1d", "3d", "non-square", "object", "1x1", "nan"])
    def test_malformed_file_is_parse_error(self, tmp_path, blob, match):
        path = tmp_path / "g.npy"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=match) as exc:
            X.load_grid_function(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_csv_export_real_only(self, tmp_path):
        f = X.GridFunction(4, np.ones((4, 4), dtype=complex))
        X.export_csv(f, tmp_path / "g.csv")
        rows = (tmp_path / "g.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        g = X.GridFunction(4, 1j * np.ones((4, 4)))
        with pytest.raises(ValueError):
            X.export_csv(g, tmp_path / "h.csv")

class TestConfig:
    def test_limit_checked(self, table13):
        with pytest.raises(ValueError):
            X.OperatorConfig(directions=((1, 0),), k_min=5, k_max=13, table=table13)

    def test_zero_direction_rejected(self, table13):
        with pytest.raises(ValueError):
            X.OperatorConfig(directions=((0, 0),), k_min=5, k_max=6, table=table13)

    def test_scale_order_checked(self, table13):
        with pytest.raises(ValueError):
            X.OperatorConfig(directions=((1, 0),), k_min=7, k_max=6, table=table13)

    def test_negative_scale_rejected(self, table13):
        # a negative scale reads no prime, and scale 0 only the prime 2 at
        # weight 0: either gave an all-zero operator
        for k_min, k_max in ((-3, -1), (-1, 2), (0, 0), (0, 1)):
            with pytest.raises(ValueError, match="scale must be >= 1"):
                X.OperatorConfig(directions=((1, 0),), k_min=k_min, k_max=k_max, table=table13)
        cfg = X.OperatorConfig(directions=((1, 0),), k_min=1, k_max=2, table=table13)
        assert cfg.scales == range(1, 3)
