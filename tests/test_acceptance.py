"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single summary line so a verbose run reads as a checklist.
Criteria marked with runtime budgets assert them too (with slack for machine
variance only where the budget is explicitly part of the criterion).
"""

import math
import time
from fractions import Fraction

import numpy as np

from primedir import arith, directions, incidence, maximal, multiplier


def _report(name: str, detail: str):
    print(f"[PASS] {name}: {detail}")


# -- 1. arithmetic oracles ------------------------------------------------------


def test_criterion_1_arithmetic_oracles():
    t0 = time.perf_counter()
    n_max = 10**4
    # linear sieve for mobius and totient up to 10^4
    mob = np.zeros(n_max + 1, dtype=np.int64)
    tot = np.zeros(n_max + 1, dtype=np.int64)
    mob[1] = tot[1] = 1
    primes = []
    is_comp = np.zeros(n_max + 1, dtype=bool)
    for i in range(2, n_max + 1):
        if not is_comp[i]:
            primes.append(i)
            mob[i], tot[i] = -1, i - 1
        for p in primes:
            if i * p > n_max:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mob[i * p] = 0
                tot[i * p] = tot[i] * p
                break
            mob[i * p] = -mob[i]
            tot[i * p] = tot[i] * (p - 1)
    # cross-check the sieve against the package implementations on a stripe
    for q in range(1, n_max + 1, 97):
        assert arith.mobius(q) == mob[q] and arith.totient(q) == tot[q]
    # divisor-sum identities for every q <= 10^4, accumulated over multiples
    mob_sum = np.zeros(n_max + 1, dtype=np.int64)
    tot_sum = np.zeros(n_max + 1, dtype=np.int64)
    for d in range(1, n_max + 1):
        mob_sum[d::d] += mob[d]
        tot_sum[d::d] += tot[d]
    assert mob_sum[1] == 1 and np.all(mob_sum[2:] == 0)
    assert np.all(tot_sum[1:] == np.arange(1, n_max + 1))

    # Ramanujan sums: brute force equals closed form for q <= 200, |n| <= 200
    ns = np.arange(-200, 201)
    worst = 0.0
    for q in range(1, 201):
        a = np.array([x for x in range(1, q + 1) if math.gcd(x, q) == 1])
        brute = np.exp(2j * np.pi * np.outer(ns, a) / q).sum(axis=1)
        closed = np.array([arith.ramanujan_sum(q, int(n)) for n in ns])
        worst = max(worst, float(np.abs(brute - closed).max()))
    assert worst < 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"
    _report("criterion 1", f"divisor sums to 1e4, ramanujan worst dev {worst:.2e}, {elapsed:.1f}s")


# -- 2. multiplier approximation --------------------------------------------------


def test_criterion_2_multiplier_decay(table21):
    t0 = time.perf_counter()
    res = multiplier.error_profile([14, 16, 18, 20], 17.0, 1024, table21)
    sups = [r.sup_abs_E for r in res.rows]
    assert all(a > b for a, b in zip(sups, sups[1:])), sups

    m_half = multiplier.m_k(20, Fraction(1, 2), table21)
    m_third = multiplier.m_k(20, Fraction(1, 3), table21)
    assert abs(m_half - (-1.0)) < 0.1
    assert abs(m_third - (-0.5)) < 0.1

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 2min"
    _report(
        "criterion 2",
        f"sup|E_k| strictly decreasing {['%.4f' % s for s in sups]}, "
        f"|m(1/2)+1|={abs(m_half + 1):.3f}, |m(1/3)+1/2|={abs(m_third + 0.5):.3f}, {elapsed:.1f}s",
    )


# -- 3. spectral = spatial ---------------------------------------------------------


def test_criterion_3_spectral_equals_spatial(toy_ds, table13):
    t0 = time.perf_counter()
    # pin the tested pairs to the shipped desk-small profile
    from primedir.cli import PROFILES

    p = PROFILES["desk-small"]
    assert (toy_ds.spec.N, toy_ds.spec.eps, toy_ds.spec.seed) == (p["n"], p["eps"], p["seed"])
    assert table13.limit == 2 ** (p["k_max"] + 1)
    cfg = maximal.OperatorConfig(directions=toy_ds.integer_vectors, k_min=p["k_min"],
                                 k_max=p["k_max"], table=table13)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for L in (64, 128):
        for _ in range(20):
            f = maximal.GridFunction.random(L, rng)
            for v in cfg.directions:
                for k in cfg.scales:
                    a = maximal.average_along(f, v, k, cfg)
                    b = maximal.spectral_average(f, v, k, cfg)
                    rel = np.linalg.norm(a.values - b.values) / np.linalg.norm(a.values)
                    worst = max(worst, rel)
    assert worst < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 runtime {elapsed:.1f}s exceeds 1min"
    _report("criterion 3", f"worst relative l2 gap {worst:.2e} over desk-small pairs, {elapsed:.1f}s")


# -- 4. delta-spread identity ------------------------------------------------------


def test_criterion_4_delta_spread(table13):
    cfg = maximal.OperatorConfig(
        directions=((1, 0), (0, 1), (1, 1), (2, 1)), k_min=5, k_max=6, table=table13
    )
    L = 512
    assert maximal.delta_spread_disjoint(cfg, L)
    measured = maximal.maximal_op(maximal.GridFunction.delta(L), cfg, method="spatial").norm2()
    closed = maximal.delta_spread_value(cfg)
    rel = abs(measured - closed) / closed
    assert rel <= 1e-10
    _report("criterion 4", f"measured {measured:.12f} vs closed form {closed:.12f}, rel {rel:.1e}")


# -- 5. construction validation ----------------------------------------------------


def test_criterion_5_construction_matrix(toy_matrix):
    t0 = time.perf_counter()
    for (n, eps), ds in toy_matrix.items():
        directions.validate_direction_set(ds)  # all constraints, exact arithmetic
        blob = directions.serialize(ds)
        assert directions.serialize(directions.deserialize(blob)) == blob
        rebuilt = directions.rescale_to_integers(
            directions.construct_directions(ds.spec)
        )
        assert directions.serialize(rebuilt) == blob
        for i in range(len(ds.vectors)):
            for j in range(i + 1, len(ds.vectors)):
                vi, vj = ds.vectors[i], ds.vectors[j]
                assert abs(vi.m * vj.n - vi.n * vj.m) >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 5 runtime {elapsed:.1f}s exceeds 5s"
    _report("criterion 5", f"6 toy families valid, byte-stable, cross products >= 1, {elapsed:.1f}s")


# -- 6. incidence separation -------------------------------------------------------


def test_criterion_6_incidence_separation(toy_matrix):
    t0 = time.perf_counter()
    results = []
    for (n, eps), ds in toy_matrix.items():
        for s in (1, 2, 3):
            fams = incidence.families_from_direction_set(ds, s=s)
            win = incidence.default_window("ktilde")
            rep = incidence.max_overlap_scan(fams, win)
            assert rep.method == "exact-candidates"
            base = fams[:1] * n  # the parallel baseline
            repb = incidence.max_overlap_scan(base, win)
            assert repb.max_overlap == n
            assert incidence.replay_witness(repb, base) == n
            assert rep.max_overlap < repb.max_overlap
            assert incidence.replay_witness(rep, fams) == rep.max_overlap
            results.append((n, eps, s, rep.max_overlap))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 6 runtime {elapsed:.1f}s exceeds 2min"
    worst = max(r[3] for r in results)
    _report("criterion 6", f"18 scans, constructed max {worst} < N everywhere, {elapsed:.1f}s")


# -- 7. transference ---------------------------------------------------------------


def test_criterion_7_transference(toy_ds, table13):
    cfg = maximal.OperatorConfig(directions=toy_ds.integer_vectors, k_min=5, k_max=6,
                                 table=table13)
    rep = maximal.transference_check(cfg, L=32, trials=100, seed=11)
    assert rep.max_off_line_leak == 0.0
    assert rep.max_norm_rel_err <= 1e-10
    _report(
        "criterion 7",
        f"locality leak {rep.max_off_line_leak}, 2D/1D norm rel err {rep.max_norm_rel_err:.2e} "
        f"over {rep.trials} trials",
    )


# -- 8. folded-DFT performance ------------------------------------------------------


def test_criterion_8_folded_dft_speed(table21):
    L, k = 1 << 16, 20
    t0 = time.perf_counter()
    folded = multiplier.m_k_grid(k, L, table21)
    t_folded = time.perf_counter() - t0

    # the naive path costs one full prime pass per point; timing it on a
    # 1/16 stride of the same grid already bounds the full-grid time from
    # below, which is all the >= 20x claim needs
    sub_L = L // 16
    t0 = time.perf_counter()
    naive_sub = multiplier.m_k_naive_grid(k, sub_L, table21)
    t_naive_sub = time.perf_counter() - t0

    agree = float(np.abs(naive_sub - folded[::16]).max())
    assert agree < 1e-9

    # spot-check full-grid folded values against the exact-phase scalar path
    rng = np.random.default_rng(8)
    for j in rng.integers(0, L, size=32):
        exact = multiplier.m_k(k, Fraction(int(j), L), table21)
        assert abs(folded[j] - exact) < 1e-9

    speedup_lower_bound = t_naive_sub / t_folded  # naive full grid is ~16x slower still
    assert speedup_lower_bound >= 20.0, (
        f"folded {t_folded:.3f}s vs naive(1/16 grid) {t_naive_sub:.3f}s"
    )
    _report(
        "criterion 8",
        f"folded {t_folded * 1e3:.0f}ms for 2^16 points; naive needs {t_naive_sub:.1f}s for "
        f"2^12 of them (>= {speedup_lower_bound:.0f}x even against 1/16 of the work); "
        f"max deviation {agree:.1e}",
    )
