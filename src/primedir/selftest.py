"""Fast self-contained oracle checks, one per derived identity in the package.

Each check recomputes an expected value by an independent route (brute force,
direct summation, enumeration, an alternative algorithm) and compares.  The
CLI ``selftest`` command runs them all and reports PASS/FAIL per check; the
pytest suite covers the same ground at larger sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import arith, bumps, directions, incidence, maximal, multiplier


def _require(cond, msg) -> None:
    """Raise AssertionError(msg) unless cond holds; unlike assert, this also runs under -O."""
    if not cond:
        raise AssertionError(msg)


def _check_arith_identities():
    for q in range(1, 2001):
        divisors = [d for d in range(1, q + 1) if q % d == 0]
        _require(sum(arith.mobius(d) for d in divisors) == (1 if q == 1 else 0), q)
        _require(sum(arith.totient(d) for d in divisors) == q, q)


def _check_ramanujan_cross_validation():
    for q in range(1, 61):
        for n in range(-30, 31):
            closed = arith.ramanujan_sum(q, n)
            brute = arith.ramanujan_sum_bruteforce(q, n)
            _require(abs(closed - brute) < 1e-9, (q, n, closed, brute))


def _check_profile_grid():
    # every reduced a/q with q < 128 (the Farey levels s <= 6) and every j/G
    for G in (64, 1000):
        brute = {Fraction(a, q) for q in range(1, 128) for a in range(q) if math.gcd(a, q) == 1}
        brute.update(Fraction(j, G) for j in range(G))
        _require(multiplier._profile_grid(G) == sorted(brute), G)


def _check_bumps():
    c = bumps._normalization_constant()
    _require(bumps.eval_phi(0.5) == 0.0, "phi(0.5)")
    _require(abs(bumps.eval_phi(1.5) - c * math.exp(-1)) < 1e-14, "phi(1.5)")
    _require(bumps.eval_chi(0.0) == 1.0 and bumps.eval_chi(0.6) == 0.0, "chi(0), chi(0.6)")
    _require(abs(bumps.eval_chi(0.375) - 0.5) < 1e-14, "chi(0.375)")
    _require(bumps.chi_s(0, 0.0) == 1.0, "chi_0(0)")
    _require(bumps.chi_s(0, 2.0**-42) == 1.0, "chi_0 plateau boundary")
    _require(bumps.chi_s(2, 1.0) == 0.0, "chi_2(1)")
    _require(abs(bumps.v_k(12, 0.0) - 1.0) < 1e-12, "V_12(0)")
    a = bumps.v_k(10, 2.0**-5)
    b = bumps.v_k(10, -(2.0**-5))
    _require(abs(a - b.conjugate()) < 1e-13, "V_k conjugate symmetry")


def _check_vk_decay():
    l1_d1, _ = bumps.phi_deriv_l1()
    C = l1_d1 / (2 * math.pi) + 0.5
    for X in (1.0, 10.0, 100.0, 1000.0):
        val = abs(bumps.v_k(0, X))
        _require(val <= C / X + 1e-12, (X, val))


def _check_multiplier_pnt(table):
    m0 = multiplier.m_k(12, Fraction(0), table)
    _require(abs(m0 - 1) < 0.1, m0)
    mh = multiplier.m_k(12, Fraction(1, 2), table)
    _require(abs(mh + m0) < 1e-12, mh)  # exactly -m_k(0) once p = 2 has left the window
    mt = multiplier.m_k(12, Fraction(1, 3), table)
    _require(abs(mt + 0.5) < 0.1, mt)
    _require(abs(multiplier.L_k(12, Fraction(1, 3)) + 0.5) < 1e-10, "L_12(1/3)")


def _check_folded_grid(table):
    g = multiplier.m_k_grid(12, 256, table)
    n = multiplier.m_k_naive_grid(12, 256, table)
    _require(np.abs(g - n).max() < 1e-9, np.abs(g - n).max())


def _check_construction():
    for N in (4, 8):
        spec = directions.DirectionSpec(N=N, eps=0.5, seed=7)
        ds = directions.rescale_to_integers(directions.construct_directions(spec))
        directions.validate_direction_set(ds)
        blob = directions.serialize(ds)
        again = directions.rescale_to_integers(directions.construct_directions(spec))
        _require(directions.serialize(again) == blob, "determinism")
        _require(directions.serialize(directions.deserialize(blob)) == blob, "round trip")


def _check_incidence():
    F = Fraction
    f1 = incidence.TubeFamily(v=(F(1), F(0)), r=2, s=1, C1=8, torus_side=1)
    f2 = incidence.TubeFamily(v=(F(0), F(1)), r=3, s=1, C1=8, torus_side=1)
    win = incidence.default_window("k")
    rep = incidence.max_overlap_scan([f1, f2], win)
    _require(rep.max_overlap == 2 and incidence.replay_witness(rep, [f1, f2]) == 2,
             rep.max_overlap)
    spec = directions.DirectionSpec(N=4, eps=1.0, seed=7)
    ds = directions.rescale_to_integers(directions.construct_directions(spec))
    fams = incidence.families_from_direction_set(ds, s=2)
    win2 = incidence.default_window("ktilde")
    rep2 = incidence.max_overlap_scan(fams, win2)
    repb = incidence.max_overlap_scan(fams[:1] * 4, win2)  # the parallel baseline
    _require(1 <= rep2.max_overlap < repb.max_overlap == 4, (rep2.max_overlap, repb.max_overlap))


def _check_operator(table):
    cfg = maximal.OperatorConfig(
        directions=((1, 0), (0, 1), (1, 1), (2, 1)), k_min=5, k_max=6, table=table
    )
    rng = np.random.default_rng(0)
    # the spectral route runs real f as one half-spectrum lane and complex f
    # as two; on an odd side the half spectrum does not fix the inverse's
    # length, so both lane counts are checked there
    for f in (maximal.GridFunction.random(64, rng),
              maximal.GridFunction.random(63, rng, kind="rademacher"),
              maximal.GridFunction.random(63, rng)):
        for v in cfg.directions:
            a = maximal.average_along(f, v, 6, cfg)
            b = maximal.spectral_average(f, v, 6, cfg)
            _require(np.iscomplexobj(b.values) == np.iscomplexobj(f.values), b.values.dtype)
            rel = np.linalg.norm(a.values - b.values) / np.linalg.norm(a.values)
            _require(rel < 1e-8, rel)
    L = 512
    _require(maximal.delta_spread_disjoint(cfg, L), "disjoint precondition")
    measured = maximal.maximal_op(maximal.GridFunction.delta(L), cfg, method="spatial").norm2()
    closed = maximal.delta_spread_value(cfg)
    _require(abs(measured - closed) <= 1e-10 * closed, (measured, closed))
    rep = maximal.transference_check(cfg, L=16, trials=10, seed=1)
    _require(rep.max_off_line_leak == 0.0, rep.max_off_line_leak)
    _require(rep.max_norm_rel_err <= 1e-10, rep.max_norm_rel_err)


def run_all(verbose: bool = True) -> bool:
    """Run every oracle; print one PASS/FAIL line each; True when all pass."""
    table = arith.sieve_primes(2**13)
    checks = [
        ("mobius/totient divisor sums", _check_arith_identities),
        ("ramanujan closed form vs brute force", _check_ramanujan_cross_validation),
        ("profile grid content", _check_profile_grid),
        ("bump and cutoff exact values", _check_bumps),
        ("oscillatory profile decay bound", _check_vk_decay),
        ("multiplier PNT consistency", lambda: _check_multiplier_pnt(table)),
        ("folded DFT vs naive grid", lambda: _check_folded_grid(table)),
        ("direction construction, determinism, round trip", _check_construction),
        ("tube membership and overlap scans", _check_incidence),
        ("operator identities and transference", lambda: _check_operator(table)),
    ]
    ok = True
    for name, fn in checks:
        try:
            fn()
            status = "PASS"
        except Exception as exc:  # noqa: BLE001 - report and continue
            status = f"FAIL ({exc})"
            ok = False
        if verbose:
            print(f"[{status.split()[0]:4}] {name}" + ("" if status == "PASS" else f": {status}"))
    return ok
