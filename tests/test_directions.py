import dataclasses
import functools
import hashlib
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primedir import directions as D
from primedir.arith import is_prime_certified
from primedir.errors import ConstructionError, ParseError, integer, rational


class TestSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            D.DirectionSpec(N=1, eps=0.5)
        with pytest.raises(ValueError):
            D.DirectionSpec(N=4, eps=0.0)
        with pytest.raises(ValueError):
            D.DirectionSpec(N=4, eps=1.5)
        with pytest.raises(ValueError):
            D.DirectionSpec(N=4, eps=0.5, mode="loose")

    @pytest.mark.parametrize("name", ["N", "M", "seed", "C0"])
    def test_rejects_non_integers(self, name):
        # 4.0 would pass every range check and fail deep in the construction
        with pytest.raises(TypeError, match="must be integers"):
            D.DirectionSpec(**{"N": 4, "eps": 0.5, name: 4.0})
        with pytest.raises(TypeError, match="must be integers"):
            D.DirectionSpec(**{"N": 4, "eps": 0.5, name: True})


class TestKappa:
    def test_examples(self):
        assert D.choose_kappa(4, 6) == 2
        assert D.choose_kappa(6, 20) == 3
        assert D.choose_kappa(5, 10) == 2

    def test_small_window_takes_singletons(self):
        assert D.choose_kappa(8, 8) == 1

    def test_infeasible_raises(self):
        with pytest.raises(ConstructionError, match="enlarge"):
            D.choose_kappa(2, 4)


class TestPrimeWindow:
    def test_toy_example(self):
        spec = D.DirectionSpec(N=4, eps=1.0, window_base=1000, window_count=4)
        assert D.choose_prime_window(spec) == [1009, 1013, 1019, 1021]

    def test_strict_small_case(self):
        spec = D.DirectionSpec(N=4, eps=1.0, M=2, mode="strict")
        assert D.choose_prime_window(spec) == [17, 19]

    def test_all_members_certified(self):
        spec = D.DirectionSpec(N=8, eps=0.5, seed=3)
        assert all(is_prime_certified(p) for p in D.choose_prime_window(spec))

    def test_exhausted_window_raises(self):
        spec = D.DirectionSpec(N=4, eps=1.0, window_base=10, window_count=100)
        with pytest.raises(ConstructionError, match="exhausted"):
            D.choose_prime_window(spec)


def _reference_dyadic_exponent(T: Fraction) -> int:
    """The smallest e with 4^e T >= 1/100, by stepping e through Fraction powers."""
    e = 0
    while Fraction(4) ** e * T < Fraction(1, 100):
        e += 1
    while Fraction(4) ** (e - 1) * T >= Fraction(1, 100):
        e -= 1
    return e


class TestDyadicExponent:
    @settings(max_examples=500, deadline=None)
    @given(num=st.integers(1, 1 << 400), den=st.integers(1, 1 << 400))
    def test_equals_fraction_loop(self, num, den):
        T = Fraction(num, den)
        assert D._dyadic_exponent(T) == _reference_dyadic_exponent(T)

    # the threshold itself and its neighbours, on both sides of e = 0
    @pytest.mark.parametrize("T", [
        Fraction(1, 100), Fraction(1, 400), Fraction(1, 25), Fraction(1, 101), Fraction(1, 99),
        Fraction(4, 100) - Fraction(1, 10**9), Fraction(1), Fraction(10**40, 3),
        Fraction(3, 10**40)])
    def test_thresholds(self, T):
        assert D._dyadic_exponent(T) == _reference_dyadic_exponent(T)

    @pytest.mark.parametrize("T", [Fraction(0), Fraction(-1, 7)])
    def test_nonpositive_rejected(self, T):
        with pytest.raises(ValueError):
            D._dyadic_exponent(T)


def _reference_bullets(ds: D.DirectionSet) -> None:
    """The normalizer, metadata and magnitude bullets of validate_direction_set,
    then its rescaling check, in Fraction arithmetic, with the same messages."""
    N = ds.spec.N
    for i, rec in enumerate(ds.vectors):
        e = rec.q_exponent
        Q = Fraction(2) ** e
        q_lo = Fraction(1, (2 ** (100 * ds.kappa)) * N**2)
        q_hi = Fraction(2 ** (100 * ds.kappa), N**2)
        if not q_lo <= Q <= q_hi:
            raise ConstructionError(f"dyadic normalizer bullet violated at vector {i}: Q = 2^{e}")
        S = Fraction(ds.prime_product(i), ds.scale_denominator)
        x, y = rec.v
        if x != rec.m * Q * S or y != rec.n * Q * S:
            raise ConstructionError(f"vector {i} disagrees with its construction metadata")
        norm2 = x * x + y * y
        if not (Fraction(1, 100) <= norm2 <= Fraction(100)):
            raise ConstructionError(
                f"magnitude bullet violated at vector {i}: |v|^2 = {float(norm2):.3g}")
    A, At = ds.A, ds.A_tilde
    if not (Fraction(A, 10) <= At <= 10 * A):
        raise ConstructionError(f"A_tilde = {At} outside [A/10, 10A]")
    for i, (ix, iy) in enumerate(ds.integer_vectors):
        vx, vy = (t * At for t in ds.vectors[i].v)
        if vx.denominator != 1 or vy.denominator != 1 or (int(vx), int(vy)) != (ix, iy):
            raise ConstructionError(f"integer vector {i} is not exactly A_tilde * v_{i}")
        r2 = ix * ix + iy * iy
        if not (10_000 * r2 >= A * A and r2 <= 10_000 * A * A):
            raise ConstructionError(
                f"integer-annulus condition violated at vector {i}: |Av|^2 = {r2}")


def _outcome(check, ds) -> str | None:
    """The ConstructionError message the check raises on ds, or None."""
    try:
        check(ds)
    except ConstructionError as exc:
        return str(exc)
    return None


_rescaled = functools.cache(
    lambda n, seed: D.rescale_to_integers(D.construct_directions(D.DirectionSpec(N=n, eps=0.5,
                                                                                  seed=seed))))


@st.composite
def _tampered_sets(draw):
    """A rescaled set with one field tampered: a q_exponent (around +-100 kappa,
    at the normalizer's edges, where N = 4 or 8 puts N^2 on a power of two,
    or shifted with v rescaled to match it), one numerator of v, an integer
    vector, or A at the ends of [A_tilde / 10, 10 A_tilde]."""
    ds = _rescaled(draw(st.sampled_from((4, 5, 8))), draw(st.integers(0, 2)))
    i = draw(st.integers(0, len(ds.vectors) - 1))
    rec = ds.vectors[i]
    k, bits = 100 * ds.kappa, (ds.spec.N ** 2).bit_length()
    kind = draw(st.sampled_from(("q", "q-and-v", "numerator", "integer", "A")))
    if kind in ("q", "q-and-v"):
        lowest, highest = -(k + bits - 1), k - (ds.spec.N ** 2 - 1).bit_length()
        e = draw(st.sampled_from((k, -k, lowest, highest, rec.q_exponent)))
        e += draw(st.integers(-2, 2))
        v = rec.v
        if kind == "q-and-v":
            S = Fraction(2) ** e * Fraction(ds.prime_product(i), ds.scale_denominator)
            v = (rec.m * S, rec.n * S)
        rec = dataclasses.replace(rec, q_exponent=e, v=v)
    elif kind == "numerator":
        step = draw(st.sampled_from((-1, 1)))
        x, y = rec.v
        if draw(st.booleans()):
            x = Fraction(x.numerator + step, x.denominator)
        else:
            y = Fraction(y.numerator + step, y.denominator)
        rec = dataclasses.replace(rec, v=(x, y))
    elif kind == "integer":
        ix, iy = ds.integer_vectors[i]
        d = draw(st.sampled_from(((1, 0), (0, -1), (-ix, -iy), (iy - ix, ix - iy))))
        ints = list(ds.integer_vectors)
        ints[i] = (ix + d[0], iy + d[1])
        return dataclasses.replace(ds, integer_vectors=tuple(ints))
    else:
        At = ds.A_tilde
        A = draw(st.sampled_from((10 * At, 10 * At + 1, -(-At // 10), -(-At // 10) - 1)))
        return dataclasses.replace(ds, A=A)
    return dataclasses.replace(ds, vectors=ds.vectors[:i] + (rec,) + ds.vectors[i + 1:])


class TestIntegerValidation:
    """The integer forms of the normalizer, metadata, magnitude and rescaling
    checks against their Fraction forms."""

    @settings(max_examples=300, deadline=None)
    @given(ds=_tampered_sets())
    def test_tampered_sets_raise_alike(self, ds):
        assert _outcome(D.validate_direction_set, ds) == _outcome(_reference_bullets, ds)

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_valid_sets_pass_alike(self, n):
        ds = _rescaled(n, 0)
        assert _outcome(D.validate_direction_set, ds) is None
        assert _outcome(_reference_bullets, ds) is None
        At = ds.A_tilde
        assert ds.integer_vectors == tuple((int(rec.v[0] * At), int(rec.v[1] * At))
                                           for rec in ds.vectors)

    def test_normalizer_edges_named(self):
        # N = 4: N^2 = 2^4, so Q = 2^(100 kappa - 4) equals the upper bound
        ds = _rescaled(4, 0)
        k = 100 * ds.kappa
        for e, ok in ((k - 4, True), (k - 3, False), (-k - 4, True), (-k - 5, False)):
            rec = dataclasses.replace(ds.vectors[0], q_exponent=e)
            bad = dataclasses.replace(ds, vectors=(rec,) + ds.vectors[1:])
            got = _outcome(D.validate_direction_set, bad)
            assert got == _outcome(_reference_bullets, bad)
            assert got.startswith("dyadic normalizer bullet") is not ok


    # |(12, 5)| = 13, so v_0 = (12, 5) 2^e P / R has |v_0|^2 = 100 exactly at
    # 2^e P / R = 10 / 13 and 1 / 100 exactly at 1 / 130; v_1 = (9, 4) ... stays inside
    @pytest.mark.parametrize("R,e0,subsets,ok", [
        (13, 1, ((0,), (1,)), True),
        (12, 1, ((0,), (1,)), False),
        (1690, 0, ((1,), (0,)), True),
        (1691, 0, ((1,), (0,)), False),
    ])
    def test_magnitude_edges(self, R, e0, subsets, ok):
        window = (5, 13)
        recs = []
        for (m, n), e, sub in zip(((12, 5), (9, 4)), (e0, 2 if R > 100 else 0), subsets):
            S = Fraction(2) ** e * Fraction(window[sub[0]], R)
            recs.append(D.VectorRecord(m=m, n=n, q_exponent=e, prime_subset=sub,
                                       v=(m * S, n * S)))
        ds = D.DirectionSet(spec=D.DirectionSpec(N=2, eps=1.0), kappa=1, prime_window=window,
                            scale_denominator=R, eps_adjusted=None, vectors=tuple(recs))
        got = _outcome(D.validate_direction_set, ds)
        # the reference's rescaling check needs a rescaled set; here none is
        want = _outcome(lambda d: _reference_bullets(dataclasses.replace(
            d, A=1, A_tilde=1, integer_vectors=())), ds)
        assert got == want
        assert (got is None) == ok
        assert ok or got.startswith("magnitude bullet violated at vector 0")


class TestMnPairs:
    def test_constraints_exact(self):
        for N in (2, 4, 16):
            pairs = D.select_mn_pairs(N, seed=0)
            assert len(pairs) == N
            for m, n in pairs:
                assert m > 0 and n > 0
                assert m <= 4 * n and 2 * n <= m  # slope in [1/4, 1/2]
                r2 = m * m + n * n
                assert 100 * r2 >= N**4 and r2 <= 100 * N**4
            for i in range(N):
                for j in range(i + 1, N):
                    mi, ni = pairs[i]
                    mj, nj = pairs[j]
                    assert mi * nj - ni * mj != 0

    def test_deterministic(self):
        assert D.select_mn_pairs(8, seed=42) == D.select_mn_pairs(8, seed=42)
        assert D.select_mn_pairs(8, seed=42) != D.select_mn_pairs(8, seed=43)

    @staticmethod
    def _rows_from_one(N, seed):
        """The older selection: every row from m = 1, both annulus radii
        tested, then the same seeded shuffle and greedy filter."""
        cands = []
        for m in range(1, 10 * N**2 + 2):
            cands += [(m, n) for n in range((m + 3) // 4, m // 2 + 1)
                      if 100 * (m * m + n * n) >= N**4 and m * m + n * n <= 100 * N**4]
            if len(cands) >= max(64, 4 * N):
                break
        random.Random(f"{seed}:mn").shuffle(cands)
        chosen = []
        for m, n in cands:
            if all(m * n2 - n * m2 for m2, n2 in chosen):
                chosen.append((m, n))
        return chosen[:N]

    @pytest.mark.parametrize("N, seeds", [(N, range(4)) for N in range(2, 65)]
                             + [(96, [0]), (128, [0]), (256, [0])])
    def test_equals_rows_from_one(self, N, seeds):
        for seed in seeds:
            assert D.select_mn_pairs(N, seed) == self._rows_from_one(N, seed)

    def test_first_scan_holds_n_classes(self):
        """The finite part of select_mn_pairs' proof: every N up to N0 = 400."""
        for N in range(2, 401):
            cands = D._annulus_candidates(N)
            if N % 13 == 0:  # each row's least n, against testing every n of the slope cone
                rows = range(D._inner_row(N), cands[-1][0] + 1)
                assert cands == [(m, n) for m in rows for n in range((m + 3) // 4, m // 2 + 1)
                                 if 100 * (m * m + n * n) >= N**4], N
            classes = Counter((m // math.gcd(m, n), n // math.gcd(m, n)) for m, n in cands)
            assert 2 * len(classes) >= 7 * N, N
            last = cands[-1][0]
            assert last * last + (last // 2) ** 2 <= 100 * N**4, N  # inside the outer radius
            if N >= 37:  # what step (d) proves from N0 on holds here already
                assert all(c == 1 for k, c in classes.items() if k != (2, 1)), N

    def test_inner_row_is_the_edge(self):
        def row(m, N):
            return [n for n in range((m + 3) // 4, m // 2 + 1) if 100 * (m * m + n * n) >= N**4]

        assert D._inner_row(2) == D._inner_row(3) == 1  # row 1 holds no n at all
        for N in range(4, 200):
            m0 = D._inner_row(N)
            assert not row(m0 - 1, N) and row(m0, N), N
        for N in [*range(200, 20000, 7), 10**9 + 7, 3**40]:
            m0 = D._inner_row(N)
            assert 100 * ((m0 - 1) ** 2 + ((m0 - 1) // 2) ** 2) < N**4, N
            assert 100 * (m0 * m0 + (m0 // 2) ** 2) >= N**4, N

    @pytest.mark.parametrize("N, seed, digest", [
        (8, 0, "afb38b91d2549ddc4ac022da71345edb35da5b6a5fb82bc5632332e14d811fbd"),
        (8, 1, "5c7c9d46067339c36e7c270db93532ae8e42dc4dbb8e60c2e428bc7781fc7c21"),
        (8, 2, "9909e114290e26f94470596f4abc2cdbf19ae482edca257e892c296162b11706"),
        (8, 3, "3bcc55b677b8dac3d78ee24a9b1762b34d4ba44c734011f6d5367cf7667e22f3"),
        (16, 0, "d2cf84321d0400d6f57d33ae671e7d69ff94ee5ede03a81fa8bcc2fb709cf561"),
    ])
    def test_benchmark_sets_keep_their_hashes(self, N, seed, digest):
        """The rescaled sets the benchmark workloads build, pinned by content hash."""
        ds = D.rescale_to_integers(D.construct_directions(D.DirectionSpec(N=N, eps=0.5, seed=seed)))
        blob = D.serialize(ds)
        assert json.loads(blob)["content_hash"] == digest
        assert D.serialize(D.deserialize(blob)) == blob


class TestPrimeSubsets:
    def test_sampled_subsets(self):
        # C(700, 2) = 244 650 > 200 000: the subsets are sampled, not enumerated,
        # and returned in sorted order
        subsets = D._choose_prime_subsets(700, 2, 20, seed=3)
        assert len(set(subsets)) == 20
        assert subsets == sorted(subsets)
        assert all(len(t) == 2 and list(t) == sorted(t) and 0 <= t[0] and t[1] < 700
                   for t in subsets)
        assert D._choose_prime_subsets(700, 2, 20, seed=3) == subsets
        assert D._choose_prime_subsets(700, 2, 20, seed=4) != subsets


class TestConstruction:
    def test_toy_matrix_validates(self, toy_matrix):
        for (n, eps), ds in toy_matrix.items():
            D.validate_direction_set(ds)  # raises on any violated constraint
            assert len(ds.vectors) == n

    def test_magnitude_window_exact(self, toy_matrix):
        for ds in toy_matrix.values():
            for rec in ds.vectors:
                n2 = rec.v[0] ** 2 + rec.v[1] ** 2
                assert Fraction(1, 100) <= n2 <= Fraction(100)

    def test_distinct_prime_subsets(self, toy_matrix):
        for ds in toy_matrix.values():
            subsets = {tuple(sorted(r.prime_subset)) for r in ds.vectors}
            assert len(subsets) == len(ds.vectors)

    def test_cross_products_at_least_one(self, toy_matrix):
        for ds in toy_matrix.values():
            for i in range(len(ds.vectors)):
                for j in range(i + 1, len(ds.vectors)):
                    vi, vj = ds.vectors[i], ds.vectors[j]
                    assert abs(vi.m * vj.n - vi.n * vj.m) >= 1

    def test_strict_tiny_n_infeasible(self):
        spec = D.DirectionSpec(N=4, eps=1.0, M=2, mode="strict")
        with pytest.raises(ConstructionError):
            D.construct_directions(spec)

    def test_validator_names_bullet(self, toy_ds):
        import dataclasses

        bad_vec = dataclasses.replace(
            toy_ds.vectors[0], prime_subset=toy_ds.vectors[1].prime_subset
        )
        bad = dataclasses.replace(
            toy_ds, vectors=(bad_vec,) + toy_ds.vectors[1:], integer_vectors=None, A=None,
            A_tilde=None,
        )
        with pytest.raises(ConstructionError, match="bullet|metadata"):
            D.validate_direction_set(bad)


class TestRescaling:
    def test_denominators_cleared(self, toy_matrix):
        for ds in toy_matrix.values():
            for (ix, iy), rec in zip(ds.integer_vectors, ds.vectors):
                assert rec.v[0] * ds.A_tilde == ix
                assert rec.v[1] * ds.A_tilde == iy

    def test_annulus_exact(self, toy_matrix):
        for ds in toy_matrix.values():
            A = ds.A
            for ix, iy in ds.integer_vectors:
                r2 = ix * ix + iy * iy
                assert 10_000 * r2 >= A * A and r2 <= 10_000 * A * A

    def test_base_multiple_is_identity_point(self, toy_ds):
        B = D.base_multiple(toy_ds)
        ds = D.rescale_to_integers(
            D.construct_directions(toy_ds.spec), A=B
        )
        assert ds.A_tilde == B

    def test_too_small_a_rejected(self, toy_ds):
        fresh = D.construct_directions(toy_ds.spec)
        B = D.base_multiple(fresh)
        with pytest.raises(ValueError):
            D.rescale_to_integers(fresh, A=max(1, B // 200))


class TestMinAngle:
    def test_matches_direct_formula(self, toy_ds):
        res = D.min_angle(toy_ds)
        best = min(
            Fraction(
                (vi.m * vj.n - vi.n * vj.m) ** 2,
                (vi.m**2 + vi.n**2) * (vj.m**2 + vj.n**2),
            )
            for i, vi in enumerate(toy_ds.vectors)
            for vj in toy_ds.vectors[i + 1 :]
        )
        assert res.sin2 == best > 0

    def test_scaling_lower_bound(self, toy_matrix):
        # cross >= 1 and |(m,n)| <= 10 N^2 force sin >= 1/(100 N^4)
        for (n, _), ds in toy_matrix.items():
            res = D.min_angle(ds)
            assert res.sin2 * (100 * n**4) ** 2 >= 1


class TestSerialization:
    def test_round_trip_byte_identical(self, toy_ds):
        blob = D.serialize(toy_ds)
        assert D.serialize(D.deserialize(blob)) == blob

    def test_table_round_trip(self):
        """read(write(x)) == x through the one field table, before and after
        rescaling, and write(read(b)) == b; in both modes, strict mode
        building sets only at N = 2 on the desk."""
        built = set()

        @settings(max_examples=40, deadline=None)
        @given(N=st.integers(2, 16), mode=st.sampled_from(("toy", "strict")),
               seed=st.integers(0, 30), eps=st.sampled_from((0.25, 0.5, 1.0)), M=st.integers(1, 2))
        @example(N=2, mode="strict", seed=3, eps=0.5, M=1)
        @example(N=16, mode="toy", seed=5, eps=0.5, M=2)
        def check(N, mode, seed, eps, M):
            try:
                spec = D.DirectionSpec(N=N, eps=eps, M=M, mode=mode, seed=seed)
                ds = D.construct_directions(spec)
            except ConstructionError:
                assert mode == "strict"
                return
            for x in (ds, D.rescale_to_integers(ds)):
                blob = D.serialize(x)
                assert D.deserialize(blob) == x
                assert D.serialize(D.deserialize(blob)) == blob
            built.add(mode)

        check()
        assert built == {"toy", "strict"}

    @given(q=st.fractions() | st.integers(), big=st.integers(-10**200, 10**200))
    def test_number_fields_round_trip(self, q, big):
        # a rational is written n/d, an int n/1, and a big integer in decimal
        text = rational.write(q)
        assert text == f"{Fraction(q).numerator}/{Fraction(q).denominator}"
        assert rational.read(text, "q") == q
        assert integer.read(integer.write(big), "big") == big

    def test_determinism(self, toy_ds):
        again = D.rescale_to_integers(D.construct_directions(toy_ds.spec))
        assert D.serialize(again) == D.serialize(toy_ds)

    def test_seed_changes_bytes(self, toy_ds):
        import dataclasses

        other = D.rescale_to_integers(
            D.construct_directions(dataclasses.replace(toy_ds.spec, seed=8))
        )
        assert D.serialize(other) != D.serialize(toy_ds)

    def test_value_tamper_rejected(self, toy_ds):
        blob = D.serialize(toy_ds)
        m = re.search(rb'"m":(\d+)', blob)
        bad = blob[: m.start(1)] + str(int(m.group(1)) + 1).encode() + blob[m.end(1) :]
        with pytest.raises(ParseError, match="hash"):
            D.deserialize(bad)

    def test_semantic_tamper_rejected(self, toy_ds):
        # recompute the hash but duplicate a prime subset: the validator fires
        import hashlib

        doc = json.loads(D.serialize(toy_ds))
        doc.pop("content_hash")
        doc["vectors"][1]["prime_subset"] = doc["vectors"][0]["prime_subset"]
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        doc2 = {"content_hash": hashlib.sha256(canon.encode()).hexdigest(), **doc}
        with pytest.raises(ConstructionError, match="bullet|metadata"):
            D.deserialize(json.dumps(doc2, sort_keys=True, indent=1).encode())

    @pytest.mark.parametrize("kept", ["A", "A_tilde", "integer_vectors"])
    def test_partial_rescaling_rejected(self, toy_ds, kept):
        # re-hashed with one of the three rescaling fields kept and the other
        # two nulled: the validator checks the rescaling whenever any is set
        import hashlib

        doc = json.loads(D.serialize(toy_ds))
        doc.pop("content_hash")
        for key in ("A", "A_tilde", "integer_vectors"):
            if key != kept:
                doc[key] = None
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        doc2 = {"content_hash": hashlib.sha256(canon.encode()).hexdigest(), **doc}
        with pytest.raises(ConstructionError, match="incomplete rescaling"):
            D.deserialize(json.dumps(doc2, sort_keys=True, indent=1).encode())

    @pytest.mark.parametrize("path,named", [
        (("A",), "at A"), (("A_tilde",), "at A_tilde"),
        (("scale_denominator",), "at scale_denominator"),
        (("prime_window", 1), "at prime_window[1]"),
        (("integer_vectors", 2, 1), "at integer_vectors[2][1]"),
    ])
    def test_rehashed_non_integer_string_names_field(self, toy_ds, path, named):
        # a big integer that is not a decimal string, in a re-hashed file
        doc = json.loads(D.serialize(toy_ds))
        doc.pop("content_hash")
        *outer, last = path
        node = doc
        for key in outer:
            node = node[key]
        node[last] = "x"
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        blob = json.dumps({"content_hash": hashlib.sha256(canon.encode()).hexdigest(), **doc})
        with pytest.raises(ParseError, match=re.escape(f"bad integer 'x' {named}")):
            D.deserialize(blob.encode())

    @pytest.mark.parametrize("entry", [["1"], ["1", "2", "3"], "12", 12, None],
                             ids=["one", "three", "string", "number", "null"])
    def test_rehashed_integer_vector_not_a_pair(self, toy_ds, entry):
        # a string of two digits would unpack to two integers, and a list of
        # three would not unpack at all: each is refused, naming the entry
        doc = json.loads(D.serialize(toy_ds))
        doc.pop("content_hash")
        doc["integer_vectors"][1] = entry
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        blob = json.dumps({"content_hash": hashlib.sha256(canon.encode()).hexdigest(), **doc})
        with pytest.raises(ParseError, match=re.escape(
                f"bad integer pair {entry!r} at integer_vectors[1]: not a two-element list")):
            D.deserialize(blob.encode())

    def test_file_is_canonical_json(self, toy_ds):
        # the file is the form the content hash covers, with the hash added
        blob = D.serialize(toy_ds)
        doc = json.loads(blob)
        assert blob == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        digest = doc.pop("content_hash")
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert digest == hashlib.sha256(canon).hexdigest()

    def test_indented_file_loads(self, toy_ds):
        # the indented layout that older files use loads to the same set
        blob = D.serialize(toy_ds)
        old = json.dumps(json.loads(blob), sort_keys=True, indent=1).encode()
        assert old != blob
        again = D.deserialize(old)
        assert again == toy_ds
        assert D.serialize(again) == blob

    @pytest.mark.parametrize("blob,kind", [
        (b"[1,2]", "list"), (b"null", "NoneType"), (b"3", "int"), (b"3.5", "float"),
        (b'"x"', "str"), (b"true", "bool"),
    ])
    def test_top_level_not_object(self, blob, kind):
        with pytest.raises(ParseError, match=f"holds a JSON {kind} at top level, not an object"):
            D.deserialize(blob)

    def test_not_utf8(self):
        with pytest.raises(ParseError, match="not UTF-8"):
            D.deserialize('{"schema": "\u00e9"}'.encode("latin-1"))

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError, match="line"):
            D.deserialize(b'{"schema": "primedir.direction_set.v1", ')

    def test_over_long_integer_refused(self, toy_ds):
        # Python >= 3.11 refuses the literal while parsing the JSON; without
        # that limit the content hash no longer matches
        doc = json.loads(D.serialize(toy_ds))
        doc["kappa"] = "BIG"
        blob = json.dumps(doc).replace('"BIG"', "1" * 5000).encode()
        with pytest.raises(ParseError, match="malformed direction-set file|content hash mismatch"):
            D.deserialize(blob)

    @staticmethod
    def _rehashed(ds, mutate) -> bytes:
        """ds's file with mutate applied to its document and the hash recomputed."""
        doc = json.loads(D.serialize(ds))
        doc.pop("content_hash")
        mutate(doc)
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return json.dumps({"content_hash": hashlib.sha256(canon.encode()).hexdigest(),
                           **doc}).encode()

    # each field of a re-hashed file is read by its JSON type, and a missing
    # or mistyped one is refused by name
    MALFORMED = {
        "spec-N-float": (lambda d: d["spec"].update(N=4.0),
                         "field 'spec.N' must be an integer, got 4.0"),
        "prime-subset-float": (lambda d: d["vectors"][1]["prime_subset"].__setitem__(0, 0.0),
                               "field 'vectors[1].prime_subset[0]' must be an integer, got 0.0"),
        "A-number": (lambda d: d.update(A=int(d["A"])), "at A"),
        "m-float": (lambda d: d["vectors"][2].update(m=float(d["vectors"][2]["m"])),
                    "field 'vectors[2].m' must be an integer"),
        "kappa-bool": (lambda d: d.update(kappa=True), "field 'kappa' must be an integer, got True"),
        "mode-unknown": (lambda d: d["spec"].update(mode="loose"), "field 'spec.mode' must be one of"),
        "spec-extra": (lambda d: d["spec"].update(extra=1), "field 'spec' must be an object"),
        "spec-missing": (lambda d: d["spec"].pop("C0"), "missing field 'spec.C0'"),
        "top-missing": (lambda d: d.pop("eps_adjusted"), "missing field 'eps_adjusted'"),
        "vector-missing": (lambda d: d["vectors"][0].pop("y"), "missing field 'vectors[0].y'"),
        "vector-list": (lambda d: d["vectors"].__setitem__(3, []),
                        "field 'vectors[3]' must be an object"),
        "decimal-rational": (lambda d: d["vectors"][0].update(x="1.5"),
                             "bad rational '1.5' at vectors[0].x"),
        "window-string": (lambda d: d.update(prime_window="1009"),
                          "field 'prime_window' must be a list"),
        # forms that int() takes and the writer never produces: only ASCII
        # digits after an optional minus sign, and "/" between two such
        # parts, are read
        **{f"A-{text!r}": (lambda d, text=text: d.update(A=text), f"bad integer {text!r} at A")
           for text in ("1_000", " 7", "+5", "12\n", "\u0663")},
        **{f"x-{text!r}": (lambda d, text=text: d["vectors"][0].update(x=text),
                           f"bad rational {text!r} at vectors[0].x")
           for text in ("1_000", " 7", "+5", "12\n", "\u0663", "1/+2", "1/ 2", "-1/-2")},
    }

    @pytest.mark.parametrize("mutate,named", MALFORMED.values(), ids=MALFORMED)
    def test_rehashed_malformed_field_names_it(self, toy_ds, mutate, named):
        with pytest.raises(ParseError, match=re.escape(named)):
            D.deserialize(self._rehashed(toy_ds, mutate))

    def test_rehashed_extra_integer_vector_refused(self, toy_ds):
        # one integer vector per direction: a fifth has no direction to check against
        blob = self._rehashed(toy_ds, lambda d: d["integer_vectors"].append(["1", "1"]))
        with pytest.raises(ConstructionError, match="5 integer vectors for 4 directions"):
            D.deserialize(blob)

    def test_file_round_trip(self, toy_ds, tmp_path):
        path = tmp_path / "ds.json"
        D.save_direction_set(toy_ds, path)
        again = D.load_direction_set(path)
        assert D.serialize(again) == D.serialize(toy_ds)


class TestStrictScale:
    def test_integral_scale_exponent(self):
        # the smallest strict-mode instance the window formulas admit:
        # N = 50, eps = 1, M = 1 gives an 8-prime window in [50, 500] and
        # kappa = 3 (C(8,3) = 56 >= 50), with R = N^(M kappa / eps) = 50^3
        spec = D.DirectionSpec(N=50, eps=1.0, M=1, mode="strict", seed=1)
        window = D.choose_prime_window(spec)
        assert window == [53, 59, 61, 67, 71, 73, 79, 83]
        assert D.choose_kappa(len(window), spec.N) == 3
        ds = D.construct_directions(spec)
        assert ds.scale_denominator == 50**3
        assert ds.eps_adjusted is None
        D.validate_direction_set(ds)

    def test_non_integral_scale_exponent(self):
        # M kappa / eps = 10/3 is not an integer: R = round(2^(10/3)) = 10, and
        # eps_adjusted = log 2 / log 10 is the eps for which R = N^(M kappa / eps) holds
        spec = D.DirectionSpec(N=2, eps=0.3, M=1, mode="strict")
        ds = D.construct_directions(spec)
        assert (ds.kappa, ds.scale_denominator) == (1, 10)
        assert ds.eps_adjusted == pytest.approx(0.30103, abs=1e-5)
        blob = D.serialize(D.rescale_to_integers(ds))
        again = D.deserialize(blob)
        assert D.serialize(again) == blob
        assert again.eps_adjusted == ds.eps_adjusted

    def test_y_factor_structure(self, toy_ds):
        # the y factor is n_i times the vector's prime product, exactly
        for i, rec in enumerate(toy_ds.vectors):
            prod = 1
            for idx in rec.prime_subset:
                prod *= toy_ds.prime_window[idx]
            assert toy_ds.y_factor(i) == rec.n * prod
            assert rec.v[1] * toy_ds.scale_denominator == rec.n * prod * Fraction(2) ** rec.q_exponent
