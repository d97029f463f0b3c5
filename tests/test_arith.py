import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primedir import arith
from primedir.errors import ParseError


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


class TestSieve:
    def test_small_examples(self):
        assert arith.sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
        assert arith.sieve_primes(2).primes.tolist() == [2]

    def test_million_count_and_last_prime(self):
        t = arith.sieve_primes(10**6)
        assert len(t.primes) == 78498
        last = int(t.primes[-1])
        assert last == 999983 and trial_division_is_prime(last)

    # every limit up to 3000, each odd square p^2 and its neighbours (where the
    # odd-only flags start crossing off p), and one large limit
    @pytest.mark.parametrize("limit", sorted(
        set(range(2, 3001))
        | {p * p + e for p in range(2, 200) if trial_division_is_prime(p) for e in (-1, 0, 1)}
        | {10**5}
    ))
    def test_matches_simple_sieve(self, limit):
        t = arith.sieve_primes(limit)
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        assert t.limit == limit
        assert t.primes.dtype == np.int64
        assert np.array_equal(t.primes, np.flatnonzero(flags))

    def test_log_weights(self):
        t = arith.sieve_primes(1000)
        rel = np.abs(t.log_weights - np.log(t.primes.astype(float))) / np.abs(t.log_weights)
        assert rel.max() < 1e-14

    def test_limit_below_two_rejected(self):
        with pytest.raises(ValueError):
            arith.sieve_primes(1)

    def test_cache_roundtrip(self, tmp_path):
        t = arith.sieve_primes(5000)
        path = tmp_path / "p.pdpt"
        arith.save_prime_table(t, path)
        t2 = arith.load_prime_table(path)
        assert t2.limit == t.limit
        assert np.array_equal(t2.primes, t.primes)

    def test_cache_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pdpt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ParseError):
            arith.load_prime_table(path)

    def test_cache_corrupt_final_entry(self, tmp_path):
        t = arith.sieve_primes(100)
        path = tmp_path / "p.pdpt"
        arith.save_prime_table(t, path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = (96).to_bytes(8, "little")  # 96 is composite
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            arith.load_prime_table(path)


class TestMultiplicative:
    def test_mobius_examples(self):
        assert arith.mobius(1) == 1
        assert arith.mobius(12) == 0
        assert arith.mobius(30) == -1

    def test_totient_examples(self):
        assert arith.totient(1) == 1
        assert arith.totient(9) == 6
        # brute-force gcd count
        assert arith.totient(100) == sum(1 for a in range(1, 101) if math.gcd(a, 100) == 1) == 40

    def test_divisor_sum_identities_sample(self):
        for q in range(1, 2001):
            divs = [d for d in range(1, q + 1) if q % d == 0]
            assert sum(arith.mobius(d) for d in divs) == (1 if q == 1 else 0)
            assert sum(arith.totient(d) for d in divs) == q

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            arith.mobius(0)
        with pytest.raises(ValueError):
            arith.totient(0)


class TestExponentialSums:
    def test_ramanujan_examples(self):
        assert arith.ramanujan_sum(3, 1) == -1
        for q in (1, 2, 5, 12, 30):
            assert arith.ramanujan_sum(q, 0) == arith.totient(q)
        assert arith.ramanujan_sum(4, 2) == -2

    def test_ramanujan_cross_validation(self):
        for q in range(1, 51):
            for n in range(-50, 51):
                assert abs(arith.ramanujan_sum(q, n) - arith.ramanujan_sum_bruteforce(q, n)) < 1e-9


_PHASE_ALPHAS = st.one_of(
    st.integers(0, 2**53 - 1).map(lambda i: math.ldexp(i, -53)),  # uniform in [0, 1)
    st.floats(0.0, 2.0**-11, exclude_max=True),  # subnormals included
    st.floats(1.0 - 2.0**-40, 1.0, exclude_max=True),
    st.floats(-(2.0**20), 0.0, exclude_max=True),
    st.floats(1.0, 2.0**40, exclude_min=True),
    st.integers(0, 2**53).map(float),
    st.sampled_from([0.0, -0.0]),
)


def _exact_turns(ns, x: float) -> np.ndarray:
    """float((n Fraction(x)) % 1) for each n, in Python integers (x is num/2^E)."""
    num, den = x.as_integer_ratio()
    return np.array([(n * num % den) / den for n in ns.tolist()])


def _assert_phases(got, want, x: float) -> None:
    """Equal when x 2^64 is an integer (every x >= 2^-12), else within 2^-53 mod 1."""
    assert got.dtype == np.float64 and np.all((0.0 <= got) & (got <= 1.0))
    if math.ldexp(x, 64).is_integer():
        assert np.array_equal(got, want)
    else:
        gap = np.abs(got - want)
        assert np.minimum(gap, 1.0 - gap).max() <= 2.0**-53


@pytest.fixture(scope="module")
def primes23():
    """The primes of every scale k <= 22."""
    return arith.sieve_primes(2**23).primes


class TestTurns:
    """_turns, the (n x) mod 1 reduction behind every float phase."""

    @settings(max_examples=20, deadline=None)
    @given(alpha=_PHASE_ALPHAS)
    def test_every_prime_of_the_desk_scales(self, primes23, alpha):
        # m_k reduces p |alpha| and puts the sign on afterwards (the
        # multiplier's conjugate test covers the sign)
        x = abs(alpha)
        _assert_phases(arith._turns(primes23, x), _exact_turns(primes23, x), x)

    @settings(max_examples=100, deadline=None)
    @given(ns=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=32), alpha=_PHASE_ALPHAS)
    def test_multipliers_up_to_2_63(self, ns, alpha):
        # the uint64 wrap is exact for every n below 2^63; the low part's
        # bound holds while n converts to float exactly
        x = abs(alpha)
        n = np.array(ns if math.ldexp(x, 64).is_integer() else [v >> 10 for v in ns])
        _assert_phases(arith._turns(n, x), _exact_turns(n, x), x)

    @pytest.mark.parametrize("n, x", [(8356619, "0x1.0700c02190441p-16"),
                                      (8358923, "0x1.2b0eebd26e706p-15")])
    def test_low_part_joins_the_wrap(self, n, x):
        # n hi wraps to within 2^-54 of a whole turn, so it rounds to 1.0; a
        # low part n lo 2^-64 added to that as a float rounds a second time,
        # to 1.1 or 1.2 x 2^-53 from the exact phase
        x = float.fromhex(x)
        _assert_phases(arith._turns(n, x), _exact_turns(np.array([n]), x), x)

    def test_scalar_arguments(self):
        # numpy scalars would warn on the wrap, so scalars come back as arrays
        assert arith._turns(3, 0.5).tolist() == [0.5]
        assert arith._turns(2**62 + 1, 0.75).tolist() == [0.75]
        assert arith._turns(2**62 + 1, 2.0**-40).tolist() == [2.0**-40]
        assert arith._turns(7, np.array([0.25, 1.5, 2.0])).tolist() == [0.75, 0.5, 0.0]


class TestPrimality:
    def test_known_values(self):
        assert arith.is_prime_certified(2**31 - 1)
        assert not arith.is_prime_certified(561)  # Carmichael composite

    def test_against_trial_division(self):
        n = 10**15 + 37
        assert arith.is_prime_certified(n) == trial_division_is_prime(n)

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            arith.is_prime_certified(1)

    def test_probabilistic_branch(self):
        # the bound psi_13 is the least strong pseudoprime to all thirteen
        # fixed bases 2 .. 41 (1287836182261 * 2575672364521); the random
        # bases above it catch it, pass Mersenne primes and reject a product
        # of two of them
        n = arith.MR_DETERMINISTIC_BOUND
        assert n == 1287836182261 * 2575672364521
        assert not any(arith._mr_witness(n, a) for a in arith._MR_WITNESSES)
        assert not arith.is_prime_certified(n)
        assert arith.is_prime_certified(2**89 - 1) and arith.is_prime_certified(2**127 - 1)
        assert not arith.is_prime_certified((2**61 - 1) * (2**89 - 1))

    def test_random_band(self):
        for n in range(10_000, 10_100):
            assert arith.is_prime_certified(n) == trial_division_is_prime(n)

    # psi_t, the least strong pseudoprime to all of the first t prime bases
    # (OEIS A014233), each a composite that the first t bases pass
    PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
           6: 3474749660383, 7: 341550071728321, 9: 3825123056546413051,
           12: 318665857834031151167461, 13: 3317044064679887385961981}

    @pytest.mark.parametrize("t", sorted(PSI))
    def test_least_pseudoprimes_are_composite(self, t):
        assert not arith.is_prime_certified(self.PSI[t])

    def test_psi_12_needs_base_41(self):
        n = self.PSI[12]
        assert n == 399165290221 * 798330580441
        assert [a for a in arith._MR_WITNESSES if arith._mr_witness(n, a)] == [41]

    def test_agrees_with_the_sieve(self):
        primes = set(arith.sieve_primes(2**18 - 1).primes.tolist())
        assert [n for n in range(2, 2**18) if arith.is_prime_certified(n) != (n in primes)] == []

    @pytest.mark.parametrize("centre", [2047, 1373653, 25326001, 3215031751])
    def test_agrees_with_a_segment_sieve_where_the_bases_change(self, centre):
        lo, hi = centre - 2000, centre + 2000
        composite = [False] * (hi - lo + 1)
        for p in arith.sieve_primes(math.isqrt(hi)).primes.tolist():
            for m in range(max(p * p, -(-lo // p) * p), hi + 1, p):
                composite[m - lo] = True
        assert [n for n in range(lo, hi + 1)
                if arith.is_prime_certified(n) == composite[n - lo]] == []


class TestConvergents:
    def test_fibonacci_denominators(self):
        # the terminating CF of 610/987 ends with quotient 2 (987 = 2*377 + 233)
        x = Fraction(610, 987)
        dens = [q for _, q in arith.convergents(x, 987)]
        assert dens == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 987]

    def test_close_fraction_is_convergent(self):
        # any a/q with |x - a/q| < 1/(2 q^2) must appear among the convergents
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = Fraction(int(rng.integers(1, 10**6)), 10**6)
            convs = set(arith.convergents(x, 500))
            for q in range(2, 500, 13):
                a = round(x * q)
                if math.gcd(a, q) == 1 and abs(x - Fraction(a, q)) < Fraction(1, 2 * q * q):
                    assert (a, q) in convs
