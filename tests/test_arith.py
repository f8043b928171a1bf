import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psirh
from psirh.arith import _is_prime, multiplicative_range, psi_table, sigma_table
from psirh.champions import first_primes
from psirh.errors import DomainError
from psirh.prime_engine import _simple_sieve, iter_prime_chunks


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestFactorize:
    def test_one(self):
        assert psirh.factorize(1).factors == ()

    def test_5040(self):
        assert psirh.factorize(5040).factors == ((2, 4), (3, 2), (5, 1), (7, 1))

    def test_fifth_primorial(self):
        assert psirh.factorize(2310).factors == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            psirh.factorize(0)

    def test_reconstruction(self):
        for n in list(range(1, 500)) + [10**9 + 7, 2 * 3 * 5 * 7 * 11 * 13 * 10**6]:
            f = psirh.factorize(n)
            assert math.prod(p**e for p, e in f.factors) == n
            primes = [p for p, _ in f.factors]
            assert primes == sorted(primes)

    def test_smallest_factor_divides_and_is_prime(self):
        for m in range(2, 501):
            p = psirh.factorize(m).factors[0][0]
            assert m % p == 0
            assert all(m % d for d in range(2, p))
            assert psirh.factorize(p).factors == ((p, 1),)

    def test_prime_maps_to_itself(self):
        for p in (2, 3, 5, 53, 97):
            assert psirh.factorize(p).factors == ((p, 1),)

    @pytest.mark.parametrize("n, factors", [
        (999007 * 999023, ((999007, 1), (999023, 1))),  # no early stop
        (999007**2, ((999007, 2),)),
        (10**12 + 39, ((10**12 + 39, 1),)),             # prime near 10^12
        (1009**7, ((1009, 7),)),                        # >= 2^63 past block 1
        (3 * 1009**5 * (10**12 + 39),                   # starts above psi_13
         ((3, 1), (1009, 5), (10**12 + 39, 1))),
        (2**64 * 3**5 * 7, ((2, 64), (3, 5), (7, 1))),
    ])
    def test_awkward_points(self, n, factors):
        assert psirh.factorize(n).factors == factors

    def test_primorial(self):
        primes = first_primes(62)  # 2 .. 293, across the first block edge
        assert primes[-1] == 293
        assert (psirh.factorize(math.prod(primes)).factors
                == tuple((p, 1) for p in primes))

    @settings(max_examples=5, deadline=None)
    @given(lo=st.integers(10**11, 10**12 - 2000))
    def test_window_matches_kernel(self, lo):
        hi = lo + 2000
        base = _simple_sieve(math.isqrt(hi - 1)).tolist()
        psi = multiplicative_range(lo, hi, False, base)
        sig = multiplicative_range(lo, hi, True, base)
        for n in range(lo, hi):
            factors = psirh.factorize(n).factors
            assert math.prod(p**(e - 1) * (p + 1) for p, e in factors) == psi[n - lo]
            assert (math.prod((p**(e + 1) - 1) // (p - 1) for p, e in factors)
                    == sig[n - lo])

    def test_no_sieve_per_query(self):
        rng = random.Random(11)
        psirh.factorize(10**12 - 11)  # warm-up: the prime list reaches 10^6
        before = _simple_sieve.cache_info().misses
        for n in rng.sample(range(10**11, 10**12), 200):
            psirh.factorize(n)
        assert _simple_sieve.cache_info().misses - before <= 2


class TestMillerRabin:
    @pytest.mark.parametrize("m", [
        3215031751,                 # strong pseudoprime to 2, 3, 5, 7
        3825123056546413051,        # strong pseudoprime to 2 .. 23
        318665857834031151167461,   # psi_12: strong pseudoprime to 2 .. 37
    ])
    def test_strong_pseudoprimes_are_composite(self, m):
        assert not _is_prime(m)

    def test_psi_12_factors(self):
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert _is_prime(399165290221) and _is_prime(798330580441)

    def test_mersenne_prime(self):
        assert _is_prime(2**61 - 1)

    def test_matches_sieve(self):
        primes = set(_simple_sieve(10**5).tolist())
        assert [m for m in range(10**5 + 1) if _is_prime(m)] == sorted(primes)


class TestFunctionValues:
    def test_psi(self):
        assert psirh.dedekind_psi(1) == 1
        assert psirh.dedekind_psi(10) == 18
        assert psirh.dedekind_psi(12) == 24
        assert psirh.dedekind_psi(12) == 2 * psirh.dedekind_psi(6)

    def test_sigma(self):
        assert psirh.sigma(1) == 1
        assert psirh.sigma(12) == 28
        assert psirh.sigma(5040) == 19344

    def test_num_divisors(self):
        assert psirh.num_divisors(1) == 1
        assert psirh.num_divisors(12) == 6
        assert psirh.num_divisors(5040) == 60

    def test_squarefree(self):
        assert psirh.is_squarefree(30)
        assert not psirh.is_squarefree(12)
        assert psirh.is_squarefree(1)

    def test_zero_rejected(self):
        for fn in (psirh.dedekind_psi, psirh.sigma, psirh.num_divisors,
                   psirh.is_squarefree):
            with pytest.raises(DomainError):
                fn(0)

    def test_brute_force_equivalence(self):
        for n in range(1, 2000):
            ds = divisors(n)
            assert psirh.sigma(n) == sum(ds)
            assert psirh.num_divisors(n) == len(ds)
            expect = Fraction(n)
            for p, _ in psirh.factorize(n).factors:
                expect *= Fraction(p + 1, p)
            assert psirh.dedekind_psi(n) == expect

    def test_prime_case(self):
        for p in np.concatenate(list(iter_prime_chunks(10**4))).tolist():
            assert psirh.dedekind_psi(p) == p + 1
            assert psirh.sigma(p) == p + 1
            assert psirh.num_divisors(p) == 2


class TestMultiplicativity:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(2, 10**5), n=st.integers(2, 10**5))
    def test_random_coprime_pairs(self, m, n):
        if math.gcd(m, n) != 1:
            return
        assert psirh.dedekind_psi(m * n) == psirh.dedekind_psi(m) * psirh.dedekind_psi(n)
        assert psirh.sigma(m * n) == psirh.sigma(m) * psirh.sigma(n)
        assert psirh.num_divisors(m * n) == psirh.num_divisors(m) * psirh.num_divisors(n)


class TestDominance:
    def test_psi_below_sigma_equality_iff_squarefree(self):
        limit = 10**4
        psi = psi_table(limit)
        sig = sigma_table(limit)
        for n in range(1, limit + 1):
            assert psi[n] <= sig[n]
            assert (psi[n] == sig[n]) == psirh.is_squarefree(n)


class TestTables:
    def test_psi_table_matches_pointwise(self):
        t = psi_table(3000)
        for n in random.Random(7).sample(range(1, 3001), 200):
            assert t[n] == psirh.dedekind_psi(n)

    def test_sigma_table_matches_pointwise(self):
        t = sigma_table(3000)
        for n in random.Random(8).sample(range(1, 3001), 200):
            assert t[n] == psirh.sigma(n)


class TestKernel:
    def test_matches_factorization_below_2000(self):
        psi, sig = psi_table(1999), sigma_table(1999)
        assert psi[0] == sig[0] == 0
        for n in range(1, 2000):
            assert psi[n] == psirh.dedekind_psi(n)
            assert sig[n] == psirh.sigma(n)

    @settings(max_examples=40, deadline=None)
    @given(lo=st.integers(2, 10**8 - 1), span=st.integers(1, 3000),
           data=st.data())
    def test_split_windows_match_pointwise(self, lo, span, data):
        hi = min(lo + span, 10**8)
        cut = data.draw(st.integers(lo, hi), label="cut")
        sample = data.draw(st.lists(st.integers(lo, hi - 1), min_size=1,
                                    max_size=10), label="sample")
        base = _simple_sieve(math.isqrt(hi - 1)).tolist()
        for want_sigma, fn in ((False, psirh.dedekind_psi), (True, psirh.sigma)):
            whole = multiplicative_range(lo, hi, want_sigma, base)
            parts = [multiplicative_range(a, b, want_sigma, base)
                     for a, b in ((lo, cut), (cut, hi)) if a < b]
            assert np.array_equal(np.concatenate(parts), whole)
            for n in sample:
                assert whole[n - lo] == fn(n)
