import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psirh
from oracles import pattern_reference, sieve_reference
from psirh import arith, prime_engine
from psirh.arith import (_MR_BASES, _MR_PSI, _is_prime, multiplicative_ints,
                         multiplicative_range, psi_table, sigma_table)
from psirh.champions import first_primes
from psirh.errors import DomainError, ResourceLimitError
from psirh.prime_engine import _simple_sieve, iter_prime_chunks


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def trial_factors(n, primes):
    """n's (prime, exponent) pairs by trial division by the increasing
    primes, each while its square is at most the cofactor; what is left
    is 1 or prime when primes holds every prime up to sqrt of it."""
    factors, m = [], n
    for p in primes:
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


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

    def test_remainders_past_2_63_match_python(self):
        # n >= 2^63 is reduced by 36-bit digits in int64: the remainders,
        # and so the factors, are those Python % gives over the same primes
        rng = random.Random(20261019)
        # moduli at both ends of the trial range, up to 2^27 - 1
        block = np.r_[2:1000, 2**27 - 1000:2**27].astype(np.int64)
        for bits in (62, 63, 64, 98, 99, 100, 400):
            m = rng.getrandbits(bits) | 1 << bits - 1
            assert arith._residues(m, block).tolist() == \
                [m % p for p in block.tolist()], bits
        primes = prime_engine._primes_below(1 << 20).tolist()
        for _ in range(60):
            n = rng.choice((1, 10**12 + 39))  # 10^12 + 39 is left as prime
            while n < 2**63 or rng.random() < 0.8:
                n *= rng.choice(primes) ** rng.randint(1, 3)
            want, m = [], n
            for p in primes:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                if e:
                    want.append((p, e))
            if m > 1:
                want.append((m, 1))
            assert psirh.factorize(n).factors == tuple(want), n

    def test_cofactor_above_psi13_stops_at_trial_ceiling(self, cold_primes):
        # two primes near 2*10^12: the product is above psi_13, so no
        # primality proof applies, and no prime below its square root
        # divides it; trial division stops at the ceiling, not at 2*10^12
        n = 2_000_000_000_003 * 2_000_000_000_123
        assert n >= arith._MR_LIMIT
        with pytest.raises(ResourceLimitError,
                           match=f"no prime factor below {2**27} and is not "
                                 f"proven prime"):
            psirh.factorize(n)
        assert arith.FACTORIZE_TRIAL_CEILING == 2**27
        assert prime_engine._prime_list[1] == arith.FACTORIZE_TRIAL_CEILING
        # a cofactor that drops below psi_13 early is still factored
        assert psirh.factorize(3 * 1009**5 * (10**12 + 39)).factors == (
            (3, 1), (1009, 5), (10**12 + 39, 1))

    def test_two_primes_at_the_2_53_edge(self, cold_primes):
        # the twin primes next to sqrt(2^53), both above 2^26: found by
        # trial division alone
        n = 94_906_247 * 94_906_249
        assert n < 2**53 and 94_906_247 > 2**26
        assert psirh.factorize(n).factors == ((94_906_247, 1),
                                              (94_906_249, 1))

    # prime factors in (2^24, 2^27): trial division reaches them
    @pytest.mark.parametrize("n, factors", [
        (16777259**3, ((16777259, 3),)),          # the least prime above 2^24
        (16777259 * 16777289 * 16777291,
         ((16777259, 1), (16777289, 1), (16777291, 1))),
        (16777259**2 * 16777289, ((16777259, 2), (16777289, 1))),
        (7 * 2**30 * 16777259 * (10**12 + 39),    # small factors first
         ((2, 30), (7, 1), (16777259, 1), (10**12 + 39, 1))),
    ])
    def test_composite_cofactor_past_the_trial_ceiling(self, n, factors):
        assert psirh.factorize(n).factors == factors

    @pytest.mark.parametrize("n", [
        pytest.param((10**12 + 39) * (10**12 + 61), id="(1e12+39)(1e12+61)"),
        pytest.param(399165290221 * 798330580441, id="psi_12"),
        pytest.param((10**12 + 39)**2, id="(1e12+39)^2"),
        # above 2^54, below 2^63: the numpy remainder path to the ceiling
        pytest.param(134_217_757 * 134_217_773, id="two primes above 2^27"),
    ])
    def test_unsplit_cofactor_raises(self, cold_primes, n):
        # no prime below 2^27 divides n, and n is composite: not factored
        with pytest.raises(ResourceLimitError, match="is not proven prime"):
            psirh.factorize(n)

    def test_a_query_factors_n_once(self, monkeypatch, cold_primes):
        # f(n) then g(n) share one factorization: the primes below 256 in
        # Python ints, then 12 numpy blocks up to 2^20, and n, the cofactor
        # through the first 11 of them, gets one Miller-Rabin
        calls = []
        for name in ("_residues", "_is_prime"):
            fn = getattr(arith, name)
            monkeypatch.setattr(arith, name, lambda *args, fn=fn, name=name:
                                calls.append(name) or fn(*args))
        n = 591_287 * 1_250_083
        psirh.dedekind_f(n)
        psirh.robin_g(n)
        assert (calls.count("_residues"), calls.count("_is_prime")) == (12, 1)

    def test_first_block_factors_without_numpy(self, monkeypatch,
                                               cold_primes):
        # every n < 2^16 and seeded 256-smooth n up to 10^30 factor by the
        # primes below 256 alone, in Python ints: numpy is unimportable,
        # and the shared prime list stays empty
        monkeypatch.setitem(sys.modules, "numpy", None)
        primes = [p for p in range(2, 256)
                  if all(p % q for q in range(2, p))]
        assert arith._SMALL_PRIMES == tuple(primes)
        rng = random.Random(256)
        smooth = []
        for _ in range(3000):
            n = 1
            while (n2 := n * rng.choice(primes) ** rng.randint(1, 5)) <= 10**30:
                n = n2
            smooth.append(n)
        for n in [*range(1, 1 << 16), *smooth]:
            assert psirh.factorize(n).factors == trial_factors(n, primes), n
        assert prime_engine._prime_list == (None, 0)

    def test_a_rejection_raises_on_every_call(self, monkeypatch):
        # no exception is cached; each call tries every block to 2^27 and
        # proves the one composite cofactor composite once
        calls = []
        fn = arith._is_prime
        monkeypatch.setattr(arith, "_is_prime", lambda m:
                            calls.append(m) or fn(m))
        n = (10**12 + 39) * (10**12 + 61)
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="not proven prime"):
                psirh.factorize(n)
        assert calls == [n, n]

    def test_primorial(self):
        primes = first_primes(62)  # 2 .. 293, across the first block edge
        assert primes[-1] == 293
        assert (psirh.factorize(math.prod(primes)).factors
                == tuple((p, 1) for p in primes))

    @settings(max_examples=5, deadline=None)
    @given(lo=st.integers(10**11, 10**12 - 2000))
    def test_window_matches_kernel(self, lo):
        hi = lo + 2000
        psi = multiplicative_range(lo, hi, False)
        sig = multiplicative_range(lo, hi, True)
        for n in range(lo, hi):
            factors = psirh.factorize(n).factors
            assert math.prod(p**(e - 1) * (p + 1) for p, e in factors) == psi[n - lo]
            assert (math.prod((p**(e + 1) - 1) // (p - 1) for p, e in factors)
                    == sig[n - lo])

    def test_no_sieve_per_query(self, cold_primes):
        rng = random.Random(11)
        # warm-up: two primes near 10^6, so the prime list passes 10^6
        psirh.factorize(999_983 * 1_000_003)
        grown = prime_engine._prime_list[1]
        assert grown > 10**6
        for n in rng.sample(range(10**11, 10**12), 200):
            psirh.factorize(n)
        assert prime_engine._prime_list[1] == grown


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

    # each distinct psi_k below the proven limit, with its largest k
    @pytest.mark.parametrize("psi, k", sorted(
        {psi: k for k, psi in enumerate(_MR_PSI[:-1], start=1)}.items()))
    def test_each_threshold_is_composite(self, psi, k):
        # psi_k fools the first k bases, so _is_prime must take one more
        assert all(strong_probable_prime(psi, a) for a in _MR_BASES[:k])
        assert not _is_prime(psi)

    @pytest.mark.parametrize("psi", sorted(set(_MR_PSI)))
    def test_prime_just_below_each_threshold(self, psi):
        p = next(m for m in range(psi - 2, 0, -2)  # psi is odd
                 if all(strong_probable_prime(m, a) for a in _MR_BASES))
        assert _is_prime(p)

    @pytest.mark.parametrize("p, bases", [
        (10**12 + 39, 5),            # below psi_5
        (3 * 10**12 + 13, 6),        # in [psi_5, psi_6)
        (10**20 + 39, 12),           # in [psi_11, psi_12)
    ])
    def test_base_count_sized_to_cofactor(self, monkeypatch, p, bases):
        # a prime passes every base it is given, with one pow(a, d, m) each
        calls = []
        monkeypatch.setattr(arith, "pow",
                            lambda *a: calls.append(a) or pow(*a),
                            raising=False)
        assert _is_prime(p)
        assert len(calls) == bases


def strong_probable_prime(m, a):
    """The strong test of odd m > a to base a, written out independently."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


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
        # pi(10**4) = 1229: the primes below 10**4
        for p in np.concatenate(list(iter_prime_chunks(1229))).tolist():
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
        for want_sigma, fn in ((False, psirh.dedekind_psi), (True, psirh.sigma)):
            whole = multiplicative_range(lo, hi, want_sigma)
            parts = [multiplicative_range(a, b, want_sigma)
                     for a, b in ((lo, cut), (cut, hi)) if a < b]
            assert np.array_equal(np.concatenate(parts), whole)
            for n in sample:
                assert whole[n - lo] == fn(n)


class TestStdlibSieve:
    """multiplicative_ints, the stdlib sieve behind a scan's prefix, against
    the pointwise functions and the numpy kernel at every n < 2^16, and on
    sub-ranges ending at q^2 for each prime q < 2^8, where the last base
    prime must strike n = q^2."""

    @pytest.fixture(scope="class", params=[False, True], ids=["psi", "sigma"])
    def want(self, request):
        want_sigma = request.param
        fn = psirh.sigma if want_sigma else psirh.dedekind_psi
        values = [fn(n) for n in range(1, 1 << 16)]
        assert values == multiplicative_range(1, 1 << 16, want_sigma).tolist()
        return want_sigma, values

    def test_every_n_below_2_16(self, want):
        want_sigma, values = want
        got = multiplicative_ints(1, 1 << 16, want_sigma)
        assert all(type(v) is int for v in got)
        assert got == values

    def test_sub_ranges(self, want):
        want_sigma, values = want
        rng = random.Random(37)
        for q in first_primes(54):
            hi = q * q + 1
            for lo in (rng.randrange(1, hi), q * q):
                assert multiplicative_ints(lo, hi, want_sigma) \
                    == values[lo - 1:hi - 1], (lo, hi)
        for _ in range(10):
            lo, hi = sorted(rng.sample(range(1, 1 << 16), 2))
            assert multiplicative_ints(lo, hi, want_sigma) \
                == values[lo - 1:hi - 1], (lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0, 5), (-3, 5), (5, 5), (6, 5)])
    def test_range_validation(self, lo, hi):
        with pytest.raises(DomainError):
            multiplicative_ints(lo, hi, True)


def reference_range(lo, hi, want_sigma):
    """psi or sigma on [lo, hi) with no pattern: every prime power below hi
    divides a remainder that starts at n, and what is left is 1 or prime."""
    rem = np.arange(lo, hi, dtype=np.int64)
    val = np.ones(hi - lo, dtype=np.int64)
    for p in sieve_reference(math.isqrt(hi - 1)).tolist():
        pk, s_prev = p, 1
        while pk < hi:
            start = max(-(-lo // pk), 1) * pk - lo
            s_cur = s_prev * p + 1
            if want_sigma or pk == p:
                val[start::pk] //= s_prev
                val[start::pk] *= s_cur
            else:
                val[start::pk] *= p
            rem[start::pk] //= p
            pk, s_prev = pk * p, s_cur
    val[rem > 1] *= rem[rem > 1] + 1
    val[rem == 0] = 0
    return val


PERIOD = arith._PERIOD


class TestKernelPattern:
    """The kernel against the reference and pointwise values where its
    periodic pattern could go wrong."""

    def check(self, lo, hi, points=(), starts=1):
        """The kernel on [s, hi) for the first `starts` starts s from lo,
        against the reference on [lo, hi); the reference against pointwise
        values at the points."""
        for want_sigma, fn in ((False, psirh.dedekind_psi), (True, psirh.sigma)):
            want = reference_range(lo, hi, want_sigma)
            for n in points:
                assert want[n - lo] == (fn(n) if n else 0)
            for s in range(lo, lo + starts):
                got = multiplicative_range(s, hi, want_sigma)
                assert np.array_equal(got, want[s - lo:])

    def test_period_is_the_capped_pattern(self):
        assert PERIOD == math.prod(p**cap for p, cap in arith._PATTERN.items())
        for want_sigma, fn in ((False, psirh.dedekind_psi), (True, psirh.sigma)):
            values, part = arith._pattern(want_sigma)
            assert part[0] == PERIOD and values[0] == fn(PERIOD)
            assert values[2**4 * 7] == fn(2**4 * 7)

    @pytest.mark.parametrize("want_sigma", [False, True])
    def test_pattern_matches_the_gcd_build(self, want_sigma):
        got = arith._pattern(want_sigma)
        for a, b in zip(got, pattern_reference(want_sigma)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 2, 37, 1803])  # 1803 * PERIOD < 10^8
    def test_windows_straddling_the_period(self, k):
        mid = k * PERIOD
        self.check(mid - 700, mid + 700, (mid - 1, mid, mid + 1))

    @pytest.mark.parametrize("n", [
        2**5, 3 * 2**5, 2**26, 3**3, 7 * 3**3, 3**16, 5**2, 13 * 5**2, 5**11,
        7**2, 11 * 7**2, 7**9, 11**2, 13 * 11**2, 11**7,
        2**5 * 3**3 * 5**2 * 7**2 * 11**2, 2**9 * 3**5 * 5**3 * 7**2 * 11**2,
        13**2 * 17**3 * 23**2,
    ])
    def test_powers_beyond_the_caps(self, n):
        self.check(max(n - 3, 0), n + 4, (n,))

    @pytest.mark.parametrize("p", sieve_reference(100).tolist())
    def test_windows_starting_next_to_each_power(self, p):
        # windows [n - 1, n + 2), [n, n + 2) and [n + 1, n + 2) for every
        # n = p^k < 10^8, where the first multiple of p^k is at offset 1, 0
        # or past the end, and p^(k+1) is not below hi
        n = p
        while n < 10**8:
            self.check(n - 1, n + 2, (n,), starts=3)
            n *= p

    @pytest.mark.parametrize("top", [2**20, 3**12])
    def test_deep_powers_from_0(self, top):
        # lo = 0 walks every power of 2 up to 2^20, or of 3 up to 3^12; a
        # window from 0 to 2^26 or 3^16 would need about 1 GB of arrays
        self.check(0, top + 2, (top // 2, top - 1, top, top + 1))

    @pytest.mark.parametrize("lo", [0, 1])
    @pytest.mark.parametrize("span", [1, 2, 3, 31, 32, 33, 1000, PERIOD - 1])
    def test_short_windows_from_0_and_1(self, lo, span):
        self.check(lo, lo + span, range(lo, min(lo + span, 40)))

    @settings(max_examples=15, deadline=None)
    @given(lo=st.integers(10**8 - 10**6, 10**8 + 10**6),
           span=st.integers(1, 3000), data=st.data())
    def test_windows_near_1e8(self, lo, span, data):
        sample = data.draw(st.lists(st.integers(lo, lo + span - 1),
                                    min_size=1, max_size=5), label="sample")
        self.check(lo, lo + span, sample)

    def test_edge_of_the_exactness_domain(self, cold_primes):
        top = arith.KERNEL_CEILING
        assert top == 2**53
        with pytest.raises(DomainError, match="2\\^53"):
            multiplicative_range(top - 10, top + 1, False)
        # the kernel grows the list to every prime below sqrt(2^53), about
        # 5.4M of them (43 MB); cold_primes drops it afterwards
        lo = top - 48
        for want_sigma, fn in ((False, psirh.dedekind_psi), (True, psirh.sigma)):
            got = multiplicative_range(lo, top, want_sigma)
            assert got.tolist() == [fn(n) for n in range(lo, top)]
