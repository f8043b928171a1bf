import hashlib
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psirh
from oracles import sieve_reference
from psirh import criteria, prime_engine
from psirh.errors import CacheParseError, CacheVersionError, DomainError, ResourceLimitError
from psirh.prime_engine import (CHUNK_SUM_MAX_VALUES, PRIME_INDEX_CEILING,
                                ThetaCache, ThetaPoint, chunk_sum_dd, dd_add,
                                iter_prime_chunks)
from psirh.primorial import TABLE1_DEFAULT_INDICES

# theta(p_10000), 40 digits, summed independently at 60-digit precision
THETA_1E4 = "104392.2020158497838342601966716164077742"
# theta(29), same oracle
THETA_10 = "22.59039453011565621888260736851360534328"


def trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def stream_primes(lo, hi):
    """The primes in [lo, hi) taken from the one prime stream."""
    primes = [p for chunk in iter_prime_chunks(hi) for p in chunk.tolist()]
    return [p for p in primes if p >= lo]


class TestSieveRange:
    def test_first_primes(self):
        assert stream_primes(0, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_composite_window(self):
        assert stream_primes(30, 31) == []

    def test_million_window_matches_trial_division(self):
        got = stream_primes(10**6, 10**6 + 100)
        assert got == trial_division_primes(10**6, 10**6 + 100)

    def test_empty_range_yields_nothing(self):
        for limit in (0, 1, 2):
            assert list(iter_prime_chunks(limit)) == []

    def test_ceiling_rejected(self):
        with pytest.raises(ResourceLimitError):
            next(iter_prime_chunks(10**12))

    @settings(max_examples=30, deadline=None)
    @given(lo=st.integers(0, 10**6), span=st.integers(1, 300))
    def test_matches_naive_oracle(self, lo, span):
        got = stream_primes(lo, lo + span)
        assert got == trial_division_primes(lo, lo + span)

    def test_segment_boundary_windows(self):
        # windows straddling the 2**21 segment boundary
        for lo in (2**21 - 50, 2**21, 3 * 2**21 - 17):
            got = stream_primes(lo, lo + 100)
            assert got == trial_division_primes(lo, lo + 100)


class TestSegmentPrimes:
    """_segment_primes, with every start offset computed in numpy, against
    trial division."""

    @staticmethod
    def segment(lo, hi):
        base = prime_engine._simple_sieve(math.isqrt(hi - 1))
        return prime_engine._segment_primes(lo, hi, base).tolist()

    @pytest.mark.parametrize("lo, hi", [
        (0, 2), (0, 3), (2, 3), (3, 4), (0, 200), (1, 50), (5, 60),
        (10, 200), (24, 170), (48, 122), (120, 1000), (168, 4000)])
    def test_windows_below_p_squared(self, lo, hi):
        # lo < p*p for base primes p with p*p < hi: those start at p*p
        assert self.segment(lo, hi) == trial_division_primes(lo, hi)

    @settings(max_examples=40, deadline=None)
    @given(lo=st.integers(0, 5000), span=st.integers(1, 5000))
    def test_small_windows(self, lo, span):
        assert self.segment(lo, lo + span) == trial_division_primes(lo, lo + span)

    @pytest.mark.parametrize("k", [1, 2, 5, 81])
    def test_windows_straddling_segment_boundaries(self, k):
        lo = k * 2**21 - 60
        assert self.segment(lo, lo + 120) == trial_division_primes(lo, lo + 120)

    def test_whole_segments_match_one_sieve(self):
        primes = sieve_reference(2**23)
        for lo in (0, 2**21, 3 * 2**21):
            hi = lo + 2**21
            want = primes[(primes >= lo) & (primes < hi)]
            got = prime_engine._segment_primes(
                lo, hi, sieve_reference(math.isqrt(hi - 1)))
            assert np.array_equal(got, want) and got.dtype == np.int64


class TestPrimeList:
    """The one shared list of small primes: prime_engine._primes_below grows
    it, and _simple_sieve hands out read-only prefixes of it."""

    BOUNDS = (0, 1, 2, 3, 4, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1)

    @pytest.mark.parametrize("cold", [True, False])
    def test_matches_the_reference(self, request, cold):
        if cold:
            request.getfixturevalue("cold_primes")
        for limit in self.BOUNDS:
            got = prime_engine._simple_sieve(limit)
            assert got.dtype == np.int64
            assert np.array_equal(got, sieve_reference(limit)), limit
            # the whole list: every prime below its bound, and nothing else
            primes, hi = prime_engine._prime_list
            assert hi > limit
            assert np.array_equal(primes, sieve_reference(hi - 1))

    def test_cold_growth_is_one_segment_per_level(self, cold_primes,
                                                  monkeypatch):
        # the base primes by recursion (to 35, 6, 3, 2), then [0, 1181) at once
        calls = []
        segment = prime_engine._segment_primes
        monkeypatch.setattr(prime_engine, "_segment_primes",
                            lambda lo, hi, base: calls.append((lo, hi))
                            or segment(lo, hi, base))
        prime_engine._simple_sieve(1180)
        assert calls == [(0, 2), (0, 3), (0, 6), (0, 35), (0, 1181)]
        assert prime_engine._prime_list[1] == 1181
        # a short list doubles its bound: nothing below it is sieved again
        calls.clear()
        prime_engine._primes_below(1500)
        assert calls == [(1181, 2362)]

    def test_prefixes_are_read_only(self):
        primes = prime_engine._simple_sieve(100)
        with pytest.raises(ValueError):
            primes[0] = 4
        with pytest.raises(ValueError):
            prime_engine._primes_below(100)[-1] = 4
        assert prime_engine._simple_sieve(100)[0] == 2

    def test_cold_list_grown_by_two_workers(self, cold_primes, set_workers,
                                            monkeypatch):
        # a 2-worker scan grows the empty list from its worker threads,
        # one base-prime bound per chunk, and reports what a serial one does
        monkeypatch.setattr(criteria, "DEFAULT_CHUNK", 1 << 12)
        runs = []
        for workers in (2, 1):
            set_workers(workers)
            monkeypatch.setattr(prime_engine, "_prime_list", (None, 0))
            prime_engine._simple_sieve.cache_clear()
            for kind in (criteria.CriterionKind.DEDEKIND_F,
                         criteria.CriterionKind.ROBIN_G):
                runs.append(criteria.scan_exceptions(kind, 2, 10**5))
        assert runs[:2] == runs[2:]
        assert runs[0].exceptions == (2, 3, 4, 5, 6, 8, 10, 12, 18, 30)


class TestPrimeStreamPipeline:
    """iter_prime_chunks sieves segments ahead on prime_engine.WORKERS
    threads and yields them in order."""

    def test_worker_counts_yield_identical_chunks(self, set_workers):
        runs = []
        for workers in (1, 2, 3):
            set_workers(workers)
            runs.append(list(iter_prime_chunks(2 * 10**7)))
        assert len(runs[0]) == 10
        for run in runs[1:]:
            assert len(run) == len(runs[0])
            assert all(np.array_equal(a, b) for a, b in zip(run, runs[0]))

    def test_more_workers_than_cores_with_fast_switching(self, set_workers):
        want = list(iter_prime_chunks(2 * 10**7))
        set_workers(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = list(iter_prime_chunks(2 * 10**7))
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_close_mid_stream_stops_every_worker(self, set_workers):
        set_workers(2)
        before = threading.active_count()
        stream = iter_prime_chunks(2 * 10**7)
        next(stream)
        next(stream)
        assert threading.active_count() > before
        stream.close()
        assert threading.active_count() == before

    def test_nth_prime_leaves_no_worker(self, set_workers):
        # nth_prime leaves the stream after 8 of its 9 segments
        set_workers(2)
        before = threading.active_count()
        assert psirh.nth_prime(10**6) == 15485863
        assert threading.active_count() == before

    def test_worker_error_keeps_its_type(self, set_workers, monkeypatch):
        set_workers(2)

        class Boom(Exception):
            pass

        segment = prime_engine._segment_primes
        callers = set()

        def fn(lo, hi, base):
            callers.add(threading.get_ident())
            if lo >= 3 * 2**21:
                raise Boom(lo)
            return segment(lo, hi, base)

        monkeypatch.setattr(prime_engine, "_segment_primes", fn)
        before = threading.active_count()
        seen = []
        with pytest.raises(Boom):
            for chunk in iter_prime_chunks(2 * 10**7):
                seen.append(int(chunk[0]))
        assert seen == [2, 2097169, 4194319]  # the first three segments
        assert threading.get_ident() not in callers
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers, limit", [(1, 2 * 10**7), (2, 2**21)])
    def test_serial_stream_starts_no_thread(self, set_workers, monkeypatch,
                                           workers, limit):
        # one worker, or a stream of one segment, stays on the serial loop
        set_workers(workers)

        def refuse(self):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert len(list(iter_prime_chunks(limit))) == -(-limit // 2**21)
        assert psirh.full_scan(10**5, [10**5]).stats[0].prime == 1299709


class TestNthPrime:
    def test_small(self):
        assert psirh.nth_prime(1) == 2
        assert psirh.nth_prime(10) == 29

    def test_100000th(self):
        assert psirh.nth_prime(100000) == 1299709

    def test_errors(self):
        with pytest.raises(DomainError):
            psirh.nth_prime(0)
        with pytest.raises(ResourceLimitError):
            psirh.nth_prime(10**8)

    def test_consistent_with_sieve_stream(self):
        primes = np.concatenate(list(iter_prime_chunks(1300000)))
        for n in (1, 2, 100, 5000, 100000):
            assert psirh.nth_prime(n) == primes[n - 1]


class TestThetaStream:
    """theta(p_n) from the ordered double-double pass (full_scan)."""

    def test_theta_at_29(self):
        pts = psirh.full_scan(10, [10]).stats
        assert pts[0].index == 10 and pts[0].prime == 29
        assert pts[0].theta == pytest.approx(22.59039453, abs=5e-8)

    def test_emits_default_report_indices(self):
        pts = psirh.full_scan(1500, TABLE1_DEFAULT_INDICES).stats
        assert [p.index for p in pts] == [10, 1000]

    def test_extra_indices(self):
        pts = psirh.full_scan(100, [42, 7, 1000, 10]).stats
        assert [p.index for p in pts] == [7, 10, 42]

    def test_monotone(self):
        pts = psirh.full_scan(10**4, range(100, 10**4 + 1, 100)).stats
        thetas = [p.theta for p in pts]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        assert all(p.theta < p.prime for p in pts)

    def test_against_high_precision_oracle(self):
        pts = {p.index: p for p in psirh.full_scan(10**4, [10, 10**4]).stats}
        with mp.workdps(50):
            for index, frozen in ((10, THETA_10), (10**4, THETA_1E4)):
                exact = mp.mpf(frozen)
                got = mp.mpf(pts[index].theta_hi) + mp.mpf(pts[index].theta_lo)
                assert abs(got - exact) / exact < 1e-15

    def test_bad_n_max(self):
        with pytest.raises(DomainError):
            psirh.full_scan(0, [1])

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError):
            psirh.full_scan(PRIME_INDEX_CEILING + 1, [10])


class TestDoubleDouble:
    def test_chunk_sum_recovers_residual(self):
        vals = np.array([1.0, 1e-17, 1e-17, 1e-17])
        hi, lo = chunk_sum_dd(vals)
        assert hi == 1.0
        assert lo == pytest.approx(3e-17, rel=1e-10)

    def test_dd_add_exact_for_representable(self):
        hi, lo = dd_add(1.0, 0.0, 2.0**-60, 0.0)
        assert hi == 1.0 and lo == 2.0**-60


def fsum_pair(values):
    """Oracle: the correctly rounded sum and the correctly rounded residual
    (a zero sum is +0.0)."""
    hi = math.fsum(values)
    return hi + 0.0, math.fsum(list(values) + [-hi]) + 0.0


def same_bits(got, want):
    return [v.hex() for v in got] == [v.hex() for v in want]


finite = st.floats(allow_nan=False, allow_infinity=False, width=64,
                   min_value=-2.0**600, max_value=2.0**600)
spread = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-600, 600))
subnormal = st.floats(min_value=-2.0**-1022, max_value=2.0**-1022)


@pytest.fixture(scope="module")
def real_chunks():
    """log p and log(1 + 1/p) for the first stream chunk and for one segment
    of primes near p_1e7."""
    lo = 179_000_000
    late = prime_engine._segment_primes(
        lo, lo + 2**21, prime_engine._simple_sieve(math.isqrt(lo + 2**21 - 1)))
    out = []
    for primes in (next(iter_prime_chunks(2**21)), late):
        pf = primes.astype(np.float64)
        out += [np.log(pf), np.log1p(1.0 / pf)]
    return out


class TestChunkSum:
    """chunk_sum_dd is exact: hi and lo carry the bits of math.fsum."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(finite, spread, subnormal), max_size=60))
    def test_matches_fsum(self, values):
        x = np.array(values, dtype=np.float64)
        assert same_bits(chunk_sum_dd(x), fsum_pair(values))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(spread, subnormal), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_exact_cancellation(self, values, rnd):
        both = values + [-v for v in values]
        rnd.shuffle(both)
        assert same_bits(chunk_sum_dd(np.array(both)), (0.0, 0.0))
        both.append(values[0])
        assert same_bits(chunk_sum_dd(np.array(both)), fsum_pair(both))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(subnormal, max_size=40), st.lists(spread, max_size=5))
    def test_subnormals(self, tiny, big):
        """Sums that land in the gradual-underflow range round like fsum."""
        values = tiny + big
        assert same_bits(chunk_sum_dd(np.array(values, dtype=np.float64)),
                         fsum_pair(values))

    @pytest.mark.parametrize("values", [
        [2.0**1023, 2.0**-1074],
        [2.0**-1074, -2.0**1023, 2.0**-1073, 2.0**1022, 3.0],
        [1.7976931348623157e308, -5e-324, -1e308, 2.0**-1060, 1.0],
        [2.0**1023, -2.0**1023, 2.0**-1074, 2.0**-1022],
        [2.0**1000] * 8 + [-2.0**-1074, 2.0**-600],
        [1.5 * 2.0**1019] * 7 + [2.0**-1074],  # the first sigma past 2**1023
    ])
    def test_top_exponents_keep_subnormal_bits(self, values):
        assert same_bits(chunk_sum_dd(np.array(values)), fsum_pair(values))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(math.ldexp, st.floats(-1.0, 1.0),
                              st.integers(-1074, 1020)), max_size=8))
    def test_whole_exponent_range(self, values):
        # at most 8 values below 2**1020: no partial sum overflows
        assert same_bits(chunk_sum_dd(np.array(values, dtype=np.float64)),
                         fsum_pair(values))

    def test_input_left_unchanged(self, real_chunks):
        arr = real_chunks[1]
        copy = arr.copy()
        chunk_sum_dd(arr)
        assert np.array_equal(arr, copy)

    def test_empty_and_single(self):
        assert same_bits(chunk_sum_dd(np.array([])), (0.0, 0.0))
        for v in (0.0, -0.0, 1.5, -2.0**-1074, 2.0**1023, math.pi):
            assert same_bits(chunk_sum_dd(np.array([v])), fsum_pair([v]))

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, 3), start=st.integers(0, 10**5),
           length=st.integers(0, 60000))
    def test_real_chunk_slices(self, real_chunks, which, start, length):
        arr = real_chunks[which]
        start %= len(arr)
        part = arr[start:start + length]
        assert same_bits(chunk_sum_dd(part), fsum_pair(part.tolist()))

    def test_whole_real_chunks(self, real_chunks):
        for arr in real_chunks:
            assert same_bits(chunk_sum_dd(arr), fsum_pair(arr.tolist()))

    @pytest.mark.parametrize("bad", [[math.inf], [-math.inf], [math.nan],
                                     [1.0, math.inf, -math.inf],
                                     [2.0, math.nan, -2.0]])
    def test_non_finite_raises(self, bad):
        with pytest.raises(DomainError):
            chunk_sum_dd(np.array(bad))

    def test_non_finite_in_real_chunk_raises(self, real_chunks):
        arr = real_chunks[1].copy()
        arr[len(arr) // 2] = math.inf
        with pytest.raises(DomainError):
            chunk_sum_dd(arr)

    def test_size_limit(self):
        too_long = np.broadcast_to(np.float64(1.0), (CHUNK_SUM_MAX_VALUES + 1,))
        with pytest.raises(ResourceLimitError):
            chunk_sum_dd(too_long)


def write_cache(path, body):
    """A cache file with a valid trailer over the given header and rows."""
    data = body.encode()
    rows = body.count("\n") - 1
    digest = hashlib.sha256(data).hexdigest()
    path.write_bytes(data + f"end points={rows} sha256={digest}\n".encode())


class TestThetaCache:
    def _points(self):
        return [ThetaPoint(10, 29, 22.59039453011, 1.23e-15),
                ThetaPoint(20, 71, 56.5, -4.5e-16),
                ThetaPoint(30, 113, 103.0, 0.0)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "theta.cache"
        cache = ThetaCache(points=self._points())
        psirh.cache_save(cache, path)
        loaded = psirh.cache_load(path)
        assert loaded.points == self._points()
        assert [p.name for p in tmp_path.iterdir()] == ["theta.cache"]

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.cache"
        for text in ("psicache v99 stride=1\n",
                     "psicache v1 stride=1\n10 29 0x1.69724188e9583p+4 0x0.0p+0\n",
                     "psicache v2 stride=1\n10 29 0x1.69724188e9583p+4 0x0.0p+0\n"):
            path.write_text(text)
            with pytest.raises(CacheVersionError):
                psirh.cache_load(path)

    def test_truncated_row_names_line(self, tmp_path):
        path = tmp_path / "trunc.cache"
        write_cache(path, "psicache v3\n10 29 0x1.6p+4\n")
        with pytest.raises(CacheParseError) as exc:
            psirh.cache_load(path)
        assert exc.value.line_number == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.cache"
        path.write_text("not a cache\n")
        with pytest.raises(CacheParseError):
            psirh.cache_load(path)

    def test_missing_trailer(self, tmp_path):
        path = tmp_path / "notrailer.cache"
        path.write_text("psicache v3\n10 29 0x1.6p+4 0x0.0p+0\n")
        with pytest.raises(CacheParseError) as exc:
            psirh.cache_load(path)
        assert exc.value.line_number == 2

    def test_altered_value_rejected(self, tmp_path):
        path = tmp_path / "theta.cache"
        psirh.cache_save(ThetaCache(points=self._points()), path)
        data = path.read_bytes()
        at = data.index(b"0x1.")
        path.write_bytes(data[:at + 4] + b"7" + data[at + 5:])
        with pytest.raises(CacheParseError):
            psirh.cache_load(path)

    def test_every_truncation_raises_or_loads_identical(self, tmp_path):
        # 9.8e-14 cut inside its hex exponent used to load as 1.724
        points = [ThetaPoint(10, 29, 22.59039453011, 9.8e-14),
                  ThetaPoint(20, 71, 56.5, -4.5e-16)]
        path = tmp_path / "theta.cache"
        psirh.cache_save(ThetaCache(points=points), path)
        data = path.read_bytes()
        cut_path = tmp_path / "cut.cache"
        loaded = []
        for cut in range(len(data) + 1):
            cut_path.write_bytes(data[:cut])
            try:
                got = psirh.cache_load(cut_path)
            except (CacheParseError, CacheVersionError):
                continue
            assert got.points == points, f"cut at byte {cut}"
            loaded.append(cut)
        assert loaded == [len(data)]
