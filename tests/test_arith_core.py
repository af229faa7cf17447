"""Sieve layer against trial-division oracles."""

import contextlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville_lab import arith_core as ac
from liouville_lab.util import BudgetError

import oracles


@contextlib.contextmanager
def segment_length(length):
    # DEFAULT_SEGMENT for the block; a context manager, since hypothesis
    # rejects function-scoped fixtures such as monkeypatch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ac, "DEFAULT_SEGMENT", length)
        yield


def test_primes_upto_matches_oracle():
    got = ac.primes_upto(1000)
    assert got.tolist() == oracles.primes_upto(1000)


def test_primes_upto_tiny_bounds():
    assert ac.primes_upto(1).tolist() == []
    assert ac.primes_upto(2).tolist() == [2]


def test_primes_in_half_open_edges():
    assert ac.primes_in(2, 7).tolist() == [3, 5, 7]
    assert ac.primes_in(7, 11).tolist() == [11]
    assert ac.primes_in(2.5, 7.9).tolist() == [3, 5, 7]
    assert ac.primes_in(1.5, 2.0).tolist() == [2]
    assert ac.primes_in(2.0, 2.5).tolist() == []
    # b < 2 holds no prime, and neither does a >= b
    assert ac.primes_in(-5, 1.99).tolist() == []
    assert ac.primes_in(-5.5, -1).tolist() == []
    assert ac.primes_in(11, 11).tolist() == []
    assert ac.primes_in(13, 5).tolist() == []
    assert ac.primes_in(0, 100).dtype == np.int64
    bounds = (-1, 0, 1.5, 2, 2.5, 10, 10.5, 11, 96.9, 97, 97.1)
    for a in bounds:
        for b in bounds:
            want = [p for p in oracles.primes_upto(math.floor(max(b, 0))) if p > a]
            assert ac.primes_in(a, b).tolist() == want, (a, b)


def test_factorize_matches_trial_division():
    for n in range(1, 5001):
        assert ac.factorize(n) == oracles.trial_factor(n), n
    # prime squares and large prime cofactors
    for n in (999983**2, 2 * 1000003**2, 97**2 * 101**2, 2**31 - 1, 999983 * 1000003,
              600851475143, 2**40, 3**20 * 65537):
        assert ac.factorize(n) == oracles.trial_factor(n), n


def test_factor_table_small_range():
    t = ac.build_sieve(1, 2001)
    for n in range(1, 2001):
        assert t.lam[n - t.lo] == oracles.liouville(n), n
        assert t.mu[n - t.lo] == oracles.mobius(n), n
        assert t.omega[n - t.lo] == oracles.big_omega(n), n
        if n >= 2:
            assert t.spf[n - t.lo] == oracles.spf(n), n


def test_factor_table_offset_window():
    lo = 10**6 + 17
    t = ac.build_sieve(lo, lo + 500)
    for n in range(lo, lo + 500):
        assert t.lam[n - t.lo] == oracles.liouville(n), n
        assert t.spf[n - t.lo] == oracles.spf(n), n


@given(st.integers(min_value=2, max_value=200),
       st.integers(min_value=2, max_value=200))
@settings(max_examples=200, deadline=None)
def test_liouville_completely_multiplicative(a, b):
    hi = a * b + 1
    t = ac.build_sieve(1, hi + 1)
    assert t.lam[a * b - t.lo] == t.lam[a - t.lo] * t.lam[b - t.lo]


@given(st.integers(min_value=1, max_value=30000),
       st.integers(min_value=1, max_value=2000),
       st.sampled_from([64, 257, 1 << 12, 1 << 20]))
@settings(max_examples=40, deadline=None)
def test_segment_independence(lo, span, seg):
    # same values regardless of segment boundaries, whether the segment
    # length comes from DEFAULT_SEGMENT or from build_sieve's argument
    hi = lo + span
    base, mobius, t0 = ac.liouville_range(lo, hi), ac.mobius_range(lo, hi), ac.build_sieve(lo, hi)
    with segment_length(seg):
        assert np.array_equal(base, ac.liouville_range(lo, hi))
        assert np.array_equal(mobius, ac.mobius_range(lo, hi))
        t2 = ac.build_sieve(lo, hi)
    # every table array, dtype included, and the parity-only paths agree with it
    t1 = ac.build_sieve(lo, hi, segment_len=seg)
    assert t1.omega.dtype == np.int16
    for t in (t1, t2):
        for name in ("spf", "omega", "lam", "mu"):
            a, b = getattr(t0, name), getattr(t, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(base, t1.lam)
    assert np.array_equal(mobius, t1.mu)


def test_least_factor_range_agrees_with_trial_division():
    # P0 = 30 and P0 = 1100 exceed sqrt(hi): the least factor then comes
    # from the spf of a cofactor above sqrt(hi); the ranges start at 1,
    # and the tail from lo is compared
    lo2 = 10**6 + 3
    for lo, hi, P0 in ((2, 400, 5), (2, 400, 30), (lo2, lo2 + 400, 5),
                       (lo2, lo2 + 400, 1100)):
        lam, first = ac.least_factor_range(hi, P0)
        lam, first = lam[lo - 1:], first[lo - 1:]
        for i, n in enumerate(range(lo, hi)):
            assert lam[i] == oracles.liouville(n)
            facs = [p for p, _ in oracles.trial_factor(n) if p >= P0]
            want = facs[0] if facs else 0
            assert first[i] == want, (n, P0)


@pytest.mark.parametrize("segment", [64, 1000])
def test_least_factor_range_segment_independence(segment, monkeypatch):
    # pmin = 1100 and 3000 lie past the first segments' ends, whose n then
    # have no prime factor >= pmin
    cases = ((1, 5000, 7), (2, 400, 30), (10**6 + 3, 10**6 + 3000, 1100), (1, 5000, 1100),
             (1, 3000, 3000))
    whole = [ac.least_factor_range(hi, pmin) for _, hi, pmin in cases]
    monkeypatch.setattr(ac, "DEFAULT_SEGMENT", segment)
    for (lo, hi, pmin), (lam, first) in zip(cases, whole):
        lam_s, first_s = ac.least_factor_range(hi, pmin)
        assert lam_s.dtype == np.int8 and first_s.dtype == np.int64
        assert np.array_equal(lam_s, lam) and np.array_equal(first_s, first)
        assert np.array_equal(lam[lo - 1:], ac.liouville_range(lo, hi))


def _assert_least_factor_matches(hi, pmin):
    # the least prime factor >= pmin that least_factor_range strips down
    # to from spf, and lambda, against the strided oracle on [1, hi)
    lam, first = ac.least_factor_range(hi, pmin)
    base = ac.primes_upto(math.isqrt(hi - 1))
    omega, _, want_first = oracles.strided_sieve_segment(1, hi, base, pmin)
    assert lam.dtype == np.int8 and first.dtype == want_first.dtype, (hi, pmin)
    assert np.array_equal(first, want_first), (hi, pmin, "first")
    assert np.array_equal(lam, 1 - 2 * (omega & 1)), (hi, pmin, "lam")


def test_least_factor_range_matches_strided_oracle():
    # floors among and just past the wheel primes, inside and past sqrt(hi),
    # at hi itself and beyond it; tiny ranges near 1 included
    for hi in range(2, 60):
        for pmin in (3, 5, 7, 8, hi - 1, hi):
            _assert_least_factor_matches(hi, max(pmin, 2))
    for hi in list(range(120, 130)) + [626, 699, 1 << 14, (1 << 18) + 1, 10**6 + 3]:
        for pmin in (3, 10, 30, 1000, hi + 1):
            _assert_least_factor_matches(hi, pmin)


@given(st.integers(min_value=2, max_value=3 * 10**4),
       st.one_of(st.integers(min_value=2, max_value=200),
                 st.integers(min_value=2, max_value=10**5)))
@settings(max_examples=60, deadline=None)
def test_least_factor_range_matches_strided_oracle_property(hi, pmin):
    _assert_least_factor_matches(hi, pmin)


def _assert_matches_strided(acc, spf, lo, hi):
    # omega, sqfree and lambda from the accumulator, and spf when given,
    # values and dtypes, against the one-strided-pass-per-prime-power
    # kernel given the segment's own base primes
    base = ac.primes_upto(math.isqrt(hi - 1))
    omega, sqfree, want_spf = oracles.strided_sieve_segment(lo, hi, base, 2 if spf is not None else hi)
    assert acc.dtype == np.int32
    assert np.array_equal(acc & 0xFF, omega), (lo, hi, "omega")
    assert np.array_equal(ac._squarefree(acc), sqfree), (lo, hi, "sqfree")
    lam = np.empty(hi - lo, dtype=np.int8)
    ac._lam(acc, lam)
    assert np.array_equal(lam, 1 - 2 * (omega & 1)), (lo, hi, "lam")
    if spf is not None:
        assert spf.dtype == want_spf.dtype, (lo, hi)
        assert np.array_equal(spf, want_spf), (lo, hi, "spf")


def _assert_kernel_matches_strided(lo, hi, with_spf):
    powers = ac._prime_powers(ac.primes_upto(math.isqrt(hi - 1)), hi)
    spf = np.empty(hi - lo, dtype=np.int64) if with_spf else None
    _assert_matches_strided(ac._sieve_segment(lo, hi, powers, spf=spf), spf, lo, hi)


@pytest.mark.parametrize("length", [64, 1 << 14, 1 << 18])
def test_kernel_matches_strided_oracle_at_segment_lengths(length):
    # the cut between strided and scattered powers is length / 256: none of
    # the powers are strided at 64, those up to 64 at 2^14, to 1024 at 2^18
    for lo in (1, 10**7 + 3):
        hi = lo + length
        for with_spf in (True, False):
            _assert_kernel_matches_strided(lo, hi, with_spf)


def test_kernel_matches_strided_oracle_at_wheel_and_power_edges():
    wheel = ac.WHEEL
    # lo just below, at and above multiples of the wheel period
    for m in (1, 2, 397, 4 * 10**5):
        for d in (-1, 0, 1):
            for length in (64, 3000):
                for with_spf in (True, False):
                    _assert_kernel_matches_strided(m * wheel + d, m * wheel + d + length, with_spf)
    # segments that start or end on a multiple of a power near the cut:
    # 61, 67, 2^6, 7^2, 11^2 and 5^3 near 64; 1021, 2^10, 31^2, 37^2, 11^3
    # and 3^7 near 1024
    for length, powers in ((1 << 14, (61, 67, 64, 49, 121, 125)),
                           (1 << 18, (1021, 1024, 961, 1369, 1331, 2187))):
        for pk in powers:
            m = (10**6 // pk + 1) * pk
            for d in (-1, 0, 1):
                _assert_kernel_matches_strided(m + d, m + d + length, True)
                _assert_kernel_matches_strided(m + d - length + 1, m + d + 1, True)
    # tiny segments near 1, where 5 and 7 exceed sqrt(hi - 1) and the wheel
    # counts them in place of the prime cofactor
    for hi in range(2, 60):
        for with_spf in (True, False):
            _assert_kernel_matches_strided(1, hi, with_spf)
            _assert_kernel_matches_strided(max(1, hi - 5), hi, with_spf)


def test_kernel_matches_strided_oracle_beyond_1e9():
    # segments shorter than the wheel period repeat no residue, and nearly
    # every base prime lands in the scatter
    for lo, length in ((10**9, 64), (10**9 + 7, 2000), (10**9 + 2519, 1 << 14),
                       (10**11 + 1, 1 << 12)):
        for with_spf in (True, False):
            _assert_kernel_matches_strided(lo, lo + length, with_spf)


@given(st.integers(min_value=1, max_value=10**10),
       st.integers(min_value=1, max_value=6000),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_strided_oracle_property(lo, length, with_spf):
    _assert_kernel_matches_strided(lo, lo + length, with_spf)


def test_kernel_matches_strided_oracle_at_margin_edges():
    # the cofactor test compares the scaled-log sum with floor(16 log2 n)
    # less 40: at small hi the cofactor is as small as 11 (hi near 626 is
    # where a bound of 64 hits would first make 40 safe), then n = q^2 for
    # the largest base prime q, the steps of floor(16 log2 n) at powers of
    # two, and hi near 1e12, where n has up to 39 prime factors
    steps = ac._log_steps(2**20 - 5000, 2**20 + 5000)
    ms = np.repeat([m for _, m in steps], np.diff([a for a, _ in steps] + [10**4]))
    assert ms.tolist() == [(n**16).bit_length() - 1 for n in range(2**20 - 5000, 2**20 + 5000)]
    for hi in list(range(2, 130)) + list(range(600, 700)):
        for with_spf in (True, False):
            _assert_kernel_matches_strided(1, hi, with_spf)
            _assert_kernel_matches_strided(max(1, hi - 50), hi, with_spf)
    for bound in (10**4, 10**6, 10**9 + 7):
        q = int(ac.primes_upto(math.isqrt(bound - 1))[-1])
        for lo, hi in ((q * q - 40, q * q + 1), (q * q, q * q + 40), (q * q - 3, (q + 1) ** 2)):
            for with_spf in (True, False):
                _assert_kernel_matches_strided(lo, hi, with_spf)
    for k in range(4, 33):
        for lo, hi in ((2**k - 40, 2**k), (2**k - 20, 2**k + 20), (2**k, 2**k + 40)):
            for with_spf in (True, False):
                _assert_kernel_matches_strided(max(lo, 1), hi, with_spf)
    # base primes to 1e6 (0.5 s per oracle call): the largest one's square,
    # 2^40 and 1e12
    q = int(ac.primes_upto(10**6)[-1])
    for lo, hi in ((q * q - 20, q * q + 20), (2**40 - 20, 2**40 + 20), (10**12 - 2048, 10**12 + 2048)):
        _assert_kernel_matches_strided(lo, hi, True)


@pytest.mark.parametrize("lo, hi", [(1, 10**10), (1001, 10**11), (10001, 10**12),
                                    (10**6 + 1, 10**12)])
def test_walk_segments_match_strided_oracle(lo, hi):
    # the walk's powers cover sqrt(hi - 1), far past sqrt(b - 1) of its
    # first segments [a, b), which must come out as their own base primes
    # give them: acc through the walk, and spf from the kernel given the
    # walk's powers, since an spf output would span all of [lo, hi)
    walk = ac._walk(lo, hi, 1 << 12, budget=math.inf)
    for seg, acc in itertools.islice(walk, 3):
        _assert_matches_strided(acc, None, lo + seg.start, lo + seg.stop)
    powers = ac._prime_powers(ac.primes_upto(math.isqrt(hi - 1)), hi)
    for a in range(lo, lo + (3 << 12), 1 << 12):
        spf = np.empty(1 << 12, dtype=np.int64)
        acc = ac._sieve_segment(a, a + (1 << 12), powers, spf=spf)
        _assert_matches_strided(acc, spf, a, a + (1 << 12))


@pytest.mark.parametrize("sieve, bound_mib", [
    (lambda: ac.liouville_range(10**7, 13 * 10**6), 8),
    (lambda: ac.mobius_range(3 * 10**6, 6 * 10**6), 9),
])
def test_parity_paths_hold_no_int64_per_integer(sieve, bound_mib):
    # the 3 MB int8 output and one int32 accumulator per segment; an int64
    # per integer per segment (a first array nothing reads) took 12.4 MiB
    sieve()
    tracemalloc.start()
    try:
        sieve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def _least_factor_scratch(hi, pmin):
    # tracemalloc peak beyond the int8 lam and int64 first outputs
    ac.least_factor_range(hi, pmin)
    tracemalloc.start()
    try:
        ac.least_factor_range(hi, pmin)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - 9 * (hi - 1)


def test_least_factor_range_scratch_is_per_segment():
    # the strip runs on each segment as it is sieved: 15.5 MiB beyond the
    # outputs at hi = 2e6 and 4e6, where one strip over all of [1, hi)
    # held 81 and 166 MiB
    small, large = _least_factor_scratch(2 * 10**6, 30), _least_factor_scratch(4 * 10**6, 30)
    assert large <= small + 2**20
    assert large <= 24 * 2**20


def test_stream_pieces_straddle_segments(monkeypatch):
    # pieces shorter and longer than a segment of 2^10, one empty, from one
    # walk; a piece that does not start where the last stopped is refused
    lo, hi = 10**6 + 3, 10**6 + 5003
    lam, mu = ac.liouville_range(lo, hi), ac.mobius_range(lo, hi)
    monkeypatch.setattr(ac, "DEFAULT_SEGMENT", 1 << 10)
    cuts = [lo, lo + 1, lo + 700, lo + 700, lo + 2900, lo + 3000, hi]
    for want, mobius in ((lam, False), (mu, True)):
        values = ac._stream(lo, hi, mobius)
        got = [values(a, b) for a, b in zip(cuts, cuts[1:])]
        assert all(g.dtype == np.int8 for g in got)
        assert np.array_equal(np.concatenate(got), want)
    values = ac._stream(lo, hi)
    values(lo, lo + 10)
    for a, b in ((lo, lo + 20), (lo + 11, lo + 20), (lo + 10, hi + 1)):
        with pytest.raises(ValueError):
            values(a, b)


def test_walk_checks_span_when_called():
    # before the first next(), so that callers allocate their outputs after
    # the check
    with pytest.raises(BudgetError):
        ac._walk(1, ac.SPAN_BUDGET + 2)
    with pytest.raises(ValueError):
        ac._walk(5, 5)
    with pytest.raises(OverflowError):
        ac._walk(1, 2**63 + 1, budget=math.inf)


def test_walk_bounds_are_lazy():
    # [1, 1e11] holds 381,470 segments of 2^18: a list of their bounds
    # alone took 48.4 MiB
    tracemalloc.start()
    try:
        walk = ac._walk(1, 10**11 + 1, budget=math.inf)
        next(walk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_prime_powers_built_once_per_walk(monkeypatch):
    # rebuilt per segment, they took 123 calls on the first sieve below
    calls = []
    prime_powers = ac._prime_powers

    def counted(base_primes, hi):
        calls.append(hi)
        return prime_powers(base_primes, hi)

    monkeypatch.setattr(ac, "_prime_powers", counted)
    ac.build_sieve(1, 2 * 10**6 + 1, segment_len=1 << 14)
    assert calls == [2 * 10**6 + 1]
    monkeypatch.setattr(ac, "DEFAULT_SEGMENT", 1 << 10)
    for entry in (lambda: ac.build_sieve(1, 10**4), lambda: ac.liouville_range(1, 10**4),
                  lambda: ac.mobius_range(1, 10**4), lambda: ac.least_factor_range(10**4, 7)):
        calls.clear()
        entry()
        assert calls == [10**4]
    # summatory_lambda sieves mu once, on [1, x^(2/3)]
    calls.clear()
    ac.summatory_lambda(10**6)
    assert calls == [10**4 + 1]


def test_range_functions_match_oracle():
    lo, hi = 1, 3000
    lam = ac.liouville_range(lo, hi)
    mu = ac.mobius_range(lo, hi)
    pr = ac.primality_range(lo, hi)
    for n in range(lo, hi):
        assert lam[n - lo] == oracles.liouville(n)
        assert mu[n - lo] == oracles.mobius(n)
        assert bool(pr[n - lo]) == oracles.is_prime(n)


def test_von_mangoldt_minus_one_is_log_p_on_prime_powers():
    vals = ac.von_mangoldt_minus_one_range(1, 200)
    for n in range(1, 200):
        fac = oracles.trial_factor(n) if n > 1 else []
        lam_vm = math.log(fac[0][0]) if len(fac) == 1 else 0.0
        assert vals[n - 1] == pytest.approx(lam_vm - 1.0, abs=1e-12), n


def test_summatory_lambda_frozen_and_oracle():
    # frozen small values, then the oracles on a sparse ladder
    assert ac.summatory_lambda(10) == 0
    assert ac.summatory_lambda(20) == -4
    assert ac.summatory_lambda(1) == 1
    for x in (97, 1000, 4999):
        assert ac.summatory_lambda(x) == oracles.summatory_liouville(x)
    # Tanaka's first counterexample to Polya's conjecture
    assert ac.summatory_lambda(906150257) == 1


def test_summatory_lambda_matches_segmented_oracle():
    # every x to 3000 crosses the u = x^(2/3) and k = x // (u + 1) edges of
    # the Mertens table; then squares, squares minus one and spans past one
    # 2^18 segment of the oracle
    lam = ac.liouville_range(1, 3001)
    assert [ac.summatory_lambda(x) for x in range(1, 3001)] == np.cumsum(lam).tolist()
    for x in (10**4, 2**16 - 1, 2**16, 1000**2 - 1, 1000**2, 10**5 + 3, 2 * 10**6):
        assert ac.summatory_lambda(x) == oracles.segmented_summatory_lambda(x), x


def test_summatory_lambda_segment_invariance():
    want = ac.summatory_lambda(10**5)
    for length in (64, 257, 1 << 12):
        with segment_length(length):
            assert ac.summatory_lambda(10**5) == want, length


@pytest.mark.parametrize("segment", [64, 1000])
def test_prime_tables_across_segment_edges(segment, monkeypatch):
    # primes_upto runs on the segmented Eratosthenes: the prime tables match
    # the oracles and their own default-segment values at any segment
    # length, on ranges that start or end on or next to segment edges and
    # the prime powers 2^12, 3^7 and 67^2
    bound = 5000
    primes = oracles.primes_upto(bound)
    vm = [-1.0] + [math.log(f[0][0]) - 1.0 if len(f) == 1 else -1.0
                   for f in map(oracles.trial_factor, range(2, bound + 1))]
    edges = [1, 2, 3, 63, 64, 65, 127, 128, 999, 1000, 1001, bound]
    for pk in (2**12, 3**7, 67**2):
        edges += [pk - 1, pk, pk + 1]
    whole = (ac.primes_upto(bound), ac.von_mangoldt_minus_one_range(1, bound + 1),
             ac.prime_sums(bound))
    monkeypatch.setattr(ac, "DEFAULT_SEGMENT", segment)
    assert np.array_equal(ac.primes_upto(bound), whole[0])
    assert np.array_equal(ac.von_mangoldt_minus_one_range(1, bound + 1), whole[1])
    assert ac.prime_sums(bound) == whole[2]
    for b in edges:
        assert ac.primes_upto(b).tolist() == [p for p in primes if p <= b], b
        assert ac.prime_sums(b)[0] == pytest.approx(oracles.chebyshev_psi(b), rel=1e-12), b
        for a in edges:
            assert ac.primes_in(a, b).tolist() == [p for p in primes if a < p <= b], (a, b)
            if a < b:
                got = ac.von_mangoldt_minus_one_range(a, b)
                assert got == pytest.approx(vm[a - 1 : b - 1], abs=1e-12), (a, b)


def test_chebyshev_psi_matches_oracle():
    for x in (10, 100, 1000):
        assert ac.prime_sums(x)[0] == pytest.approx(oracles.chebyshev_psi(x), rel=1e-12)


def test_prime_reciprocal_sum_frozen():
    # 1/2 + 1/3 + 1/5 + 1/7 = 247/210
    assert ac.prime_sums(10)[1] == pytest.approx(247 / 210, rel=1e-13)
    assert ac.prime_sums(1) == (0.0, 0.0)


def test_prime_sums_read_one_prime_list(monkeypatch):
    # psi and the reciprocal sum share one primes_upto(x), and each is the
    # exactly rounded sum of its rounded terms
    calls = []
    primes_upto = ac.primes_upto

    def counted(bound):
        calls.append(bound)
        return primes_upto(bound)
    monkeypatch.setattr(ac, "primes_upto", counted)
    psi, rec = ac.prime_sums(10**4)
    # the others are the base primes of primality_range, up to sqrt(x)
    assert calls[0] == 10**4 and max(calls[1:]) <= 100
    primes = oracles.primes_upto(10**4)
    logs = [math.log(p) for p in primes]
    logs += [math.log(p) for p in primes for k in range(2, 15) if p**k <= 10**4]
    assert psi == pytest.approx(math.fsum(logs), rel=1e-15)
    assert rec == math.fsum(1.0 / p for p in primes)


def test_squarefree_count_oracle_and_frozen():
    assert ac.squarefree_count(10) == 7
    assert ac.squarefree_count(100) == 61
    for x in (1000, 4096):
        assert ac.squarefree_count(x) == oracles.squarefree_count(x)


def test_squarefree_count_inclusion_exclusion():
    # Q(x) = sum_d mu(d) floor(x/d^2) is an exact identity
    for x in (10**4, 10**5):
        d = np.arange(1, math.isqrt(x) + 1)
        mu = ac.mobius_range(1, len(d) + 1)
        assert ac.squarefree_count(x) == int(np.dot(mu, x // (d * d)))


def test_build_sieve_rejects_bad_window():
    with pytest.raises(ValueError):
        ac.build_sieve(10, 10)
    with pytest.raises(ValueError):
        ac.build_sieve(0, 5)


def test_span_budget_enforced():
    with pytest.raises(Exception):
        ac.liouville_range(1, ac.SPAN_BUDGET + 2)
