"""Window sums, variance over starting points, and the vertical-line bridge."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from liouville_lab import arith_core, cli, dirichlet_poly as dp, entropy_chowla
from liouville_lab import interval_stats as ist
from liouville_lab.expsum_circle import e_of
from liouville_lab.util import BudgetError, PreconditionError, fsum

import oracles


def test_window_spec_validation():
    with pytest.raises(ValueError):
        ist.WindowSpec("diagonal", 100, 10)
    with pytest.raises(ValueError):
        ist.WindowSpec("additive", 100, 100)
    with pytest.raises(ValueError):
        ist.WindowSpec("additive", 100, 0)


def test_variance_matches_naive_additive():
    # direct O(X h) recomputation at small size
    X, h = 400, 16
    lam = [0] + [oracles.liouville(n) for n in range(1, 2 * X + h + 1)]
    means = oracles.naive_window_means(lam, list(range(X + 1, 2 * X + 1)),
                                       [x + h for x in range(X + 1, 2 * X + 1)])
    want = sum(m * m for m in means) / X
    v = ist.variance("liouville", ist.WindowSpec("additive", X, h))
    assert v == pytest.approx(want, rel=1e-12)


def test_variance_matches_naive_multiplicative():
    X, h = 300, 30
    lam = [0] + [oracles.liouville(n) for n in range(1, 2 * X + 1)]
    starts = [(x * (X - h)) // X for x in range(X + 1, 2 * X + 1)]
    means = oracles.naive_window_means(lam, starts,
                                       list(range(X + 1, 2 * X + 1)))
    want = sum(m * m for m in means) / X
    v = ist.variance("liouville", ist.WindowSpec("multiplicative", X, h))
    assert v == pytest.approx(want, rel=1e-12)


def test_variance_mobius_and_character_kinds():
    spec = ist.WindowSpec("additive", 200, 10)
    assert 0.0 <= ist.variance("mobius", spec) <= 1.0
    # the CLI's --fname offers liouville, mobius and von_mangoldt_minus_one;
    # a twisted lambda chi spec is refused like any other unknown name
    for fname in (("liouville_times_character", 4, 1), "unknown"):
        with pytest.raises(ValueError, match="unknown function spec"):
            ist.variance(fname, spec)


def test_variance_budget():
    with pytest.raises(BudgetError):
        ist.variance("liouville",
                     ist.WindowSpec("additive", ist.WINDOW_BUDGET + 1, 10))


def test_exceptional_fraction_chebyshev():
    X, h = 2000, 50
    spec = ist.WindowSpec("additive", X, h)
    v = ist.variance("liouville", spec)
    taus = (0.05, 0.1, 0.3)
    fracs = ist.exceptional_fraction("liouville", spec, taus)
    for tau, frac in zip(taus, fracs):
        assert frac <= v / tau**2 + 1e-12
    # direct count cross-check against the naive window means
    lam = [0] + [oracles.liouville(n) for n in range(1, 2 * X + h + 1)]
    xs = list(range(X + 1, 2 * X + 1))
    means = oracles.naive_window_means(lam, xs, [x + h for x in xs])
    for tau, frac in zip(taus, fracs):
        direct = sum(1 for m in means if abs(m) >= tau) / X
        assert frac == pytest.approx(direct)
    with pytest.raises(ValueError):
        ist.exceptional_fraction("liouville", spec, [0.1, 0.0])


def test_exceptional_fraction_monotone():
    spec = ist.WindowSpec("additive", 1000, 20)
    fr = ist.exceptional_fraction("liouville", spec, (0.02, 0.1, 0.5, 1.0))
    assert all(a >= b for a, b in zip(fr, fr[1:]))
    assert ist.exceptional_fraction("liouville", spec, [1.0 + 1e-9]) == [0.0]


def test_exp_sum_avg_direct():
    X, h, alpha = 60, 7, 0.37
    lam = [0] + [oracles.liouville(n) for n in range(1, 2 * X + h + 1)]
    total = 0.0
    for x in range(X + 1, 2 * X + 1):
        s = sum(int(lam[n]) * e_of(alpha * n) for n in range(x + 1, x + h + 1))
        total += abs(s)
    assert ist.exp_sum_avg(X, h, alpha) == pytest.approx(total / (h * X), rel=1e-12)


@pytest.mark.parametrize("segment", [64, 1000, arith_core.DEFAULT_SEGMENT])
def test_exp_sum_avg_stream_equals_one_shot(segment, monkeypatch):
    # several segments, windows longer than X, and a tail of one window
    cases = ((3000, 7, 0.37), (2000, 150, 0.6180339887498949), (5, 100, 0.25),
             (1, 2, 0.5), (4097, 64, -1.3))
    want = [oracles.one_shot_exp_sum_avg(ist, X, h, a) for X, h, a in cases]
    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT", segment)
    for (X, h, alpha), w in zip(cases, want):
        assert ist.exp_sum_avg(X, h, alpha) == w, (X, h, alpha)


def _exp_sum_avg_peak(X):
    tracemalloc.start()
    try:
        ist.exp_sum_avg(X, 100, 0.6180339887498949)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_exp_sum_avg_peak_allocation_per_window():
    # one segment of 2^18 complex windows and a tail of one window length
    # (19.2 MiB here): the one-shot pass held about 104 bytes per window
    # (99 MiB here)
    assert _exp_sum_avg_peak(10**6) <= 32 * 2**20


def test_exp_sum_avg_peak_does_not_grow_with_x():
    # the |sums| of each segment go into one ExactSum: an array of X of
    # them took 25.6 MiB at X = 1e6 and 48.5 MiB at 4e6
    assert _exp_sum_avg_peak(4 * 10**6) <= _exp_sum_avg_peak(10**6) + 2**20


def test_parseval_link_envelope_and_certification():
    rep = ist.parseval_link(10**4, 50, 0.25)
    assert rep.T == pytest.approx(10**4 / (50 * 0.25**2))
    assert rep.lhs <= rep.envelope
    assert rep.rhs == rep.integral + 0.25
    assert rep.quadrature_bound <= 1e-2 * rep.integral
    assert rep.integral > 0.0


def test_parseval_link_node_budget():
    # 2 ceil(T / 0.5) + 1 nodes for T = X/(h delta^2); delta^2 = 1e-400
    # underflows to 0, so T is infinite
    for delta in (1e-6, 1e-200):
        with pytest.raises(BudgetError):
            ist.parseval_link(10**4, 50, delta)


def test_parseval_link_needs_two_nodes(monkeypatch):
    # delta^2 = 1e400 overflows, so h delta^2 is infinite, T = 0 and the
    # t-grid would hold one node: refused before the variance pass sieves
    def started(*args, **kwargs):
        raise RuntimeError("sieve started")
    with monkeypatch.context() as m:
        m.setattr(arith_core, "_walk", started)
        with pytest.raises(PreconditionError):
            ist.parseval_link(10**4, 50, 1e200)
    # delta = 1e150 keeps T > 0: one trapezoid interval, 2 nodes
    rep = ist.parseval_link(10**4, 50, 1e150)
    assert 0.0 < rep.T < 1e-290
    assert rep.lhs <= rep.envelope
    n = np.arange(10**4 + 1, 2 * 10**4 + 1)
    at_zero = fsum(arith_core.liouville_range(10**4 + 1, 2 * 10**4 + 1) / n)
    assert rep.integral == pytest.approx(2 * rep.T * at_zero**2, rel=1e-12)


def test_parseval_link_sieves_once(monkeypatch):
    # the coefficients lambda(n)/n come from the variance pass's one walk
    # over [X - h, 2X], which covers (X, 2X]
    spans = []
    walk = arith_core._walk

    def recorded(lo, hi, *args, **kwargs):
        spans.append((lo, hi))
        return walk(lo, hi, *args, **kwargs)
    monkeypatch.setattr(arith_core, "_walk", recorded)
    rep = ist.parseval_link(10**4, 50, 0.5)
    assert spans == [(9950, 20001)]
    n = np.arange(10**4 + 1, 2 * 10**4 + 1)
    lam = arith_core.liouville_range(10**4 + 1, 2 * 10**4 + 1)
    monkeypatch.setattr(arith_core, "_walk", walk)
    assert rep.lhs == ist.variance("liouville", ist.WindowSpec("multiplicative", 10**4, 50))
    half, _ = dp._square_integral(-np.log(n.astype(np.float64)), lam / n, [(0.0, rep.T)])
    assert rep.integral == 2 * half


def _parseval_exact(X, T):
    # 2 int_0^T |sum_{X < n <= 2X} lambda(n)/n n^{-it}|^2 dt: real
    # coefficients, so n^{-it} may be n^{it}
    n = np.arange(X + 1, 2 * X + 1)
    lam = np.array([oracles.liouville(int(k)) for k in n], dtype=np.float64)
    return 2.0 * oracles.gram_integral(n, lam / n, [(0.0, T)], fsum)


def _assert_certified(integral, bound, exact):
    # the quadrature bound holds against the exact integral, up to the
    # oracle's own rounding
    eps = np.finfo(np.float64).eps
    assert abs(integral - exact) <= bound + 64 * eps * exact


@given(st.data(), st.integers(min_value=20, max_value=2000), st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=6, deadline=None)
def test_parseval_quadrature_bound_holds(data, X, delta):
    h = data.draw(st.integers(min_value=1, max_value=X - 1))
    assume(X / (h * delta * delta) <= 5000)
    rep = ist.parseval_link(X, h, delta)
    _assert_certified(rep.integral, rep.quadrature_bound, _parseval_exact(X, rep.T))


def test_parseval_quadrature_error_at_rounding_level_frozen():
    rep = ist.parseval_link(1000, 50, 0.25)
    exact = _parseval_exact(1000, rep.T)
    _assert_certified(rep.integral, rep.quadrature_bound, exact)
    assert rep.quadrature_bound <= 1e-3 * exact
    assert abs(rep.integral - exact) <= 1e-13 * exact


@pytest.mark.parametrize("reach", [0.5, 1.0, 4.0])
def test_parseval_quadrature_bound_holds_at_every_step(reach, monkeypatch):
    monkeypatch.setattr(dp, "_EM_REACH", reach)
    rep = ist.parseval_link(1000, 50, 0.25)
    _assert_certified(rep.integral, rep.quadrature_bound, _parseval_exact(1000, rep.T))


def test_parseval_halving_delta_is_three_times_true_error_frozen():
    # Richardson, behind tnp's contour-step-halving row, on parseval_link's
    # integrand and the step-halving grid: the coarse trapezoid sum errs
    # four times as much as the fine one
    rep = ist.parseval_link(1000, 50, 0.25)
    n = np.arange(1001, 2001, dtype=np.float64)
    lam = arith_core.liouville_range(1001, 2001) / n
    ts = dp._grid(0.0, rep.T, 0.5)
    f = np.abs(dp._phase_sum(-np.log(n), lam, ts)) ** 2
    dt = rep.T / (len(ts) - 1)
    fine, coarse = 2 * dp._trap(f, dt), 2 * dp._trap(f[::2], 2 * dt)
    exact = _parseval_exact(1000, rep.T)
    delta = abs(fine - coarse) / fine
    _assert_certified(fine, delta * exact, exact)
    assert 0.3 <= abs(fine - exact) / (delta * exact) <= 0.35


def _ladder(X, h):
    # the additive spec and the geometric X' in [X, 3X] of the check
    specs, Xp = [ist.WindowSpec("additive", X, h)], float(X)
    while Xp <= 3 * X:
        specs.append(ist.WindowSpec("multiplicative", int(Xp), h))
        Xp *= 1.0 + 1.0 / math.sqrt(h)
    return specs


@pytest.mark.parametrize("segment", [None, 1 << 10])
def test_additive_from_multiplicative_envelope(segment, monkeypatch):
    # one pass per spec gives the same bits as the shared stream, at the
    # default segment and across many segments of 2^10
    if segment:
        monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT", segment)
    lhs, bound = ist.additive_from_multiplicative_check(5000, 64)
    assert lhs <= bound
    direct, *ladder = [ist.variance("liouville", spec) for spec in _ladder(5000, 64)]
    assert len(ladder) == 10
    assert (lhs, bound) == (direct, 40.0 * (0.125 + max(ladder) / 0.125))


# (kind, X, h): additive and multiplicative passes over one X; several X
# with spans that overlap; spans with a stretch between them that no pass
# reads, longer than a segment
SPEC_SETS = [
    [("additive", 5000, 10), ("additive", 5000, 100), ("additive", 5000, 1500)],
    [("multiplicative", 5000, 10), ("multiplicative", 5000, 100),
     ("multiplicative", 5000, 4000)],
    [("additive", 3000, 40), ("multiplicative", 3000, 40), ("multiplicative", 4100, 40),
     ("multiplicative", 7000, 300), ("additive", 5000, 1500), ("multiplicative", 3000, 40)],
    [("multiplicative", 20000, 50), ("multiplicative", 100, 7), ("additive", 9000, 13)],
]


@pytest.mark.parametrize("segment", [64, 1000])
@pytest.mark.parametrize("specs", SPEC_SETS)
def test_set_variances_equal_one_pass_per_spec(specs, segment, monkeypatch):
    specs = [ist.WindowSpec(*spec) for spec in specs]
    top = max(2 * s.X + s.h for s in specs)
    integer = {fname: np.concatenate(([0], ist._value_stream(fname, 1, top + 1)(1, top + 1)))
               for fname in ("liouville", "mobius")}
    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT", segment)
    for fname in ("liouville", "mobius", "von_mangoldt_minus_one"):
        got = ist.variances(fname, specs)
        assert got == [ist.variance(fname, spec) for spec in specs], fname
        if fname in integer:
            assert got == [oracles.integer_window_variance(integer[fname], s.kind, s.X, s.h)
                           for s in specs], fname


def _walks(monkeypatch):
    walks = []
    walk = arith_core._walk

    def counted(lo, hi, *args, **kwargs):
        walks.append((lo, hi))
        return walk(lo, hi, *args, **kwargs)
    monkeypatch.setattr(arith_core, "_walk", counted)
    return walks


def test_variance_h_list_and_ladder_sieve_once(monkeypatch, capsys):
    # one walk over the union of the spans: (X, 2X + 10000] for the
    # additive h-list, (X - 10000, 2X] for the multiplicative one, and
    # (5000 - 64, 2 X'] up to X' = 14453 for the ladder
    walks = _walks(monkeypatch)
    for kind, span in (("additive", (10**5 + 1, 2 * 10**5 + 10**4 + 1)),
                       ("multiplicative", (10**5 - 10**4, 2 * 10**5 + 1))):
        assert cli.main(["variance", "--x", "100000", "--kind", kind,
                         "--h-list", "100,1000,10000"]) == 0
        assert walks == [span]
        walks.clear()
    capsys.readouterr()
    ist.additive_from_multiplicative_check(5000, 64)
    assert walks == [(5000 - 64, 2 * _ladder(5000, 64)[-1].X + 1)]


def test_ladder_checks_every_pass_before_the_walk(monkeypatch):
    # the top of the ladder, X' near 9e7, passes the window budget: refused
    # before the additive pass sieves
    def started(*args, **kwargs):
        raise RuntimeError("sieve started")
    monkeypatch.setattr(arith_core, "_walk", started)
    with pytest.raises(BudgetError):
        ist.additive_from_multiplicative_check(3 * 10**7, 100)


def test_ladder_peak_allocation_is_one_segment(monkeypatch):
    # 13 passes, 2^14 windows a segment, over a union of 5 * 10^6
    # integers: the shared values hold a segment and a window, and each
    # suspended pass only the tail of its prefix, so the peak stays under
    # one int8 array of the union
    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT", 1 << 14)
    assert len(_ladder(10**6, 100)) == 13
    tracemalloc.start()
    try:
        ist.additive_from_multiplicative_check(10**6, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_variance_decreases_with_window_length():
    # trend over an h-ladder at fixed X (strict decrease at these sizes)
    X = 10**5
    vs = [ist.variance("liouville", ist.WindowSpec("multiplicative", X, h))
          for h in (30, 300, 3000)]
    assert vs[0] > vs[1] > vs[2]


# f as int8 (liouville, mobius) and float64 prefixes
STREAM_FNAMES = ["liouville", "mobius", "von_mangoldt_minus_one"]


# multiplicative windows per run X/h just below, at and just above
# _RUN_MIN: the gather side and the run side of the crossover
BELOW_RUN_MIN = (ist._RUN_MIN * 40 - 1, 40)
AT_RUN_MIN = (ist._RUN_MIN * 40, 40)
ABOVE_RUN_MIN = (ist._RUN_MIN * 40 + 1, 40)


@pytest.mark.parametrize("segment", [64, 1000])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
@pytest.mark.parametrize("X, h", [(50, 7), (2000, 1500), (3001, 40), (20000, 50),
                                  BELOW_RUN_MIN, ABOVE_RUN_MIN])
def test_streamed_window_statistics_are_segment_independent(segment, kind, X, h, monkeypatch):
    # X below, at and off a multiple of the segment; h = 1500 carries a
    # tail longer than the segment; (20000, 50) has runs of 400 windows of
    # one length, longer than one segment and across seams. The variance
    # of int8 f is fsum(T_l / l^2) / X over exact integer totals T_l;
    # float f keeps one exact sum of squared means
    spec = ist.WindowSpec(kind, X, h)
    taus = (0.02, 0.1, 0.3)
    top = 2 * X + h
    integer = {fname: ist._value_stream(fname, 1, top + 1)(1, top + 1)
               for fname in ("liouville", "mobius")}
    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT", segment)
    for fname in STREAM_FNAMES:
        want = oracles.one_shot_abs_window_means(ist, fname, spec)
        got = np.concatenate(list(ist._abs_window_means(fname, spec)))
        assert np.array_equal(got, want), fname
        if fname in integer:
            assert ist.variance(fname, spec) == oracles.integer_window_variance(
                np.concatenate(([0], integer[fname])), kind, X, h), fname
        else:
            assert ist.variance(fname, spec) == oracles.exact_sum(want * want) / X, fname
        assert ist.exceptional_fraction(fname, spec, taus) == [
            np.count_nonzero(want >= tau) / X for tau in taus], fname


@given(st.data(), st.sampled_from(["additive", "multiplicative"]),
       st.sampled_from(["liouville", "mobius"]), st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_integer_variance_within_two_ulp_of_exact(data, kind, fname, h):
    # three roundings (T_l / l^2, the fsum, / X); X up to 300 h reaches
    # both sides of _RUN_MIN = 256 windows per run
    X = data.draw(st.integers(min_value=h + 1, max_value=300 * h))
    top = 2 * X + h
    values = np.concatenate(([0], ist._value_stream(fname, 1, top + 1)(1, top + 1)))
    exact = oracles.exact_window_variance(values, kind, X, h)
    got = ist.variance(fname, ist.WindowSpec(kind, X, h))
    assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(float(exact)))


def test_square_sum_is_exact_near_the_span_bound():
    # |S| <= 2^26: 4096 squares near 2^52 overflow one int64 sum, so
    # _square_sum adds at most 2047 of them per int64
    sums = np.full(4096, 2**26 - 1, dtype=np.int32)
    sums[::3] *= -1
    sums[::7] -= 5
    want = sum(int(s) * int(s) for s in sums)
    assert want > 2**63
    assert ist._square_sum(sums, 2**26) == want
    assert ist._square_sum(sums[:5], 2**26) == sum(int(s) * int(s) for s in sums[:5])


@pytest.mark.parametrize("X, h", [(2**25, 2**25 - 1), (2**26 - 2**20 - 1, 2**20),
                                  (2**26 - 2**12 - 1, 2**12)])
def test_multiplicative_run_totals_fit_int64(X, h):
    # at the span bound X + h + 1 = 2^26, every window sum at its largest,
    # |S| = l: the totals of the runs of the longest windows, next to 2X,
    # stay below 4h(X + h) < 2^53
    assert X + h + 1 == arith_core.SPAN_BUDGET
    counts, lengths = ist._runs("multiplicative", X, h, 2 * X + 1 - 2**12, 2 * X + 1)
    sums = np.repeat(lengths, counts).astype(np.int32)
    got = np.add.reduceat(np.multiply(sums, sums, dtype=np.int64), np.cumsum(counts) - counts)
    want = [c * ell * ell for c, ell in zip(counts.tolist(), lengths.tolist())]
    assert got.tolist() == want
    assert max(want) <= 4 * h * (X + h) < 2**53


@pytest.mark.parametrize("entry", [
    lambda: ist.variance("liouville", ist.WindowSpec("multiplicative", 5000, 10)),
    lambda: ist.variance("mobius", ist.WindowSpec("additive", 5000, 10)),
    lambda: ist.variance("liouville", ist.WindowSpec("multiplicative", 5000, 100)),
    lambda: ist.exp_sum_avg(5000, 10, 0.37),
    lambda: entropy_chowla.log_chowla_sum(20000, 4.0),
])
def test_streamed_pass_builds_prime_powers_once(entry, monkeypatch):
    # one walk over the pass's span, not one per segment of 2^10
    calls = []
    prime_powers = arith_core._prime_powers

    def counted(base_primes, hi):
        calls.append(hi)
        return prime_powers(base_primes, hi)
    monkeypatch.setattr(arith_core, "_prime_powers", counted)
    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT", 1 << 10)
    entry()
    assert len(calls) == 1


@pytest.mark.parametrize("X, h", [(2, 1), (10, 3), (50, 7), (100, 60), (1001, 1000),
                                  (3001, 40), (20000, 50), (20000, 13), BELOW_RUN_MIN])
def test_run_table_matches_edges(X, h):
    # h > X/2, X a multiple of h or not: the lengths of the runs of _runs,
    # over all of (X, 2X] or cut at any seam, are stop - start of _edges
    xs = np.arange(X + 1, 2 * X + 1, dtype=np.int64)
    starts, stops = ist._edges(ist.WindowSpec("multiplicative", X, h), xs)
    for cut in sorted({X + 1, X + 2, (3 * X) // 2 + 1, 2 * X}):
        got = []
        for a, b in ((X + 1, cut), (cut, 2 * X + 1)):
            if a < b:
                counts, lengths = ist._runs("multiplicative", X, h, a, b)
                assert np.all(counts > 0) and np.all(np.diff(lengths) == 1)
                got.append(np.repeat(lengths, counts))
        assert np.array_equal(np.concatenate(got), stops - starts)
    counts, lengths = ist._runs("additive", X, h, X + 1, 2 * X + 1)
    assert counts.tolist() == [X] and lengths.tolist() == [h]


@pytest.mark.parametrize("segment", [7, 64])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
@pytest.mark.parametrize("X, h", [(20000, 50), (20000, 13), BELOW_RUN_MIN, AT_RUN_MIN,
                                  ABOVE_RUN_MIN])
def test_streamed_lengths_match_edges_across_seams(segment, kind, X, h, monkeypatch):
    # the lengths each segment yields, runs cut at its seams, are the
    # lengths of _edges; only passes below _RUN_MIN windows per run gather
    xs = np.arange(X + 1, 2 * X + 1, dtype=np.int64)
    starts, stops = ist._edges(ist.WindowSpec(kind, X, h), xs)
    calls, edges = [], ist._edges

    def counted_edges(spec, xs):
        calls.append(len(xs))
        return edges(spec, xs)
    monkeypatch.setattr(ist, "_edges", counted_edges)
    monkeypatch.setattr(arith_core, "DEFAULT_SEGMENT", segment)
    got = [np.repeat(lengths, counts) for sums, counts, lengths in ist._streamed_windows(
        functools.partial(ist._value_stream, "liouville"), kind, X, h)]
    assert np.array_equal(np.concatenate(got), stops - starts)
    assert bool(calls) == (kind == "multiplicative" and X < ist._RUN_MIN * h)


def test_streamed_peak_allocation_does_not_grow_with_x():
    # O(segment + h): one segment of 2^18 windows and a tail of one window
    # length, whatever X is
    spec = ist.WindowSpec("multiplicative", 4 * 10**6, 1000)
    tracemalloc.start()
    try:
        ist.variance("liouville", spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
