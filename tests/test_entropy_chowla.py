"""Entropy toolbox, sign-pattern joints, weighted pair sums, decrement trace."""

import math
import tracemalloc

import numpy as np
import pytest

from liouville_lab import entropy_chowla as ent
from liouville_lab.util import BudgetError, PreconditionError

import oracles


def small_model():
    return ent.LogWeightedModel(200, 4)


# ------------------------------------------------------ model and band

def test_log_weighted_model_support():
    m = ent.LogWeightedModel(200, 4)
    assert (m.lo, m.n_count) == (51, 150)
    assert m.L == pytest.approx(math.fsum(1.0 / n for n in range(51, 201)), rel=1e-14)
    m2 = ent.LogWeightedModel(100, 3.0)  # non-integer ratio, floor + 1
    assert m2.lo == 34
    with pytest.raises(ValueError):
        ent.LogWeightedModel(100, 0.5)
    with pytest.raises(ValueError):
        ent.LogWeightedModel(100, 101)


def test_band_primes_half_open():
    assert list(ent.band_primes(10, 1.0)) == [7]
    assert list(ent.band_primes(10, 0.5)) == [3, 5]
    assert list(ent.band_primes(3, 0.5)) == []
    # right endpoint included, left excluded
    assert list(ent.band_primes(7, 1.0)) == [5, 7]


# ------------------------------------------------------ entropy basics

def test_entropy_uniform_and_errors():
    assert ent.entropy(np.full(16, 1 / 16)) == pytest.approx(math.log(16), rel=1e-14)
    assert ent.entropy([0.5, 0.5, 0.0]) == pytest.approx(math.log(2), rel=1e-14)
    with pytest.raises(ValueError):
        ent.entropy([0.7, 0.2])
    with pytest.raises(ValueError):
        ent.entropy([1.2, -0.2])


def test_entropy_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = rng.dirichlet(np.ones(40))
        assert ent.entropy(m) == pytest.approx(oracles.entropy_nats(m), rel=1e-12)


# ------------------------------------------------------ joint law

def brute_joint(x, w, H, epsilon):
    """Dict (bits, y) -> mass via the scalar trial-division oracle."""
    m = ent.LogWeightedModel(x, w)
    primes = [int(p) for p in ent.band_primes(H, epsilon)]
    table = {}
    for n in range(m.lo, m.x + 1):
        bits = 0
        for j in range(1, H + 1):
            if oracles.liouville(n + j) < 0:
                bits |= 1 << (j - 1)
        y, radix = 0, 1
        for p in primes:
            y += radix * (n % p)
            radix *= p
        table[(bits, y)] = table.get((bits, y), 0.0) + 1.0 / n
    tot = math.fsum(table.values())
    return {k: v / tot for k, v in table.items()}, primes


def test_build_joint_matches_brute_force():
    joint = ent.build_joint(small_model(), 4, 1.0)
    want, primes = brute_joint(200, 4, 4, 1.0)
    assert list(joint.primes) == primes
    assert joint.omega == 3
    got = {(int(k) // joint.omega, int(k) % joint.omega): float(v)
           for k, v in zip(joint.keys, joint.masses)}
    assert set(got) == set(want)
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-12)
    assert math.fsum(joint.masses) == pytest.approx(1.0, abs=1e-12)


def test_joint_marginals_and_decode():
    # against the brute-force joint: (20, 2, 20) has 10 integers against
    # omega = 11 13 17 19, so most residues carry no mass, and at epsilon 16
    # omega = 37 41 43 47 53 59 61, about 5.8e11: a dense residue marginal
    # would not fit in memory, so its entropy comes from the sparse one
    for x, w, H, eps in ((200, 4, 4, 1.0), (20, 2, 20, 1.0), (20, 2, 4, 16.0)):
        joint = ent.build_joint(ent.LogWeightedModel(x, w), H, eps)
        want, primes = brute_joint(x, w, H, eps)
        assert joint.omega == math.prod(primes)
        want_x, want_y = {}, {}
        for (bits, y), mass in want.items():
            want_x[bits] = want_x.get(bits, 0.0) + mass
            want_y[y] = want_y.get(y, 0.0) + mass
        for (got, masses), marginal in ((joint.x_marginal, want_x), (joint.y_marginal, want_y)):
            assert got.tolist() == sorted(marginal)
            assert masses == pytest.approx([marginal[k] for k in sorted(marginal)], rel=1e-12)
        assert ent.entropy_y(joint) == pytest.approx(
            oracles.entropy_nats(want_y.values()), rel=1e-12)
        if joint.omega < 10**6:
            dense = np.zeros(joint.omega)
            dense[list(want_y)] = list(want_y.values())
            assert joint.y_dense() == pytest.approx(dense, rel=1e-12, abs=0.0)
    assert joint.y_residues(37 + 37 * 41 * 5) == [0, 1, 5, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        ent.build_joint(small_model(), 0, 1.0)


def test_entropy_identities_on_joint():
    joint = ent.build_joint(small_model(), 5, 1.0)
    Hx, Hy, Hxy = ent.entropy_x(joint), ent.entropy_y(joint), ent.joint_entropy(joint)
    mi = ent.mutual_information(joint)
    assert mi == pytest.approx(Hx + Hy - Hxy, abs=1e-12)
    assert mi >= -1e-10
    assert Hxy <= Hx + Hy + 1e-12
    cond = ent.conditional_entropy(joint)
    assert cond == pytest.approx(Hxy - Hy, abs=1e-10)
    assert cond <= Hx + 1e-12


def test_joint_entropies_match_oracle_table():
    joint = ent.build_joint(small_model(), 4, 1.0)
    nx = 2**4
    table = [[0.0] * joint.omega for _ in range(nx)]
    for k, v in zip(joint.keys, joint.masses):
        table[int(k) // joint.omega][int(k) % joint.omega] += float(v)
    assert ent.joint_entropy(joint) == pytest.approx(oracles.joint_entropy_table(table), rel=1e-12)
    assert ent.mutual_information(joint) == pytest.approx(
        oracles.mutual_information_table(table), abs=1e-12)


def test_joint_frozen_reference_point():
    joint = ent.build_joint(ent.LogWeightedModel(10**6, 10**3), 10, 1.0)
    assert joint.primes == (7,)
    assert len(joint.keys) == 7168
    assert ent.entropy_x(joint) == pytest.approx(6.92147546500381, rel=1e-12)
    assert ent.entropy_y(joint) == pytest.approx(1.94591010715652, rel=1e-12)
    assert ent.joint_entropy(joint) == pytest.approx(8.81091624760576, rel=1e-12)
    assert ent.mutual_information(joint) == pytest.approx(0.056469324554568, rel=1e-9)
    dev, slack = ent.y_uniformity(joint)
    assert dev == pytest.approx(6.21084975802044e-05, rel=1e-9)
    assert slack == pytest.approx(0.01)
    assert dev <= slack


def test_build_joint_key_budget():
    with pytest.raises(BudgetError):
        ent.build_joint(ent.LogWeightedModel(10**6, 10), 62, 1.0)


# the dense route (2^H omega no larger than the support) and the sort route,
# each on one chunk and on two (3e6 - 3e3 integers against chunks of 2^21),
# and omega ~ 5.8e11, whose residue index is too long a period to tile. Keys
# wider than 63 bits less the positions' take two sorts: H = 32 (omega =
# 6,678,671, 55-bit keys) over 999,000 integers, and 59-bit keys (omega ~
# 3.0e11) over 1,800
@pytest.mark.parametrize("x, w, H, eps, dense", [
    (10**6, 10**3, 8, 1.0, True), (10**6, 10**3, 10, 1.0, True),
    (10**6, 10**3, 16, 1.0, False), (3 * 10**6, 10**3, 8, 1.0, True),
    (3 * 10**6, 10**3, 16, 1.0, False), (20, 2, 4, 16.0, False),
    (10**6, 10**3, 32, 1.0, False), (2000, 10, 20, 3.0, False)])
def test_build_joint_matches_sort_twice_oracle(x, w, H, eps, dense):
    model = ent.LogWeightedModel(x, w)
    joint = ent.build_joint(model, H, eps)
    assert ((joint.omega << H) <= model.n_count) == dense
    lam = ent.arith_core.liouville_range(model.lo + 1, x + H + 1)
    keys, masses = oracles.sort_twice_joint(lam, model.lo, x, H, list(joint.primes))
    assert np.array_equal(joint.keys, keys)
    assert np.array_equal(joint.masses, masses)
    for got, values in ((joint.x_marginal, keys // joint.omega),
                        (joint.y_marginal, keys % joint.omega)):
        want = oracles.sort_marginal(values, masses)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("width, count", [(1, 1), (8, 5000), (40, 3000), (43, 1 << 19),
                                          (44, 1 << 19), (62, 3000), (62, 1 << 20)])
def test_sorted_runs_match_unique(width, count):
    # one sort while width plus the positions' bits (20 for 2^19) fit 63,
    # two past that; repeats of each key, so runs of several positions
    rng = np.random.default_rng(width)
    pool = rng.integers(0, 1 << width, size=max(count // 3, 1), dtype=np.int64)
    keys = rng.choice(pool, size=count)
    wts = rng.random(count)
    uniq, order, run = ent._sorted_runs(keys, width)
    want, masses = oracles.sort_marginal(keys, wts)
    assert np.array_equal(uniq, want)
    assert np.array_equal(np.bincount(run, weights=wts[order]), masses)


def test_pack_signs_doubling_matches_bit_loop():
    lam = np.random.default_rng(5).choice(np.array([-1, 1], dtype=np.int8), size=200)
    for H in range(1, 33):
        for start, count in ((1, 100), (3, 120), (17, 150)):
            got = ent._pack_signs(lam, start, count, H)
            assert got.dtype == np.int64
            assert np.array_equal(got, oracles.loop_pack_signs(lam, start, count, H)), (H, start)


def test_build_joint_peak_allocation():
    # the dense route holds the key space and one chunk's arrays
    model = ent.LogWeightedModel(10**6, 10**3)
    tracemalloc.start()
    try:
        ent.build_joint(model, 8, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


# ------------------------------------------------------ F functional

def brute_F(xs, res, primes, H):
    total = 0
    for p, r in zip(primes, res):
        for j in range(1, H - p + 1):
            if (r + j) % p == 0:
                total += xs[j - 1] * xs[j + p - 1]
    return total


def test_expectation_F_matches_direct_sum():
    joint = ent.build_joint(small_model(), 6, 1.0)
    H, eps = joint.H, 1.0
    direct = 0.0
    for k, m in zip(joint.keys, joint.masses):
        bits = int(k) // joint.omega
        xs = [1 - 2 * ((bits >> (j - 1)) & 1) for j in range(1, H + 1)]
        res = joint.y_residues(int(k) % joint.omega)
        direct += float(m) * brute_F(xs, res, list(joint.primes), H)
    assert ent.expectation_F(joint) == pytest.approx(direct, abs=1e-12)


def test_expectation_F_independent_methods_agree():
    joint = ent.build_joint(small_model(), 6, 1.0)
    g = ent.expectation_F_independent(joint, "g")
    uni = ent.expectation_F_independent(joint, "uniform")
    assert g == pytest.approx(uni, abs=1e-12)
    with pytest.raises(ValueError):
        ent.expectation_F_independent(joint, "typo")


@pytest.mark.parametrize("H", range(4, 11))
def test_uniform_average_matches_loop(H):
    joint = ent.build_joint(ent.LogWeightedModel(3000, 10), H, 1.0)
    assert ent.expectation_F_independent(joint, "uniform") == oracles.loop_uniform_average(joint)


def test_expectation_F_frozen_reference_point():
    joint = ent.build_joint(ent.LogWeightedModel(10**6, 10**3), 10, 1.0)
    assert ent.expectation_F(joint) == pytest.approx(0.00298563321965799, rel=1e-9)
    assert ent.expectation_F_independent(joint, "g") == pytest.approx(
        -0.000274570268574328, rel=1e-9)


# ------------------------------------------------------ weighted pair sums

def test_log_chowla_sum_direct():
    x, w = 300, 3
    direct = math.fsum(
        oracles.liouville(n) * oracles.liouville(n + 1) / n for n in range(101, 301))
    assert ent.log_chowla_sum(x, w) == pytest.approx(direct, rel=1e-12)
    assert ent.log_chowla_sum(100, 1) == 0.0
    with pytest.raises(ValueError):
        ent.log_chowla_sum(100, 200)


@pytest.mark.parametrize("segment", [64, 1000])
@pytest.mark.parametrize("x, w", [(3000, 3), (3001, 2.5), (2000, 1000)])
def test_log_chowla_sum_is_segment_independent(segment, x, w, monkeypatch):
    # every term +-1/n is the same double on both sides, and both sums are
    # exactly rounded
    monkeypatch.setattr(ent.arith_core, "DEFAULT_SEGMENT", segment)
    lo = math.floor(x / w) + 1
    want = math.fsum(oracles.liouville(n) * oracles.liouville(n + 1) / n
                     for n in range(lo, x + 1))
    assert ent.log_chowla_sum(x, w) == want


def test_log_chowla_peak_allocation_does_not_grow_with_x():
    tracemalloc.start()
    try:
        ent.log_chowla_sum(4 * 10**6, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_log_chowla_frozen():
    got = ent.log_chowla_sum(10**6, 10**3)
    assert got == pytest.approx(0.00885880668562914, rel=1e-12)
    assert abs(got) <= 0.1 * math.log(10**3)


def test_band_divisor_sum_direct():
    x, w, K0, K1 = 400, 4, 3, 10
    lo = 101
    direct = 0.0
    for p in (5, 7):
        direct += math.fsum(
            oracles.liouville(n) * oracles.liouville(n + p) / n
            for n in range(lo, x + 1) if n % p == 0)
    assert ent.band_divisor_sum(x, w, K0, K1) == pytest.approx(direct, rel=1e-12)
    assert ent.band_divisor_sum(400, 4, 13, 16) == 0.0
    assert ent.band_divisor_sum(400, 4, 2, 1) == 0.0


def test_suma_esperanza_residual_frozen_and_guards():
    got = ent.suma_esperanza_residual(10**6, 10**2, 10, 1)
    assert got == pytest.approx(0.00228617970395249, rel=1e-9)
    assert got <= 20.0 * 1.0 * math.log(10**2) / math.log(10)
    with pytest.raises(ValueError):
        ent.suma_esperanza_residual(10**4, 10**3, 20, 1)  # H > x/w
    with pytest.raises(ValueError):
        ent.suma_esperanza_residual(10**6, 10**2, 10, 0.25)  # below 1/sqrt(H)


def test_divisibility_trick_residual_consistency():
    x, w, K0, K1 = 10**5, 10**2, 10, 100
    got = ent.divisibility_trick_residual(x, w, K0, K1)
    plist = [p for p in range(11, 101) if oracles.is_prime(p)]
    ell = math.fsum(1.0 / p for p in plist)
    want = abs(ent.log_chowla_sum(x, w) - ent.band_divisor_sum(x, w, K0, K1) / ell)
    assert got == pytest.approx(want, rel=1e-12)
    assert got <= 5.0 * math.log(K1) / ell
    with pytest.raises(PreconditionError):
        ent.divisibility_trick_residual(x, w, 13, 16)


# ------------------------------------------------------ tail and concentration

def test_hoeffding_frozen_and_deterministic():
    emp, bound = ent.hoeffding_tail_check(100, 1, 10, 10**4)
    assert emp == 0.0808
    assert bound == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)
    emp2, _ = ent.hoeffding_tail_check(100, 1, 10, 10**4)
    assert emp2 == emp


def test_hoeffding_extremes():
    emp, bound = ent.hoeffding_tail_check(20, 1, 0.0, 10**3)
    assert emp == 1.0 and bound == 2.0
    emp, _ = ent.hoeffding_tail_check(20, 1, 25.0, 10**3)  # s > nC is unreachable
    assert emp == 0.0
    with pytest.raises(ValueError):
        ent.hoeffding_tail_check(10, 1, 1, 999)


def test_concentration_uniform_and_structured():
    assert ent.concentration_check(np.full(64, 1 / 64), [3], 4) is True
    # the heaviest event of the cap at delta = 0.15, under that entropy
    # floor, still obeys 2/M: the check's own delta, 1/log k < 0.15 here,
    # admits it
    k, M, delta = 1024, 3, 0.15
    cap = int(k ** (1 - M * delta))
    m = np.full(k, 0.5 / (k - cap))
    m[:cap] = 0.5 / cap
    assert ent.entropy(m) >= (1 - delta) * math.log(k)
    assert ent.concentration_check(m, list(range(cap)), M) is True


def test_concentration_precondition_paths():
    uni = np.full(16, 1 / 16)
    with pytest.raises(PreconditionError):
        ent.concentration_check(uni[:1], [0], 4)
    with pytest.raises(PreconditionError):
        ent.concentration_check(uni, [0], 0)
    point = np.zeros(16)
    point[0] = 1.0
    with pytest.raises(PreconditionError):
        ent.concentration_check(point, [0], 2)  # no entropy: delta = 1, no event fits
    with pytest.raises(PreconditionError):
        ent.concentration_check(uni, [99], 4)
    with pytest.raises(PreconditionError):
        ent.concentration_check(uni, list(range(12)), 8)  # event above size cap


# ------------------------------------------------------ decrement trace

def test_next_block_length_clamp_and_growth():
    assert ent._next_block_length(8) == 16
    assert ent._next_block_length(20) == 40  # floor multiplier still below 2 here
    assert ent._next_block_length(40) == 120
    # once log log log h is positive the multiplier follows the floor rule
    mult = math.floor(4.0 * math.log(100) * math.log(math.log(math.log(100))))
    assert ent._next_block_length(100) == mult * 100 == 700


def test_decrement_trace_small_model():
    tr = ent.decrement_trace(2000, 10, 1.0, 8, 50)
    assert [h for h, _, _ in tr.steps] == [8, 16, 32]
    assert tr.exhausted is True
    assert tr.witness_step == 1
    for h, hrate, irate in tr.steps:
        assert 0.0 <= hrate <= math.log(2) + 1e-12
        assert irate >= -1e-10
    h16 = tr.steps[1]
    thr = 1.0 / (math.log(16) * math.log(math.log(math.log(16))))
    assert h16[2] <= thr
    tr2 = ent.decrement_trace(2000, 10, 1.0, 8, 50)
    assert tr2.steps == tr.steps
    with pytest.raises(ValueError):
        ent.decrement_trace(2000, 10, 1.0, 1, 5)


def test_decrement_trace_sieves_once(monkeypatch):
    # one walk of lambda to x + 32 serves the joints at h = 8, 16 and 32,
    # each equal to the joint that sieves its own span
    walks = []
    walk = ent.arith_core._walk

    def counted(lo, hi, *args, **kwargs):
        walks.append((lo, hi))
        return walk(lo, hi, *args, **kwargs)
    monkeypatch.setattr(ent.arith_core, "_walk", counted)
    tr = ent.decrement_trace(2000, 10, 1.0, 8, 50)
    assert walks == [(202, 2033)]  # lambda(n) for x/w + 1 < n <= x + 32
    model = ent.LogWeightedModel(2000, 10)
    for h, hrate, irate in tr.steps:
        joint = ent.build_joint(model, h, 1.0)
        assert (hrate, irate) == (ent.entropy_x(joint) / h, ent.mutual_information(joint) / h)


def test_decrement_trace_stops_on_key_budget():
    # at epsilon 8, h = 8 takes the primes in (32, 64] (omega about 5.8e11)
    # and h = 16 those in (64, 128], whose 2^16 omega keys pass KEY_BUDGET:
    # the trace stops where build_joint would refuse
    tr = ent.decrement_trace(2000, 10, 8.0, 8, 5)
    assert [h for h, _, _ in tr.steps] == [8]
    assert tr.exhausted is True
    with pytest.raises(BudgetError):
        ent.build_joint(ent.LogWeightedModel(2000, 10), 16, 8.0)


def test_decrement_trace_respects_max_steps():
    tr = ent.decrement_trace(2000, 10, 1.0, 8, 2)
    assert len(tr.steps) == 2
    assert tr.exhausted is False


def test_divergence_sequence_frozen():
    J, partial = ent.divergence_sequence(15, 0.3)
    assert J == 2
    assert math.log(J) <= 10.0 * math.log2(15) ** 2
    assert partial[0] == 0.0  # h_1 = 15 sits below the triple-log floor
    want = 1.0 / (math.log(30) * math.log(math.log(math.log(30))))
    assert partial[1] == pytest.approx(want, rel=1e-12)
    assert partial == sorted(partial)


def test_divergence_sequence_guards():
    with pytest.raises(ValueError):
        ent.divergence_sequence(14)
    with pytest.raises(BudgetError):
        ent.divergence_sequence(15, target=100.0, max_steps=5)


# ------------------------------------------------------ block shift and TV

def test_sign_block_distribution_matches_x_marginal():
    model = small_model()
    dense = ent.sign_block_distribution(model, 4, offset=0)
    joint = ent.build_joint(model, 4, 1.0)
    xs, xm = joint.x_marginal
    want = np.zeros(16)
    want[xs.astype(int)] = xm
    assert np.max(np.abs(dense - want)) <= 1e-15
    assert math.fsum(dense) == pytest.approx(1.0, abs=1e-12)


def test_sign_block_distribution_offset_brute():
    model = ent.LogWeightedModel(60, 3)
    H, off = 3, 2
    dense = ent.sign_block_distribution(model, H, offset=off)
    table = {}
    for n in range(model.lo, 61):
        bits = 0
        for j in range(1, H + 1):
            if oracles.liouville(n + off + j) < 0:
                bits |= 1 << (j - 1)
        table[bits] = table.get(bits, 0.0) + 1.0 / n
    tot = math.fsum(table.values())
    for b in range(2**H):
        assert dense[b] == pytest.approx(table.get(b, 0.0) / tot, abs=1e-14)
    with pytest.raises(BudgetError):
        ent.sign_block_distribution(model, 25)
