"""Experiment runner: every library surface behind one deterministic
command. Results are rows (experiment, parameters, value, envelope,
ratio, status) written as CSV or JSON; identical config and seed give
byte-identical files. Wall time goes to stderr only.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import (
    arith_core,
    dirichlet_poly,
    entropy_chowla,
    expsum_circle,
    interval_stats,
    mr_factorization,
    zeta_mellin,
)
from .util import BudgetError, PreconditionError, fsum

MERTENS = 0.2614972128476428
INV_ZETA2 = 0.6079271018540267

EXIT_PASS = 0
EXIT_ENVELOPE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


@dataclass
class ResultRow:
    experiment: str
    parameters: dict
    value: float
    envelope: float  # None for informational rows
    ratio: float     # None for informational rows
    status: str      # pass | fail | info


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (tuple, list)):
        return ",".join(_fmt(e) for e in v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return "%.12g" % x


def make_row(experiment, params, value, envelope=None, ratio=None, status=None):
    if envelope is not None and not 0 < envelope < math.inf:
        # a check against 0 or inf says nothing, so it is not scored
        raise PreconditionError("degenerate envelope %s for %s %s"
                                % (_fmt(envelope), experiment, _params_cell(params)))
    if envelope is not None and ratio is None:
        ratio = float(value) / envelope
    if status is None:
        if envelope is None:
            status = "info"
        else:
            status = "pass" if ratio <= 1.0 else "fail"
    return ResultRow(experiment, dict(params), value, envelope, ratio, status)


# ------------------------------------------------------ serialization

CSV_HEADER = ["experiment", "parameters", "value", "envelope", "ratio", "status"]


def _params_cell(params):
    return ";".join("%s=%s" % (k, _fmt(v)) for k, v in params.items())


def render_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow([r.experiment, _params_cell(r.parameters), _fmt(r.value),
                    _fmt(r.envelope), _fmt(r.ratio), r.status])
    return buf.getvalue()


def _json_scalar(v):
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (tuple, list)):
        return "[" + ", ".join(_json_scalar(e) for e in v) + "]"
    text = _fmt(v)
    # JSON numbers cannot hold inf/nan
    return json.dumps(text) if text in ("inf", "-inf", "nan") else text


def render_json(rows):
    out = ["["]
    for i, r in enumerate(rows):
        pcells = ", ".join('%s: %s' % (json.dumps(k), _json_scalar(v))
                           for k, v in r.parameters.items())
        line = ('  {"experiment": %s, "parameters": {%s}, "value": %s, '
                '"envelope": %s, "ratio": %s, "status": %s}'
                % (json.dumps(r.experiment), pcells, _json_scalar(r.value),
                   _json_scalar(r.envelope), _json_scalar(r.ratio),
                   json.dumps(r.status)))
        out.append(line + ("," if i + 1 < len(rows) else ""))
    out.append("]")
    return "\n".join(out) + "\n"


# ------------------------------------------------------ experiment handlers

def h_sieve_check(P):
    x = P["x"]
    rng = np.random.default_rng(P["seed"])
    t1 = arith_core.build_sieve(1, x + 1)
    t2 = arith_core.build_sieve(1, x + 1, segment_len=1 << 14)
    seg_mism = int(np.count_nonzero(t1.lam != t2.lam)
                   + np.count_nonzero(t1.mu != t2.mu)
                   + np.count_nonzero(t1.spf != t2.spf)
                   + np.count_nonzero(t1.omega != t2.omega))
    rows = [make_row("sieve-check", {**P, "check": "segment-independence"},
                     seg_mism, 0.5)]
    root = int(math.isqrt(x))
    mism = 0
    if root >= 3:
        ms = rng.integers(2, root + 1, size=2000)
        ns = rng.integers(2, root + 1, size=2000)
        mism = int(np.count_nonzero(t1.lam[ms * ns - 1] != t1.lam[ms - 1] * t1.lam[ns - 1]))
    rows.append(make_row("sieve-check", {**P, "check": "complete-multiplicativity"},
                         mism, 0.5))
    lam = t1.lam[1:]  # n = 2..x; n = 1 contributes +1
    s_direct = 1 + int(np.sum(lam, dtype=np.int64))
    s_fn = arith_core.summatory_lambda(x)
    rows.append(make_row("sieve-check", {**P, "check": "summatory-consistency"},
                         abs(s_direct - s_fn), 0.5))
    samples = rng.integers(2, x + 1, size=2000)
    # trial division by d^2 for d = 2 and every odd d <= sqrt(x), apart
    # from the sieve
    squarefree = samples % 4 != 0
    for d in range(3, root + 1, 2):
        squarefree &= samples % (d * d) != 0
    mu = t1.mu[samples - 1]  # t1 starts at n = 1
    bad = (int(np.count_nonzero((mu != 0) != squarefree))
           + int(np.count_nonzero((mu < -1) | (mu > 1))))
    rows.append(make_row("sieve-check", {**P, "check": "mobius-squarefree"},
                         bad, 0.5))
    return rows


def h_squarefree(P):
    x = P["x"]
    q = arith_core.squarefree_count(x)
    density = q / x
    dev = abs(density - INV_ZETA2)
    return [make_row("squarefree", P, density, 5e-4, ratio=dev / 5e-4)]


def _reciprocal_envelope(x, rec, loglog):
    """Bound on |rec - loglog - MERTENS| for rec the computed sum of 1/p
    over p <= x and loglog the computed log log x, x >= 2.

    Rosser and Schoenfeld (Illinois J. Math. 6, 1962, Theorem 5) give
    -1/(2 log^2 x) < sum_{p <= x} 1/p - log log x - B < 1/log^2 x for all
    x > 1, B the Mertens constant. Rounding: each 1/p is within eps/2
    relative and fsum rounds once, so rec is within eps rec of the sum;
    log x and its log are each within an ulp, so loglog is within
    eps (|loglog| + 2) of log log x; MERTENS is within eps/2 of B, and the
    two subtractions round once each, by at most eps/2 of their results,
    each below rec + |loglog| + 1."""
    rounding = 2 * rec + 2 * abs(loglog) + 4
    return 1.0 / math.log(x) ** 2 + rounding * float(np.finfo(np.float64).eps)


def h_tnp(P):
    x = P["x"]
    px, T, delta = P["perron_x"], P["perron_t"], P["perron_delta"]
    # the contour's grid and span are checked before the lambda-series sieves
    zeta_mellin.perron_nodes(px, T)
    rows = []
    res = zeta_mellin.z_lambda_residual(2.0, x)
    rows.append(make_row("tnp", {**P, "check": "lambda-series-vs-zeta-ratio"},
                         res, zeta_mellin.z_lambda_envelope(2.0, x)))
    psi, rec = arith_core.prime_sums(x)
    env = 2.0 / math.log(x)
    rows.append(make_row("tnp", {**P, "check": "weighted-prime-count"},
                         psi / x, env, ratio=abs(psi / x - 1.0) / env))
    loglog = math.log(math.log(x))
    env = _reciprocal_envelope(x, rec, loglog)
    rows.append(make_row("tnp", {**P, "check": "prime-reciprocal-sum"},
                         rec, env, ratio=abs(rec - loglog - MERTENS) / env))
    cutoff = zeta_mellin.SmoothCutoff(delta)
    pr = zeta_mellin.perron_truncated("liouville", px, cutoff, T)
    diff = abs(pr.smoothed_sum - pr.integral)
    rows.append(make_row("tnp", {**P, "check": "contour-vs-smoothed-sum"},
                         diff, pr.envelope))
    rows.append(make_row("tnp", {**P, "check": "contour-step-halving"},
                         pr.halving_delta, 1e-4))
    return rows


def _random_unimodular(rng, n):
    phases = rng.uniform(0.0, 1.0, size=n)
    return np.exp(2j * np.pi * phases)


def _relative(bound, value):
    """A certified error bound over |value| (|value| at least 1e-300)."""
    return bound / max(abs(value), 1e-300)


def h_mean_value(P):
    rng = np.random.default_rng(P["seed"])
    n, T, count = P["n"], P["t"], P["count"]
    rows = []
    for k in range(count):
        coeffs = dirichlet_poly.CoeffSeq(0, n, _random_unimodular(rng, n))
        mv = dirichlet_poly.mean_value_integral(coeffs, T)
        ssq = coeffs.sum_sq
        dev = abs(mv.value - T * ssq)
        rows.append(make_row("mean-value", {**P, "vector": k},
                             dev, 8.0 * n * ssq))
        rows.append(make_row("mean-value", {**P, "vector": k, "check": "quadrature-bound"},
                             _relative(mv.quadrature_bound, mv.value), 1e-3))
    return rows


def h_halasz(P):
    rng = np.random.default_rng(P["seed"])
    n, T, k = P["n"], P["t"], P["intervals"]
    coeffs = dirichlet_poly.CoeffSeq(0, n, _random_unimodular(rng, n))
    width = T / (20.0 * k)
    starts = np.sort(rng.uniform(0.0, T - width, size=k))
    ivs = []
    prev_end = 0.0
    for s in starts:
        s = max(float(s), prev_end)
        e = s + width
        if e > T:
            continue
        ivs.append((s, e))
        prev_end = e
    subset = dirichlet_poly.TSubset(tuple(ivs), T)
    hs = dirichlet_poly.halasz_subset_integral(coeffs, subset)
    rows = [make_row("halasz", P, hs.value, hs.bound),
            make_row("halasz", {**P, "check": "quadrature-bound"},
                     _relative(hs.quadrature_bound, hs.value), 1e-3)]
    return rows


def h_large_values(P):
    q, delta, T, gamma = P["q"], P["delta"], P["t"], P["gamma"]
    coeffs = dirichlet_poly.prime_band_coeffs(q, delta)
    rep = dirichlet_poly.large_value_measure(coeffs, T, gamma)
    return [make_row("large-values", P, rep.measure, rep.bound),
            make_row("large-values", {**P, "check": "threshold"},
                     rep.threshold, None)]


def h_factorization(P):
    X, delta, P0, Q0 = P["x"], P["delta"], P["p0"], P["q0"]
    w = mr_factorization.RamareWeight(X, delta, P0, Q0)
    u = mr_factorization.weight_array(w)
    rows = [make_row("factorization", {**P, "check": "weight-upper"},
                     float(u.max()), mr_factorization.weight_upper_envelope(w)),
            make_row("factorization", {**P, "check": "weight-lower"},
                     float(max(0.0, -u.min())), 0.5)]
    rep = mr_factorization.err_set(w)
    alpha = math.log(P0) / math.log(Q0)
    rows.append(make_row("factorization", {**P, "check": "err-density"},
                         rep.density, 3.0 * (alpha + delta)))
    t, nodes = P["t"], P["q_nodes"]
    # the same Q-breakpoints give the integral exactly, and their jumps bound
    # the midpoint rule at any node count
    ex = mr_factorization.factorization_identity_exact(w, t)
    r0 = mr_factorization.factorization_identity_residual(w, t, nodes)
    rows.append(make_row("factorization", {**P, "check": "residual", "nodes": nodes},
                         r0, mr_factorization.residual_envelope(w, ex, nodes)))
    rows.append(make_row("factorization", {**P, "check": "identity-exact"},
                         ex.residual, ex.envelope, ratio=ex.ratio))
    return rows


def h_variance(P):
    X = P["x"]
    # every window is checked against X before the first sieve runs
    specs = [interval_stats.WindowSpec(P["kind"], X, h) for h in P["h_list"]]
    rows = []
    # a mean of squared window means is at most max |f|^2 over the span:
    # 1 for lambda and mu, and |Lambda(n) - 1| <= max(1, log n - 1) up to
    # the last n the windows read
    prev = 1.0
    if P["fname"] == "von_mangoldt_minus_one":
        top = 2 * X + (specs[0].h if P["kind"] == "additive" else 0)
        prev = max(1.0, math.log(top) - 1.0) ** 2
    for spec, v in zip(specs, interval_stats.variances(P["fname"], specs)):
        rows.append(make_row("variance", {**P, "h": spec.h}, v, prev))
        prev = v
    return rows


def h_parseval_link(P):
    X, h, delta = P["x"], P["h"], P["delta"]
    # both window conditions are checked before the first sieve runs
    interval_stats.WindowSpec("multiplicative", X, h)
    interval_stats.WindowSpec("additive", P["x2"], P["h2"])
    rep = interval_stats.parseval_link(X, h, delta)
    rows = [make_row("parseval-link", P, rep.lhs, rep.envelope),
            make_row("parseval-link", {**P, "check": "quadrature-bound"},
                     _relative(rep.quadrature_bound, rep.integral), 1e-2)]
    av, abound = interval_stats.additive_from_multiplicative_check(P["x2"], P["h2"])
    rows.append(make_row("parseval-link",
                         {**P, "check": "additive-from-multiplicative"},
                         av, abound))
    return rows


def h_expsum(P):
    x, h = P["x"], P["h"]
    alpha = P["alpha"]
    rows = []
    avg = interval_stats.exp_sum_avg(x, h, alpha)
    env = 4.0 / math.log(h)
    rows.append(make_row("expsum", {**P, "check": "twisted-window-average"},
                         avg, env))
    vin = expsum_circle.vinogradov_sum(alpha, P["n"], P["xcap"])
    rows.append(make_row("expsum", {**P, "check": "capped-reciprocal-sum",
                                    "q": vin.q}, vin.value, vin.bound))
    val, bound = expsum_circle.geometric_sum_check(alpha, 1, P["n"])
    rows.append(make_row("expsum", {**P, "check": "geometric-sum"},
                         abs(val), bound))
    return rows


def h_arcs(P):
    h, eps, grid = P["h"], P["epsilon"], P["grid"]
    measure = expsum_circle.major_arc_measure(h, eps, grid)
    env = 20.0 / (eps**4 * h)
    rows = [make_row("arcs", {**P, "check": "large-phase-measure"}, measure, env)]
    fm = expsum_circle.fourth_moment_primes(h)
    scaled = fm * math.log(h) ** 4 / h**3
    rows.append(make_row("arcs", {**P, "check": "fourth-moment-scaled"},
                         scaled, 40.0))
    return rows


def h_characters(P):
    q = P["q"]
    table = expsum_circle.characters_mod(q)
    V = table.values
    phi = table.n_chars
    G = (V @ V.conj().T) / phi
    defect = float(np.max(np.abs(G - np.eye(phi))))
    rows = [make_row("characters", {**P, "check": "orthonormality"},
                     defect, 1e-12)]
    colsum = float(max(abs(V[i].sum()) for i in range(1, phi))) if phi > 1 else 0.0
    rows.append(make_row("characters", {**P, "check": "nonprincipal-sum"},
                         colsum, 1e-12))
    ns = np.arange(1, 3 * q + 1)
    got = expsum_circle.reconstruct_additive(expsum_circle.additive_to_multiplicative(q), ns)
    want = np.exp(2j * np.pi * (np.outer(np.arange(q), ns) % q / q))
    worst = float(np.max(np.abs(got - want)))
    rows.append(make_row("characters", {**P, "check": "divisor-bridge"},
                         worst, 1e-10))
    return rows


def h_chowla_avg(P):
    X, h = P["x"], P["h"]
    table, stat = expsum_circle.chowla_avg(X, h)
    rows = [make_row("chowla-avg", {**P, "check": "averaged-statistic"},
                     stat, 0.05),
            make_row("chowla-avg", {**P, "check": "single-shift"},
                     abs(int(table.c[0])) / X, 0.01)]
    return rows


def h_prime_shift(P):
    X, h = P["x"], P["h"]
    total, normalized = expsum_circle.prime_shift_correlation(X, h)
    env = 1.0 / math.log(h) ** (1.0 / 75.0)
    return [make_row("prime-shift", {**P, "exact": total},
                     abs(normalized), env)]


def h_goldbach(P):
    N = P["n"]
    count = expsum_circle.ternary_sum(N, weight="unit")
    closed = (N - 1) * (N - 2) // 2
    rows = [make_row("goldbach", {**P, "weight": "unit"},
                     count, 0.5, ratio=abs(count - closed) / 0.5)]
    s = expsum_circle.ternary_sum(N, weight="liouville")
    rows.append(make_row("goldbach", {**P, "weight": "liouville"},
                         abs(s), P["slack"] * closed))
    return rows


def h_entropy(P):
    x, w, H, eps = P["x"], P["w"], P["H"], P["epsilon"]
    entropy_chowla.check_residue_space(H, eps)  # the rows below read y_dense
    model = entropy_chowla.LogWeightedModel(x, w)
    joint = entropy_chowla.build_joint(model, H, eps)
    hx = entropy_chowla.entropy_x(joint)
    hy = entropy_chowla.entropy_y(joint)
    hxy = entropy_chowla.joint_entropy(joint)
    hx_y = entropy_chowla.conditional_entropy(joint)
    info = entropy_chowla.mutual_information(joint)
    rows = [make_row("entropy", {**P, "check": "mutual-information"},
                     info, max(hy, 1e-15)),
            make_row("entropy", {**P, "check": "information-nonnegative"},
                     max(0.0, -info), 1e-10),
            make_row("entropy", {**P, "check": "chain-rule"},
                     abs(hx_y - (hxy - hy)), 1e-10),
            make_row("entropy", {**P, "check": "information-identity"},
                     abs(hx_y - (hx - info)), 1e-10)]
    dev, env = entropy_chowla.y_uniformity(joint)
    rows.append(make_row("entropy", {**P, "check": "residue-uniformity"},
                         dev, env))
    ef = entropy_chowla.expectation_F(joint)
    eg = entropy_chowla.expectation_F_independent(joint, method="g")
    rows.append(make_row("entropy", {**P, "check": "pair-functional-gap"},
                         abs(ef - eg), 1.0))
    eu = entropy_chowla.expectation_F_independent(joint, method="uniform")
    rows.append(make_row("entropy", {**P, "check": "uniform-average-identity"},
                         abs(eg - eu), 1e-10))
    ydense = joint.y_dense()
    k = len(ydense)
    logk = math.log(k)
    hyd = entropy_chowla.entropy(ydense)
    delta = max(1.0 - hyd / logk, 1.0 / logk)
    worst = 0.0
    order = np.argsort(ydense)[::-1]
    for M in (1.5, 2.0, 3.0):
        cap = 1.0 - M * delta
        size = int(k**cap) if cap > 0 else 0
        if size < 1:
            continue
        E = order[:size]
        ok = entropy_chowla.concentration_check(ydense, E, M)
        pE = fsum(ydense[E])
        worst = max(worst, pE * M / 2.0)
        if not ok:
            rows.append(make_row("entropy", {**P, "check": "concentration", "M": M},
                                 pE, 2.0 / M, status="fail"))
    rows.append(make_row("entropy", {**P, "check": "concentration-worst"},
                         worst, 1.0))
    return rows


def h_log_chowla(P):
    x, w = P["x"], P["w"]
    value = entropy_chowla.log_chowla_sum(x, w)
    return [make_row("log-chowla", P, value, 0.1 * math.log(w),
                     ratio=abs(value) / (0.1 * math.log(w)))]


def h_decrement_trace(P):
    x, w, eps, H0, steps = P["x"], P["w"], P["epsilon"], P["H0"], P["steps"]
    trace = entropy_chowla.decrement_trace(x, w, eps, H0, steps)
    rows = []
    log2 = math.log(2.0)
    for h, rate, irate in trace.steps:
        rows.append(make_row("decrement-trace", {**P, "h": h, "kind": "entropy-rate"},
                             rate, log2))
        if h > entropy_chowla.E_CUBE:
            env = 1.0 / (math.log(h) * math.log(math.log(math.log(h))))
            rows.append(make_row("decrement-trace",
                                 {**P, "h": h, "kind": "information-rate"},
                                 irate, env))
        else:
            rows.append(make_row("decrement-trace",
                                 {**P, "h": h, "kind": "information-rate"},
                                 irate, None))
    rows.append(make_row("decrement-trace", {**P, "kind": "witness-step"},
                         trace.witness_step, None))
    rows.append(make_row("decrement-trace", {**P, "kind": "budget-exhausted"},
                         1 if trace.exhausted else 0, None))
    return rows


# ------------------------------------------------------ registry

# A domain is (text, test). Numeric tests bound the value by inf on both
# sides, so nan and +-inf lie outside every numeric domain.

def _at_least(lo):
    return ("[%s, inf)" % _fmt(lo), lambda v: lo <= v < math.inf)


def _above(lo):
    return ("(%s, inf)" % _fmt(lo), lambda v: lo < v < math.inf)


def _between(lo, hi):
    return ("(%s, %s)" % (_fmt(lo), _fmt(hi)), lambda v: lo < v < hi)


def _one_of(*choices):
    return ("{%s}" % ", ".join(choices), lambda v: v in choices)


FINITE = ("(-inf, inf)", lambda v: -math.inf < v < math.inf)
ASCENDING = ("ascending lists in [1, inf)", lambda v: 1 <= v[0] and list(v) == sorted(v))

# name -> (handler, {param: (kind, default, domain)}, anchor). Conditions that
# join several parameters (P0 < Q0 < X, h < X, w <= x) stay with the library
# objects the handlers build first.
EXPERIMENTS = {
    "sieve-check": (h_sieve_check, {"x": (int, 200000, _at_least(2))},
                    "segmented factorization sieve against direct division"),
    "squarefree": (h_squarefree, {"x": (int, 10**7, _at_least(1))},
                   "density of square-free integers against 6/pi^2"),
    "tnp": (h_tnp, {"x": (int, 10**6, _at_least(2)),
                    "perron_x": (int, 2000, _above(2)),
                    "perron_t": (float, 400.0, _above(0)),
                    "perron_delta": (float, 0.1, _between(0, 0.5))},
            "prime counting, reciprocal sums, and the smoothed contour route"),
    "mean-value": (h_mean_value, {"n": (int, 300, _at_least(1)),
                                  "t": (float, 500.0, _above(0)),
                                  "count": (int, 3, _at_least(1))},
                   "mean square of a Dirichlet polynomial over a t-segment"),
    "halasz": (h_halasz, {"n": (int, 300, _at_least(1)), "t": (float, 500.0, _above(0)),
                          "intervals": (int, 4, _at_least(1))},
               "mean square over a sparse union of t-intervals"),
    "large-values": (h_large_values, {"q": (int, 100, _at_least(2)),
                                      "delta": (float, 1.0, _above(0)),
                                      "t": (float, 300.0, _above(0)),
                                      "gamma": (float, 1.0 / 9, FINITE)},
                     "measure where a prime-band polynomial runs large"),
    "factorization": (h_factorization, {"x": (int, 10**4, _at_least(4)),
                                        "delta": (float, 0.1, _between(0, 1)),
                                        "p0": (int, 10, _at_least(2)),
                                        "q0": (int, 100, _at_least(3)),
                                        "t": (float, 0.7, FINITE),
                                        "q_nodes": (int, 64, _at_least(16))},
                      "two-factor weight, its exceptional set, and series identity"),
    "variance": (h_variance, {"x": (int, 10**6, _at_least(2)),
                              "h_list": ("intlist", (100, 1000, 10000), ASCENDING),
                              "kind": (str, "multiplicative",
                                       _one_of("additive", "multiplicative")),
                              "fname": (str, "liouville",
                                        _one_of("liouville", "mobius",
                                                "von_mangoldt_minus_one"))},
                 "variance of short-window sign averages, decreasing in h"),
    "parseval-link": (h_parseval_link, {"x": (int, 10**4, _at_least(2)),
                                        "h": (int, 50, _at_least(1)),
                                        "delta": (float, 0.5, _above(0)),
                                        "x2": (int, 10**4, _at_least(2)),
                                        "h2": (int, 100, _at_least(1))},
                      "window variance bounded by the squared series on a line"),
    "expsum": (h_expsum, {"x": (int, 10**4, _at_least(1)), "h": (int, 100, _at_least(2)),
                          "alpha": (float, 0.6180339887498949, FINITE),
                          "n": (int, 1000, _at_least(1)),
                          "xcap": (float, 500.0, _above(0))},
               "twisted window averages and capped reciprocal sums"),
    "arcs": (h_arcs, {"h": (int, 10**4, _at_least(2)),
                      "epsilon": (float, 0.5, _above(0)),
                      "grid": (int, 10**4, _at_least(1000))},
             "concentration of the prime phase sum near rationals"),
    "characters": (h_characters, {"q": (int, 24, _at_least(1))},
                   "unit-group characters and the divisor bridge from phases"),
    "chowla-avg": (h_chowla_avg, {"x": (int, 10**5, _at_least(2)),
                                  "h": (int, 50, _at_least(1))},
                   "shift-averaged pair correlation statistic"),
    "prime-shift": (h_prime_shift, {"x": (int, 10**4, _at_least(1)),
                                    "h": (int, 100, _at_least(2))},
                    "pair correlations averaged over prime shifts"),
    "goldbach": (h_goldbach, {"n": (int, 10**4, _at_least(3)),
                              "slack": (float, 0.5, _above(0))},
                 "ternary convolution counts with sign weights"),
    "entropy": (h_entropy, {"x": (int, 10**6, _at_least(1)), "w": (float, 10**3, _above(1)),
                            "H": (int, 10, _at_least(1)),
                            "epsilon": (float, 1.0, _above(0))},
                "joint sign/residue law: identities, uniformity, concentration"),
    "log-chowla": (h_log_chowla, {"x": (int, 10**6, _at_least(1)),
                                  "w": (float, 10**3, _above(1))},
                   "logarithmically weighted consecutive-sign sum"),
    "decrement-trace": (h_decrement_trace, {"x": (int, 10**6, _at_least(1)),
                                            "w": (float, 10**3, _above(1)),
                                            "epsilon": (float, 1.0, _above(0)),
                                            "H0": (int, 8, _at_least(2)),
                                            "steps": (int, 2, _at_least(1))},
                        "entropy and information rates along block growth"),
}

# every experiment also takes the seed, as a flag or a config key
SEED = {"seed": (int, 0, _at_least(0))}


def _convert(kind, text):
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if kind is str:
        return text
    if kind == "intlist":
        return tuple(int(v) for v in str(text).split(","))
    raise ValueError("unknown parameter kind %r" % (kind,))


def _read_config(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("config line %r is not key=value" % line)
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


@functools.cache
def build_parser():
    """The one parser of the process: EXPERIMENTS' names and flags are
    static, and main looks each handler up when it runs."""
    ap = argparse.ArgumentParser(
        prog="liouville-lab",
        description="Deterministic desk-scale experiments over sign statistics.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", default=None, help="result file (default stdout)")
    common.add_argument("--config", default=None, help="key=value defaults file")
    common.add_argument("--seed", type=int, default=None,
                        help="default 0, domain %s" % SEED["seed"][2][0])
    sub = ap.add_subparsers(dest="experiment")
    for name, (_, params, anchor) in EXPERIMENTS.items():
        p = sub.add_parser(name, parents=[common], help=anchor)
        for pname, (kind, default, (text, _)) in params.items():
            flag = "--" + pname.lower().replace("_", "-")
            p.add_argument(flag, dest=pname, default=None,
                           help="default %s, domain %s" % (_fmt(default), text))
    sub.add_parser("list", parents=[common], help="catalog of experiments")
    return ap


def resolve_params(args, spec):
    """Flag over config over registry default. Every value, defaults
    included, must lie in its declared domain, and every config key must
    name a parameter or the seed; anything else raises ValueError."""
    spec = {**spec, **SEED}
    cfg = _read_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(spec))
    if unknown:
        raise ValueError("unknown config key %s" % ", ".join(unknown))
    params = {}
    for pname, (kind, default, (text, test)) in spec.items():
        given = getattr(args, pname, None)
        if given is None:
            given = cfg.get(pname)
        value = default if given is None else _convert(kind, given)
        if not test(value):
            raise ValueError("%s = %s is outside %s" % (pname, _fmt(value), text))
        params[pname] = value
    return params


def list_experiments():
    lines = ["experiment | anchor | defaults"]
    for name, (_, params, anchor) in EXPERIMENTS.items():
        defaults = " ".join("%s=%s" % (k, _fmt(v)) for k, (_, v, _) in params.items())
        lines.append("%s | %s | %s" % (name, anchor, defaults))
    return "\n".join(lines) + "\n"


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.experiment is None:
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.experiment == "list":
        sys.stdout.write(list_experiments())
        return EXIT_PASS
    handler, spec, _ = EXPERIMENTS[args.experiment]
    try:
        params = resolve_params(args, spec)
    except (ValueError, OSError) as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    t0 = time.perf_counter()
    try:
        rows = handler(params)
    except (BudgetError, MemoryError, OverflowError) as exc:
        sys.stderr.write("resource error: %s\n" % exc)
        return EXIT_RESOURCE
    except PreconditionError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    except Exception as exc:  # a crash is not an envelope failure
        import traceback  # imported only when a run crashes
        traceback.print_exc()
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return EXIT_INTERNAL
    wall = time.perf_counter() - t0
    text = render_csv(rows) if args.format == "csv" else render_json(rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write("# wall %.3fs\n" % wall)
    return EXIT_ENVELOPE if any(r.status == "fail" for r in rows) else EXIT_PASS
