"""Command-line harness: formats, determinism, exit codes, config handling."""

import csv
import io
import json
import math

import numpy as np
import pytest

from liouville_lab import arith_core, cli, dirichlet_poly, expsum_circle, mr_factorization, zeta_mellin


def run(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == cli.CSV_HEADER
    return rows[1:]


# ------------------------------------------------------ catalog and usage

def test_list_catalog(capsys):
    rc, out, err = run(["list"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("experiment | anchor | defaults")
    names = {ln.split(" | ")[0] for ln in lines[1:]}
    assert len(names) >= 15
    for required in ("sieve-check", "mean-value", "variance", "factorization",
                     "arcs", "characters", "entropy", "log-chowla",
                     "decrement-trace", "goldbach"):
        assert required in names
    rc2, out2, _ = run(["list"], capsys)
    assert out2 == out


def test_no_subcommand_is_usage_error(capsys):
    rc, out, err = run([], capsys)
    assert rc == 2
    assert out == ""
    assert "usage" in err


def test_unknown_subcommand_and_flag_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-experiment"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["chowla-avg", "--nope", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["chowla-avg", "--jobs", "2"])
    assert exc.value.code == 2


def test_bad_parameter_value_exits_two(capsys):
    rc, out, err = run(["chowla-avg", "--x", "abc"], capsys)
    assert rc == 2
    assert "usage error" in err


def test_descending_h_list_rejected(capsys):
    rc, _, err = run(["variance", "--x", "10000", "--h-list", "100,10"], capsys)
    assert rc == 2
    assert "usage error" in err


# ------------------------------------------------------ formats

def test_csv_format_well_formed(capsys):
    rc, out, err = run(["chowla-avg", "--x", "100000", "--h", "50"], capsys)
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    for experiment, pcell, value, envelope, ratio, status in rows:
        assert experiment == "chowla-avg"
        assert "x=100000" in pcell and "h=50" in pcell and "seed=0" in pcell
        assert status in ("pass", "fail", "info")
        float(value)
        if envelope:
            assert float(ratio) == pytest.approx(float(value) / float(envelope), rel=1e-9)
    assert all(r[-1] == "pass" for r in rows)


def test_json_format_agrees_with_csv(capsys):
    argv = ["chowla-avg", "--x", "100000", "--h", "50"]
    _, out_csv, _ = run(argv, capsys)
    rc, out_json, _ = run(argv + ["--format", "json"], capsys)
    assert rc == 0
    data = json.loads(out_json)
    rows = parse_csv(out_csv)
    assert len(data) == len(rows)
    for obj, row in zip(data, rows):
        assert obj["experiment"] == row[0]
        assert obj["status"] == row[5]
        assert float(row[2]) == pytest.approx(obj["value"], rel=1e-11)
        assert obj["parameters"]["x"] == 100000
        assert obj["parameters"]["h"] == 50


def test_json_non_finite_and_typed_scalars():
    # JSON numbers cannot hold inf or nan, so they are quoted; bools, ints and
    # floats, numpy scalars included, print as in the CSV cells
    rows = [cli.make_row("t", {"x": 3, "h_list": (1, 2), "flag": True, "f": np.float64(0.25),
                               "n": np.int64(7), "kind": 'a"b'}, math.inf),
            cli.make_row("t", {"x": -math.inf}, math.nan, 2.0, ratio=math.nan, status="fail"),
            cli.make_row("t", {"b": np.bool_(False)}, -math.inf, None)]
    assert cli.render_json(rows) == (
        '[\n'
        '  {"experiment": "t", "parameters": {"x": 3, "h_list": [1, 2], "flag": true, '
        '"f": 0.25, "n": 7, "kind": "a\\"b"}, "value": "inf", "envelope": null, '
        '"ratio": null, "status": "info"},\n'
        '  {"experiment": "t", "parameters": {"x": "-inf"}, "value": "nan", "envelope": 2, '
        '"ratio": "nan", "status": "fail"},\n'
        '  {"experiment": "t", "parameters": {"b": false}, "value": "-inf", "envelope": null, '
        '"ratio": null, "status": "info"}\n'
        ']\n')


def test_tuple_parameter_rendering(capsys):
    argv = ["variance", "--x", "100000", "--h-list", "100,1000", "--fname", "liouville"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    rows = parse_csv(out)
    assert all("h_list=100,1000" in r[1] for r in rows)
    rc, out_json, _ = run(argv + ["--format", "json"], capsys)
    data = json.loads(out_json)
    assert data[0]["parameters"]["h_list"] == [100, 1000]


# ------------------------------------------------------ determinism

def test_repeat_runs_byte_identical(capsys):
    argv = ["mean-value", "--n", "200", "--t", "300", "--count", "2"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_one_parser_per_process_and_help_unchanged(capsys):
    # the registry's names and flags are static, so main parses with one
    # parser; its help reads as that of a parser built afresh
    assert cli.build_parser() is cli.build_parser()
    fresh = cli.build_parser.__wrapped__()
    for argv, parser in ((["--help"], fresh), (["entropy", "--help"], None)):
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        if parser is not None:
            assert helps[0] == parser.format_help()


def test_seed_reproduces_and_varies(capsys):
    base = ["mean-value", "--n", "150", "--t", "200", "--count", "1"]
    _, out_a, _ = run(base + ["--seed", "1"], capsys)
    _, out_b, _ = run(base + ["--seed", "1"], capsys)
    _, out_c, _ = run(base + ["--seed", "2"], capsys)
    assert out_a == out_b
    assert out_a != out_c


def test_wall_time_on_stderr_only(capsys):
    _, out, err = run(["chowla-avg", "--x", "2000", "--h", "10"], capsys)
    assert "# wall" in err
    assert "wall" not in out


# ------------------------------------------------------ output and config

def test_output_file_matches_stdout(tmp_path, capsys):
    argv = ["chowla-avg", "--x", "50000", "--h", "20"]
    _, out, _ = run(argv, capsys)
    dest = tmp_path / "rows.csv"
    rc, out2, _ = run(argv + ["--output", str(dest)], capsys)
    assert rc == 0
    assert out2 == ""
    assert dest.read_text(encoding="utf-8") == out


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nx = 50000\nh = 10\nseed = 3\n", encoding="utf-8")
    rc, out, _ = run(["chowla-avg", "--config", str(cfg), "--h", "14"], capsys)
    assert rc == 0
    rows = parse_csv(out)
    pcell = rows[0][1]
    assert "x=50000" in pcell    # config overrides registry default
    assert "h=14" in pcell       # flag overrides config
    assert "seed=3" in pcell


def test_config_malformed_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n", encoding="utf-8")
    rc, _, err = run(["chowla-avg", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "usage error" in err


def test_missing_config_file_is_usage_error(capsys):
    rc, _, err = run(["chowla-avg", "--config", "/no/such/file.cfg"], capsys)
    assert rc == 2


# ------------------------------------------------------ failure exit codes

def test_envelope_failure_exits_one(capsys):
    # at x = 100 the single-shift correlation ratio 0.07 breaches its 0.01 cap
    rc, out, err = run(["chowla-avg", "--x", "100", "--h", "20"], capsys)
    assert rc == 1
    rows = parse_csv(out)
    assert any(r[-1] == "fail" for r in rows)


def test_variance_first_envelope_is_max_square_of_f(capsys):
    # Lambda(n) - 1 reaches log n - 1, so h = 1 scores 6.10 against
    # (log(2e6) - 1)^2, not against the bound 1 of a +-1 sequence; lambda
    # keeps 1 (additive windows read up to 2X + h)
    argv = ["variance", "--x", "1000000", "--h-list", "1,100", "--fname",
            "von_mangoldt_minus_one"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx((math.log(2 * 10**6) - 1) ** 2, rel=1e-10)
    assert [r[-1] for r in rows] == ["pass", "pass"]
    rc, out, _ = run(argv[:5] + ["--kind", "additive", "--fname", "von_mangoldt_minus_one"],
                     capsys)
    assert rc == 0
    assert float(parse_csv(out)[0][3]) == pytest.approx((math.log(2 * 10**6 + 1) - 1) ** 2,
                                                        rel=1e-10)
    rc, out, _ = run(argv[:5], capsys)
    assert rc == 0
    assert parse_csv(out)[0][3] == "1"


def test_failed_quadrature_certificate_is_a_row(capsys):
    # at T = 1 the contour integral moves by about 1.5e-3 under step halving,
    # over its 1e-4 tolerance: the run still prints every row and exits 1
    rc, out, err = run(["tnp", "--perron-x", "100", "--perron-t", "1"], capsys)
    assert rc == 1
    rows = parse_csv(out)
    checks = [r[1].rsplit(";check=", 1)[1] for r in rows]
    assert checks == ["lambda-series-vs-zeta-ratio", "weighted-prime-count",
                      "prime-reciprocal-sum", "contour-vs-smoothed-sum",
                      "contour-step-halving"]
    assert rows[-1][-1] == "fail"
    assert [r[-1] for r in rows[:-1]] == ["pass"] * 4


@pytest.mark.parametrize("x, ratio", [(2, "0.290681620249"), (12, "0.588870048746"),
                                      (10**6, "0.00743856720934")])
def test_prime_reciprocal_sum_scored_by_its_theorem(x, ratio, capsys):
    # envelope 1/log^2 x plus rounding: tnp --x 2 and --x 12 pass
    rc, out, _ = run(["tnp", "--x", str(x)], capsys)
    assert rc == 0
    row = [r for r in parse_csv(out) if r[1].endswith("check=prime-reciprocal-sum")][0]
    assert float(row[3]) == pytest.approx(1.0 / math.log(x) ** 2, rel=1e-11)
    assert row[4:] == [ratio, "pass"]


def test_prime_reciprocal_theorem_holds_for_every_x_to_a_million():
    # Rosser-Schoenfeld: -1/(2 log^2 x) < sum_{p <= x} 1/p - log log x - B
    # < 1/log^2 x. The difference jumps up at each prime p_k and falls
    # until the next, so scaled by log^2 x its largest value on
    # [p_k, p_k+1) is at p_k and its least as x -> p_k+1. Up to 10^6 it
    # peaks at 0.989 (x = 19) and never falls below 0
    primes = np.flatnonzero(arith_core.primality_range(1, 10**6 + 1)) + 1.0
    sums = np.cumsum(1.0 / primes)
    logs = np.log(primes)
    upper = (sums - np.log(logs) - cli.MERTENS) * logs**2
    lower = (sums[:-1] - np.log(logs[1:]) - cli.MERTENS) * logs[1:] ** 2
    assert upper.max() < 0.99 and lower.min() > 0
    assert cli._reciprocal_envelope(2, 0.5, math.log(math.log(2))) > 1 / math.log(2) ** 2


def _forbid_work(monkeypatch, prime_bound=0):
    # every factor sieve starts in _walk, every boolean one in
    # primality_range (behind primes_upto too, after its budget check),
    # every t-grid in _phase_sum and every dense character row in
    # CharacterTable.row: none of them may run, save a prime list up to
    # prime_bound where a parameter is sized from primes
    def started(*args, **kwargs):
        raise RuntimeError("work started")
    primality_range = arith_core.primality_range

    def small_primality_range(lo, hi):
        return primality_range(lo, hi) if hi <= prime_bound + 1 else started()
    monkeypatch.setattr(arith_core, "_walk", started)
    monkeypatch.setattr(arith_core, "primality_range", small_primality_range)
    monkeypatch.setattr(expsum_circle.CharacterTable, "row", started)
    for module in (dirichlet_poly, zeta_mellin):
        monkeypatch.setattr(module, "_phase_sum", started)


def _assert_rejected_before_work(argv, monkeypatch, capsys):
    _forbid_work(monkeypatch)
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    # the rejection comes from the declared domains, not from deeper code
    assert "usage error" in err
    assert "is outside" in err or "unknown config key" in err


@pytest.mark.parametrize("argv", [["squarefree", "--x", "0"], ["squarefree", "--x", "-5"],
                                  ["tnp", "--x", "1"], ["sieve-check", "--x", "1"],
                                  ["arcs", "--h", "1"], ["expsum", "--h", "1"],
                                  ["prime-shift", "--h", "1"], ["chowla-avg", "--h", "0"],
                                  ["log-chowla", "--w", "1"],
                                  ["tnp", "--perron-x", "2"], ["tnp", "--perron-delta", "0.7"],
                                  ["goldbach", "--n", "2"], ["goldbach", "--slack", "0"],
                                  ["decrement-trace", "--steps", "0"],
                                  ["squarefree", "--x", "100", "--seed", "-1"]])
def test_bad_sieve_input_exits_two_before_sieving(argv, monkeypatch, capsys):
    _assert_rejected_before_work(argv, monkeypatch, capsys)


@pytest.mark.parametrize("argv", [["parseval-link", "--delta", "-0.5"],
                                  ["parseval-link", "--delta", "0"],
                                  ["parseval-link", "--delta", "nan"],
                                  ["large-values", "--t", "0"],
                                  ["tnp", "--perron-t", "0"],
                                  ["halasz", "--intervals", "0"],
                                  ["arcs", "--epsilon", "0"],
                                  ["mean-value", "--t", "nan"], ["large-values", "--t", "nan"],
                                  ["mean-value", "--t", "inf"],
                                  ["parseval-link", "--delta", "inf"],
                                  ["mean-value", "--count", "0"],
                                  ["mean-value", "--seed", "-1"]])
def test_bad_grid_input_exits_two_before_grid_work(argv, monkeypatch, capsys):
    _assert_rejected_before_work(argv, monkeypatch, capsys)


@pytest.mark.parametrize("experiment, line", [("chowla-avg", "X = 100"),
                                              ("chowla-avg", "jobs = 2"),
                                              ("squarefree", "x = 0"),
                                              ("squarefree", "seed = -1")])
def test_config_keys_and_values_checked_before_work(experiment, line, tmp_path,
                                                    monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    _assert_rejected_before_work([experiment, "--config", str(cfg)], monkeypatch, capsys)


@pytest.mark.parametrize("argv", [["variance", "--x", "100", "--h-list", "10,200"],
                                  ["parseval-link", "--x2", "100", "--h2", "200"]])
def test_joined_window_condition_exits_two_before_work(argv, monkeypatch, capsys):
    # h < X joins two parameters, so the handler checks every window first
    _forbid_work(monkeypatch)
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "usage error: need 0 < h < X" in err


@pytest.mark.parametrize("argv", [
    # (X, 2(1+delta)X] holds 7.2e7 integers, past the 2^26 sieve span budget
    ["factorization", "--x", "60000000"],
    # the streamed sum checks its whole support (1e5, 1e8 + 1] up front,
    # though each of its segments would fit the budget
    ["log-chowla", "--x", "100000000"],
    # prime masks of 1e9 flags are refused before they are allocated
    ["large-values", "--q", "1000000000"],
    ["arcs", "--h", "1000000000"],
    # the twisted average's (1e8, 2e8 + 100] is refused before its
    # X-long array of |sums| is allocated
    ["expsum", "--x", "100000000"],
    # the dense table past MAX_DENSE_Q is refused before any row is built
    ["characters", "--q", "1025"],
    # the residue space of the band primes in (32, 64] holds 5.8e11 classes,
    # one dense float each, refused before the joint is sieved; only the
    # band primes themselves may be listed
    ["entropy", "--h", "4", "--epsilon", "16"],
    # T = X/(h delta^2) = 2e14 asks for 8e14 t-nodes, refused before the
    # variance pass sieves (X, 2X]
    ["parseval-link", "--delta", "1e-06"],
    # the h-list's passes share one walk, so the span (6e7 - 8e6, 1.2e8]
    # of the last h is refused before the first h sieves
    ["variance", "--x", "60000000", "--h-list", "100,8000000"],
    # tnp's contour, a half grid of 4e10 t-nodes or a smoothed sum over
    # [1, 1e10], is refused before the lambda-series sieves [1, x]
    ["tnp", "--perron-t", "1e9"],
    ["tnp", "--perron-x", "10000000000", "--perron-t", "10"],
    # 67,108,841 t-nodes pass the node budget, but a Taylor-FFT grid of
    # that many nodes takes 2^27 bins: refused before the lambda-series
    ["tnp", "--perron-t", "1677721"],
])
def test_span_past_budget_exits_three_before_work(argv, monkeypatch, capsys):
    _forbid_work(monkeypatch, prime_bound=64 if argv[0] == "entropy" else 0)
    rc, out, err = run(argv, capsys)
    assert rc == 3
    assert out == ""
    assert "resource error" in err


@pytest.mark.parametrize("argv", [["entropy", "--h", "1"], ["entropy", "--epsilon", "1e-06"]])
def test_empty_prime_band_exits_two_before_work(argv, monkeypatch, capsys):
    # no prime in (eps H / 2, eps H]: one residue class, and the
    # concentration rows would divide by its log 1 = 0
    _forbid_work(monkeypatch, prime_bound=64)
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "usage error: no prime in" in err


def test_one_node_grid_exits_two_before_work(monkeypatch, capsys):
    # h delta^2 overflows to inf, so T = 0 leaves a one-node t-grid
    _forbid_work(monkeypatch)
    rc, out, err = run(["parseval-link", "--delta", "1e200"], capsys)
    assert rc == 2
    assert out == ""
    assert "usage error" in err


def test_every_default_lies_in_its_domain():
    for name, (_, spec, _) in cli.EXPERIMENTS.items():
        for pname, (kind, default, (text, test)) in spec.items():
            assert test(default), (name, pname, default, text)
            if kind is float:
                assert not any(test(v) for v in (math.nan, math.inf, -math.inf)), (name, pname)


def test_empty_band_envelope_is_rejected_not_scored(capsys):
    # no prime in [24, 25): the residual and its envelope are both 0
    rc, out, err = run(["factorization", "--x", "500", "--p0", "24", "--q0", "25"], capsys)
    assert rc == 2
    assert out == ""
    assert "degenerate envelope" in err


def test_handler_crash_exits_four(monkeypatch, capsys):
    def crash(P):
        return 1.0 / 0.0
    _, spec, anchor = cli.EXPERIMENTS["chowla-avg"]
    monkeypatch.setitem(cli.EXPERIMENTS, "chowla-avg", (crash, spec, anchor))
    rc, out, err = run(["chowla-avg"], capsys)
    assert rc == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "internal error: ZeroDivisionError" in err


def test_bare_value_error_in_handler_exits_four(monkeypatch, capsys):
    # only a stated precondition (PreconditionError) is a usage error; any
    # other ValueError raised inside a handler is a crash
    def broken(X, h):
        raise ValueError("broken library call")
    monkeypatch.setattr(expsum_circle, "chowla_avg", broken)
    rc, out, err = run(["chowla-avg"], capsys)
    assert rc == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "internal error: ValueError: broken library call" in err
    assert "usage error" not in err


def test_resource_exhaustion_exits_three(capsys):
    rc, _, err = run(["goldbach", "--n", "100001"], capsys)
    assert rc == 3
    assert "resource error" in err


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_factorization_non_finite_t_exits_two(t, capsys):
    rc, out, err = run(["factorization", "--t", t], capsys)
    assert rc == 2
    assert out == ""
    assert "usage error" in err


def test_factorization_identity_exact_row(capsys):
    rc, out, _ = run(["factorization", "--x", "500", "--delta", "0.99",
                      "--q0", "20", "--p0", "3"], capsys)
    assert rc == 0
    rows = parse_csv(out)
    assert "check=residual" in rows[-2][1]
    assert rows[-2][-1] == "pass"
    assert "check=identity-exact" in rows[-1][1]
    assert rows[-1][-1] == "pass"


@pytest.mark.parametrize("args", [["--x", "20000"], ["--p0", "60", "--q0", "61"]])
def test_factorization_residual_row_passes(args, capsys):
    # the midpoint-rule envelope holds where node doubling did not shrink
    rc, out, _ = run(["factorization", *args], capsys)
    assert rc == 0
    rows = parse_csv(out)
    assert [r[1].split("check=")[1].split(";")[0] for r in rows] == [
        "weight-upper", "weight-lower", "err-density", "residual", "identity-exact"]
    assert all(r[-1] == "pass" for r in rows)


def test_factorization_weight_upper_allows_only_rounding(monkeypatch, capsys):
    # at this delta max u is 1 + 2^-52, inside weight_array's derived
    # allowance (23 eps here); u scaled by 1 + 1e-9 is a real fault
    argv = ["factorization", "--delta", "0.7529167934868257"]
    rc, out, _ = run(argv, capsys)
    upper = parse_csv(out)[0]
    assert rc == 0 and "check=weight-upper" in upper[1] and upper[-1] == "pass"
    w = mr_factorization.RamareWeight(10000, 0.7529167934868257, 10, 100)
    assert float(mr_factorization.weight_array(w).max()) == 1.0 + 2.0**-52
    assert 1.0 + 2.0**-52 < mr_factorization.weight_upper_envelope(w) < 1.0 + 1e-13
    weight_array = mr_factorization.weight_array
    monkeypatch.setattr(mr_factorization, "weight_array", lambda w: weight_array(w) * (1.0 + 1e-9))
    rc, out, _ = run(argv, capsys)
    upper = parse_csv(out)[0]
    assert rc == 1 and "check=weight-upper" in upper[1] and upper[-1] == "fail"
