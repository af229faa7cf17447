"""Command-line harness: formats, determinism, exit codes, config handling."""

import csv
import io
import json

import pytest

from liouville_lab import arith_core, cli


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


@pytest.mark.parametrize("argv", [["squarefree", "--x", "0"], ["squarefree", "--x", "-5"],
                                  ["tnp", "--x", "1"], ["sieve-check", "--x", "1"]])
def test_bad_sieve_input_exits_two_before_sieving(argv, monkeypatch, capsys):
    # every sieve path starts in _segments or primes_upto: neither may run
    def started(*args, **kwargs):
        raise RuntimeError("sieving started")
    monkeypatch.setattr(arith_core, "_segments", started)
    monkeypatch.setattr(arith_core, "primes_upto", started)
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "usage error" in err


def test_handler_crash_exits_four(monkeypatch, capsys):
    def crash(P):
        return 1.0 / 0.0
    _, spec, anchor = cli.EXPERIMENTS["chowla-avg"]
    monkeypatch.setitem(cli.EXPERIMENTS, "chowla-avg", (crash, spec, anchor))
    rc, out, err = run(["chowla-avg"], capsys)
    assert rc == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "internal error: ZeroDivisionError" in err


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
    assert "check=node-doubling-shrink" in rows[-2][1]
    assert "check=identity-exact" in rows[-1][1]
    assert rows[-1][-1] == "pass"
