"""Tests of the benchmark's own machinery: span accounting, computed work
counts, failure counting and golden-row comparison.

    python3 -m pytest bench
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

import spans
import worker

# Small invocations that pass at this size and reach every traced module.
SMALL = [
    ["squarefree", "--x", "100000"],
    ["sieve-check", "--x", "5000"],
    ["mean-value", "--n", "40", "--t", "80", "--count", "1"],
    ["halasz", "--n", "40", "--t", "500"],
    ["large-values", "--q", "50", "--t", "100"],
    ["variance", "--x", "20000", "--h-list", "10,100", "--fname", "mobius"],
    ["parseval-link", "--x", "1000", "--h", "20", "--x2", "1000", "--h2", "20"],
    ["entropy", "--x", "20000", "--w", "100", "--h", "4"],
    ["factorization", "--x", "500", "--q-nodes", "16"],
    ["tnp", "--x", "5000", "--perron-t", "100"],
    ["expsum", "--x", "2000", "--h", "50", "--n", "200"],
]


@pytest.fixture(scope="module")
def library():
    return worker.load_library()


@pytest.fixture(scope="module")
def traced_passes(library):
    """(spans, wall, results) of two traced passes, after one untraced pass."""
    package, cli = library
    plain = worker.run_pass(cli, SMALL, seed=0)
    passes = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.install(package):
            t0 = time.perf_counter()
            results = worker.run_pass(cli, SMALL, 0, tracer)
            wall = time.perf_counter() - t0
        passes.append((tracer.spans, wall, results))
    return plain, passes


def test_small_invocations_pass_and_trace_identically(traced_passes):
    plain, passes = traced_passes
    assert not [r["key"] for r in plain if r["failed"]]
    for _, _, results in passes:
        assert [r["stdout"] for r in results] == [r["stdout"] for r in plain]


def test_self_times_and_untraced_remainder_add_up_to_wall(traced_passes):
    for recorded, wall, _ in traced_passes[1]:
        selfs = spans.self_times(recorded)
        remainder = wall - sum(s.duration for s in recorded if s.parent < 0)
        assert remainder >= 0.0
        assert min(selfs) >= -1e-9
        assert math.isclose(sum(selfs) + remainder, wall, rel_tol=1e-9, abs_tol=1e-9)


def test_child_spans_nest_inside_parents(traced_passes):
    for recorded, _, _ in traced_passes[1]:
        assert any(s.parent >= 0 for s in recorded)
        for s in recorded:
            assert s.start <= s.end
            if s.parent >= 0:
                p = recorded[s.parent]
                assert p.start <= s.start and s.end <= p.end, (p.name, s.name)


def test_work_counts_repeat_exactly(traced_passes):
    counts = [{k: v for k, v in spans.layer_metrics(recorded).items() if isinstance(v, int)}
              for recorded, _, _ in traced_passes[1]]
    assert counts[0] == counts[1]
    for key in ("arith_core.ints", "dirichlet_poly.node_terms", "zeta_mellin.node_terms",
                "interval_stats.node_terms", "mr_factorization.q_nodes",
                "entropy_chowla.joint_ints", "util.fsum.elements"):
        assert counts[0][key] > 0, key
    for mod in spans.MODULES:
        assert counts[0][mod + ".calls"] > 0, mod


def test_fsum_is_seen_from_every_namespace_that_imports_it(traced_passes):
    recorded = traced_passes[1][0][0]
    callers = {recorded[s.parent].module for s in recorded
               if s.name in ("util.fsum", "util.fsum_complex") and s.parent >= 0}
    assert {"arith_core", "dirichlet_poly", "zeta_mellin", "interval_stats",
            "mr_factorization", "entropy_chowla", "expsum_circle", "cli"} <= callers


def test_uninstall_restores_every_binding(library):
    package, cli = library
    util = package.util
    original = util.fsum
    handler = cli.EXPERIMENTS["squarefree"][0]
    with spans.Tracer().install(package):
        assert package.arith_core.fsum is util.fsum is not original
        assert cli.EXPERIMENTS["squarefree"][0] is not handler
    assert util.fsum is original and package.arith_core.fsum is original
    assert package.entropy_chowla.fsum is original
    assert cli.EXPERIMENTS["squarefree"][0] is handler


@pytest.mark.parametrize("argv", [["squarefree", "--x", "100"], ["tnp", "--x", "1"]])
def test_failing_invocation_is_counted(library, argv):
    _, cli = library
    passes, results, _ = worker.measure(cli, [argv], seed=0, seconds=0)
    assert len(results) == 1 and results[0]["failed"]
    if argv[0] == "squarefree":  # exits 1 with a fail row
        assert results[0]["code"] == 1 and ",fail" in results[0]["stdout"]


class _ExitsZeroWithFailRow:
    """A CLI whose exit code misses its own failed check."""

    @staticmethod
    def main(argv):
        sys.stdout.write("experiment,parameters,value,envelope,ratio,status\n"
                         "x,seed=0,2,1,2,fail\n")
        return 0


def test_fail_row_counts_even_with_exit_zero():
    (res,) = worker.run_pass(_ExitsZeroWithFailRow, [["x"]], seed=0)
    assert res["code"] == 0 and res["failed"]


def test_golden_moves_counts_changed_rows():
    golden = {"squarefree": "experiment,parameters,value,envelope,ratio,status\n"
                            "squarefree,x=1;seed=0;jobs=1,0.5,1,0.5,pass\n",
              "mean-value": "h\nmean-value,n=1;seed=0;jobs=1,2,4,0.5,pass\n"}
    same = [{"key": "squarefree", "stdout": golden["squarefree"].replace("seed=0", "seed=7")}]
    assert worker.golden_moves(same, golden, seed=7) == (0, 0.0)
    moved = [{"key": "squarefree", "stdout": golden["squarefree"].replace(",0.5,1,", ",0.6,1,")},
             {"key": "mean-value", "stdout": "h\n"}]
    n, worst = worker.golden_moves(moved, golden, seed=3)  # seeded row skipped
    assert n == 1 and worst == pytest.approx(0.2)
    assert worker.golden_moves(moved, golden, seed=0)[0] == 2


def test_reported_metrics_match_benchmark_json(library, traced_passes):
    _, cli = library
    spec = json.loads((Path(worker.ROOT) / "BENCHMARK.json").read_text())
    _, _, e2e = worker.measure(cli, SMALL[:1], seed=0, seconds=0)
    assert set(e2e) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    layers = spans.layer_metrics(traced_passes[1][0][0])
    extra = {"error_rate", "cli.rows_moved", "cli.max_rel_move", "trace.overhead_s"}
    assert set(layers) | extra == {m["name"] for m in spec["per_layer"]}
