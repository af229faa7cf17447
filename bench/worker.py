"""One benchmark process: runs a workload's invocations through
`liouville_lab.cli.main(argv)` in-process, one at a time, and prints one JSON
object with its measurements on stdout.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/worker.py --setup-only

`bench/run.py` starts this in a fresh process so that set-up time and peak
RSS belong to the workload alone. With `--trace 0` it repeats whole passes
over the invocation list until `--seconds` have elapsed (at least one pass).
With `--trace 1` it repeats pairs of an untraced and a traced pass, checks
that both print the same bytes, and reports per-layer metrics from the spans.
"""

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def load_library():
    """Import the checkout's own `liouville_lab` from `src/`."""
    src = ROOT / "src"
    if not (src / "liouville_lab" / "cli.py").is_file():
        raise FileNotFoundError("no liouville_lab sources under %s" % src)
    sys.path.insert(0, str(src))
    import liouville_lab
    from liouville_lab import cli

    if Path(cli.__file__).resolve().parent != src / "liouville_lab":
        raise ImportError("imported %s, not the checkout's sources" % cli.__file__)
    return liouville_lab, cli


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------ one pass

def _status_fail(stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    return any(row and row[-1] == "fail" for row in rows[1:])


def run_invocation(cli, argv):
    """(exit code, stdout, error text) of one CLI call; code None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # a crash is a failed invocation, not a benchmark crash
            code, error = None, traceback.format_exc()
    return code, out.getvalue(), error or err.getvalue()


def run_pass(cli, invocations, seed, tracer=None):
    """Run each invocation once, in order; one result dict per invocation."""
    results = []
    for inv in invocations:
        argv = list(inv) + ["--seed", str(seed)]
        span = tracer.root("invoke " + inv[0]) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            code, stdout, error = run_invocation(cli, argv)
        wall = time.perf_counter() - t0
        failed = code != 0 or _status_fail(stdout)
        results.append({"key": workloads.key(inv), "code": code, "wall_s": wall,
                        "failed": failed, "stdout": stdout,
                        "error": error[-2000:] if failed else ""})
    return results


def timed_pass(cli, invocations, seed, tracer=None):
    c0, w0 = time.process_time(), time.perf_counter()
    results = run_pass(cli, invocations, seed, tracer)
    return time.perf_counter() - w0, time.process_time() - c0, results


# ------------------------------------------------------ golden rows

def _normalized_rows(stdout):
    """CSV rows with the seed cell of the parameters column dropped."""
    rows = list(csv.reader(io.StringIO(stdout)))
    for row in rows[1:]:
        if len(row) > 1:
            row[1] = ";".join(c for c in row[1].split(";") if not c.startswith("seed="))
    return rows


def _rel_move(new, old):
    try:
        a, b = float(new), float(old)
    except ValueError:
        return 1.0
    if a == b or (a != a and b != b):
        return 0.0
    return abs(a - b) / abs(b) if b else abs(a - b)


def golden_moves(results, golden, seed):
    """(rows whose printed line differs from the golden row, largest relative
    move of the value column). Rows of seeded experiments count only at
    seed 0, where the golden rows were recorded."""
    moved, worst = 0, 0.0
    for res in results:
        experiment = res["key"].split()[0]
        if seed != 0 and experiment in workloads.SEEDED:
            continue
        new = _normalized_rows(res["stdout"])
        old = _normalized_rows(golden.get(res["key"], ""))
        for i in range(max(len(new), len(old))):
            a = new[i] if i < len(new) else None
            b = old[i] if i < len(old) else None
            if a == b:
                continue
            moved += 1
            if a is None or b is None or len(a) < 3 or len(b) < 3:
                worst = max(worst, 1.0)
            else:
                worst = max(worst, _rel_move(a[2], b[2]))
    return moved, worst


# ------------------------------------------------------ machine

def _cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes["L%s" % level] = size
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    import numpy as np

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "caches": _cache_sizes(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": _blas_threads(np)}


# ------------------------------------------------------ modes

def measure(cli, invocations, seed, seconds):
    """Untraced passes until `seconds` have elapsed; end-to-end metrics.

    Peak RSS is read after the first pass: later passes raise the high-water
    mark through heap reuse, so it would depend on how many passes fit."""
    start = time.perf_counter()
    passes = [timed_pass(cli, invocations, seed)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - start < seconds:
        passes.append(timed_pass(cli, invocations, seed))
    results = [r for _, _, rs in passes for r in rs]
    return passes, results, {
        "wall_s": statistics.median(w for w, _, _ in passes),
        "cpu_s": statistics.median(c for _, c, _ in passes),
        "peak_rss_mib": peak_rss_mib,
    }


def measure_traced(package, cli, invocations, seed, seconds):
    """Pairs of an untraced and a traced pass until `seconds` have elapsed."""
    plain, traced, layers, identical = [], [], [], True
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(timed_pass(cli, invocations, seed))
        tracer = spans.Tracer()
        with tracer.install(package):
            traced.append(timed_pass(cli, invocations, seed, tracer))
        layers.append(spans.layer_metrics(tracer.spans))
        identical &= all(a["stdout"] == b["stdout"]
                         for a, b in zip(plain[-1][2], traced[-1][2]))
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layers]
    metrics = {k: v if isinstance(v, int) else statistics.median(m[k] for m in layers)
               for k, v in layers[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(w for w, _, _ in traced)
                                   - statistics.median(w for w, _, _ in plain))
    results = [r for _, _, rs in plain + traced for r in rs]
    check = {"stdout_identical": identical,
             "counts_repeat": all(c == counts[0] for c in counts)}
    return plain, traced, results, metrics, check, [s.as_dict() for s in tracer.spans]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not args.setup_only and args.workload is None:
        ap.error("--workload is required")

    package, cli = load_library()
    golden = load_golden()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    invocations = workloads.WORKLOADS[args.workload]
    out = {"ready": ready, "machine": machine_info()}
    if args.trace:
        passes, traced, results, metrics, check, span_dicts = measure_traced(
            package, cli, invocations, args.seed, args.seconds)
        out["traced_passes"] = [{"wall_s": w, "cpu_s": c} for w, c, _ in traced]
        out["spans"] = span_dicts
    else:
        passes, results, metrics = measure(cli, invocations, args.seed, args.seconds)
        check = {}
    attempted = len(results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        moved, worst = golden_moves(passes[0][2], golden, args.seed)
        metrics.update({"error_rate": failed / attempted, "cli.rows_moved": moved,
                        "cli.max_rel_move": worst})
    out.update({
        "attempted": attempted, "failed": failed, "check": check, "metrics": metrics,
        "passes": [{"wall_s": w, "cpu_s": c} for w, c, _ in passes],
        "invocations": [{"key": first["key"], "code": first["code"],
                         "wall_s": statistics.median(p[2][i]["wall_s"] for p in passes)}
                        for i, first in enumerate(passes[0][2])],
        "failures": [{"key": r["key"], "code": r["code"], "error": r["error"]}
                     for r in results if r["failed"]][:5],
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
