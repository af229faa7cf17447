"""liouville-lab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. Starts `bench/worker.py` in fresh processes
(first several set-up-only ones, then the workload itself), one at a time,
and waits for each. The workload is a closed loop with one caller: each CLI
invocation starts after the previous one returns. No threads are added;
numpy/BLAS keep their defaults.

Prints the metrics by name and unit, then, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
with `--trace 0`, the per-layer ones with `--trace 1`). The full record,
machine included, goes to `bench/results/<workload>-seed<N>-trace<T>.json`.
Exits 2 without a result when the checkout has no library sources, and 1
when the worker crashes or times out.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn(args, timeout):
    """(start time on the monotonic clock, parsed last stdout line) of one
    worker process; raises RuntimeError if it fails or times out."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError("worker %s timed out after %.0f s" % (args, timeout)) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker %s exited %d:\n%s" % (args, proc.returncode, proc.stderr[-4000:]))
    return start, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="liouville-lab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liouville_lab" / "cli.py").is_file():
        sys.stderr.write("bench: no src/liouville_lab under %s; run from a full checkout\n" % ROOT)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write("bench: unknown workload %r\n" % args.workload)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        for _ in range(SETUP_SAMPLES):
            start, ready = spawn(["--setup-only"], deadline - time.monotonic())
            setups.append(ready["ready"] - start)
        start, out = spawn(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           deadline - time.monotonic())
    except RuntimeError as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    setups.append(out["ready"] - start)

    measured = dict(out["metrics"], setup_s=statistics.median(setups))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    correct = out["failed"] == 0 and all(out["check"].values())

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = out.pop("spans", None)
    record = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, correct=correct,
                  metrics=measured)
    (results / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(results / (stem + ".spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    m = out["machine"]
    print("# machine: %s, nproc %s, caches %s, python %s, numpy %s, blas threads %s"
          % (m["cpu_model"], m["nproc"], m["caches"], m["python"], m["numpy"],
             m["blas_threads"]))
    for f in out["failures"]:
        print("# FAILED %s (exit %s)\n%s" % (f["key"], f["code"], f["error"].rstrip()))
    for name, v in metrics.items():
        print("%-34s %16.6f %s" % (name, v["value"], v["unit"]))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
