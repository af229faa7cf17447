"""Record the golden rows: the seed-0 stdout of every benchmark invocation.

    python3 bench/record_golden.py

Writes `bench/golden.json`, mapping each invocation's argv (without the
seed) to its CSV output. The benchmark reports rows that differ from these
as `cli.rows_moved` and `cli.max_rel_move`; re-record only when a change
that moves digits has explained every moved row.
"""

import json
import sys

import workloads
from worker import GOLDEN, load_library, run_pass


def main():
    _, cli = load_library()
    invocations = {workloads.key(inv): inv
                   for invs in workloads.WORKLOADS.values() for inv in invs}
    golden = {}
    for key, inv in invocations.items():
        (res,) = run_pass(cli, [inv], seed=0)
        if res["failed"]:
            sys.stderr.write("%s failed:\n%s\n" % (key, res["error"]))
            return 1
        golden[key] = res["stdout"]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
