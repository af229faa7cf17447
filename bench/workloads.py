"""The benchmark's workloads: fixed lists of `liouville-lab` invocations.

Each invocation is the argv of one CLI call without `--seed`; the runner
appends `--seed <workload seed>` to every one. The seed changes the random
vectors of `mean-value` and `halasz` and the samples of `sieve-check`, never
the amount of work.
"""

# Registry order at the commit that defined the benchmark. The list is fixed
# so that adding an experiment later does not silently change the workload.
CATALOG = [
    "sieve-check", "squarefree", "tnp", "mean-value", "halasz", "large-values",
    "factorization", "variance", "parseval-link", "expsum", "arcs",
    "characters", "chowla-avg", "prime-shift", "goldbach", "entropy",
    "log-chowla", "decrement-trace",
]

WORKLOADS = {
    # What a CLI user runs: every experiment at registry defaults. The only
    # workload where the two-factor identity (mr_factorization) dominates.
    "catalog": [[name] for name in CATALOG],
    # Long sieve spans through three paths of one layer (parity, full table,
    # short segments) plus the exact sums and joint-law builds fed by them.
    # No Dirichlet-polynomial or zeta grid work.
    "sieve-long": [
        ["variance", "--x", "10000000", "--h-list", "1000"],
        ["log-chowla", "--x", "10000000"],
        ["variance", "--x", "3000000", "--h-list", "1000", "--fname", "mobius"],
        ["sieve-check", "--x", "2000000"],
        ["entropy"],
        ["decrement-trace"],
    ],
    # Exp-outer-product grid evaluation: dense, prime-band (sparse), many
    # terms on few nodes, the zeta strip grid and short t-intervals.
    "freq-grid": [
        ["mean-value", "--n", "500", "--t", "5000", "--count", "1"],
        ["large-values", "--q", "1000", "--t", "3000"],
        ["parseval-link"],
        ["tnp"],
        ["halasz", "--n", "500", "--t", "5000"],
    ],
}

# Experiments whose rows depend on the seed. Their rows are compared with the
# golden rows (recorded at seed 0) only when the run's seed is 0.
SEEDED = frozenset({"sieve-check", "mean-value", "halasz"})


def key(invocation):
    """Golden-file key of an invocation: its argv joined by spaces."""
    return " ".join(invocation)
