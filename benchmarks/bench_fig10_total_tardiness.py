"""Fig 10: total tardiness vs cluster size, six schedulers.

Paper shape: FIFO/Fair accumulate by far the most total tardiness; EDF's
total tardiness is "very close to WOHA schedulers' outcomes", sometimes
even less — reducing tardiness is explicitly *not* WOHA's objective.
"""

from repro.metrics.report import format_table

from benchmarks._helpers import CLUSTER_SIZES, STACK_BY_LABEL, emit, fig8_sweep


def test_fig10_total_tardiness(benchmark):
    sweep = benchmark.pedantic(fig8_sweep, rounds=1, iterations=1)
    rows = []
    for name in STACK_BY_LABEL:
        row = [name]
        for size in CLUSTER_SIZES:
            row.append(sweep[(name, size)].total_tardiness)
        rows.append(row)
    headers = ["scheduler"] + [f"{m}m-{r}r" for m, r in CLUSTER_SIZES]
    table = format_table(headers, rows, title="Fig 10: total tardiness in seconds", float_fmt="{:.1f}")
    emit("fig10_total_tardiness", table)
    for size in CLUSTER_SIZES:
        fifo = sweep[("FIFO", size)].total_tardiness
        fair = sweep[("Fair", size)].total_tardiness
        woha = sweep[("WOHA-LPF", size)].total_tardiness
        edf = sweep[("EDF", size)].total_tardiness
        assert max(fifo, fair) >= woha, f"baselines should dominate total tardiness at {size}"
        # EDF and WOHA are in the same league (within an order of magnitude
        # of each other while FIFO/Fair are far above both).
        assert max(edf, woha) * 3 < max(fifo, fair) + 1e-9