"""Fig 9: maximum tardiness vs cluster size, six schedulers.

Paper shape: tardiness shrinks with cluster size; FIFO/Fair produce the
largest maxima; the deadline-aware schedulers (EDF, WOHA-*) stay low.
"""

from repro.metrics.report import format_table

from benchmarks._helpers import CLUSTER_SIZES, STACK_BY_LABEL, emit, fig8_sweep


def test_fig09_max_tardiness(benchmark):
    sweep = benchmark.pedantic(fig8_sweep, rounds=1, iterations=1)
    rows = []
    for name in STACK_BY_LABEL:
        row = [name]
        for size in CLUSTER_SIZES:
            row.append(sweep[(name, size)].max_tardiness)
        rows.append(row)
    headers = ["scheduler"] + [f"{m}m-{r}r" for m, r in CLUSTER_SIZES]
    table = format_table(headers, rows, title="Fig 9: max tardiness in seconds", float_fmt="{:.1f}")
    emit("fig09_max_tardiness", table)
    for name in STACK_BY_LABEL:
        series = [sweep[(name, size)].max_tardiness for size in CLUSTER_SIZES]
        # More resources never increase the worst lateness much.
        assert series[-1] <= series[0] + 60.0, name
    for size in CLUSTER_SIZES:
        assert sweep[("WOHA-LPF", size)].max_tardiness <= sweep[("FIFO", size)].max_tardiness