"""Fig 11: workspans of the three synthetic workflows, six schedulers.

Paper shape: Fair is worst; FIFO finishes W-1 early but creates huge
tardiness on W-3; EDF favours W-3 (far before its deadline) at the others'
expense; all three WOHA variants satisfy every deadline.
"""

from repro.metrics.report import format_table

from benchmarks._helpers import STACK_BY_LABEL, emit, fig11_runs

DEADLINES = {"W-1": 4800.0, "W-2": 4200.0, "W-3": 3600.0}


def test_fig11_workspan(benchmark):
    runs = benchmark.pedantic(fig11_runs, rounds=1, iterations=1)
    rows = []
    for name in STACK_BY_LABEL:
        result = runs[name]
        rows.append(
            [name]
            + [result.stats[w].workspan for w in ("W-1", "W-2", "W-3")]
            + [sum(1 for s in result.stats.values() if not s.met_deadline)]
        )
    table = format_table(
        ["scheduler", "W-1", "W-2", "W-3", "misses"],
        rows,
        title=(
            "Fig 11: workspan (s) of three Fig-7-topology workflows, 32 slaves\n"
            "releases 0/300/600 s, relative deadlines 4800/4200/3600 s"
        ),
        float_fmt="{:.1f}",
    )
    emit("fig11_workspan", table)
    # Paper's headline: every WOHA variant meets all three deadlines...
    for variant in ("WOHA-HLF", "WOHA-LPF", "WOHA-MPF"):
        assert runs[variant].miss_ratio == 0.0
    # ...while FIFO and Fair do not.
    assert runs["FIFO"].miss_ratio > 0.0
    assert runs["Fair"].miss_ratio > 0.0
    # EDF's signature distortion: W-3 finishes earliest under EDF.
    w3 = {name: runs[name].stats["W-3"].workspan for name in STACK_BY_LABEL}
    assert min(w3, key=w3.get) == "EDF"