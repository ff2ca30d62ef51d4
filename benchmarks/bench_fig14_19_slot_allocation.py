"""Figs 14-19: per-scheduler slot-allocation time series.

Each paper figure is a pair of panels (map slots, reduce slots) showing how
many slots each of the three workflows holds over time; darker shading =
earlier release.  The bench regenerates the series on a 60-second grid and
prints a compact quantile summary per workflow plus a coarse timeline for
the map panel, and asserts the qualitative behaviours the paper highlights
with red rectangles.
"""

from repro.cluster.tasks import TaskKind
from repro.metrics.report import format_table

from benchmarks._helpers import STACK_BY_LABEL, emit, fig11_runs

FIGURES = {
    "FIFO": "Fig 14",
    "EDF": "Fig 15",
    "Fair": "Fig 16",
    "WOHA-LPF": "Fig 17",
    "WOHA-HLF": "Fig 18",
    "WOHA-MPF": "Fig 19",
}
WORKFLOWS = ["W-1", "W-2", "W-3"]


def _sparkline(counts, peak):
    glyphs = " .:-=+*#%@"
    if peak <= 0:
        return ""
    out = []
    for c in counts:
        idx = min(len(glyphs) - 1, int(round(c / peak * (len(glyphs) - 1))))
        out.append(glyphs[idx])
    return "".join(out)


def test_fig14_19_slot_allocation(benchmark):
    runs = benchmark.pedantic(fig11_runs, rounds=1, iterations=1)
    sections = []
    for name in STACK_BY_LABEL:
        result = runs[name]
        metrics = result.metrics
        lines = [f"{FIGURES[name]}: {name} slot allocation (one glyph = 60 s, darkness = slots held)"]
        for kind, label, peak in ((TaskKind.MAP, "map", 64), (TaskKind.REDUCE, "reduce", 32)):
            times, counts = metrics.allocation_matrix(kind, WORKFLOWS, step=60.0)
            for wf in WORKFLOWS:
                lines.append(f"  {label:6s} {wf}: {_sparkline(counts[wf], peak)}")
        sections.append("\n".join(lines))
    emit("fig14_19_slot_allocation", "\n\n".join(sections))

    # Quantitative shape checks behind the paper's annotations:
    # FIFO: W-1/W-2 win early contention; W-3 gets almost nothing in the
    # first 20 minutes after its release (t=600..1800).
    fifo = runs["FIFO"].metrics
    times, counts = fifo.allocation_matrix(TaskKind.MAP, WORKFLOWS, step=60.0)
    window = [i for i, t in enumerate(times) if 660.0 <= t <= 1800.0]
    w3_share = sum(counts["W-3"][i] for i in window)
    w12_share = sum(counts["W-1"][i] + counts["W-2"][i] for i in window)
    assert w3_share < 0.25 * (w3_share + w12_share)

    # EDF: reversed — after W-3's release it dominates the map slots.
    edf = runs["EDF"].metrics
    times, counts = edf.allocation_matrix(TaskKind.MAP, WORKFLOWS, step=60.0)
    window = [i for i, t in enumerate(times) if 660.0 <= t <= 1800.0]
    w3_share = sum(counts["W-3"][i] for i in window)
    total = sum(counts[w][i] for w in WORKFLOWS for i in window)
    # W-3 takes well above an even third (its own chain phases keep it from
    # literally consuming every slot).
    assert w3_share > 0.4 * total

    # WOHA: no workflow monopolizes — every workflow holds slots in the
    # contended window under WOHA-LPF.
    woha = runs["WOHA-LPF"].metrics
    times, counts = woha.allocation_matrix(TaskKind.MAP, WORKFLOWS, step=60.0)
    window = [i for i, t in enumerate(times) if 660.0 <= t <= 1800.0]
    for wf in WORKFLOWS:
        assert sum(counts[wf][i] for i in window) > 0