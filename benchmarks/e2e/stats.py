"""Sample statistics shared by every timing the benchmark reports."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond its rank; below that it is noise (no p999 over 80 samples).
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: int) -> Tuple[Optional[float], Optional[str]]:
    """Nearest-rank percentile ``pct`` (an integer in 1..99) of ``values``.

    Returns ``(value, None)``, or ``(None, reason)`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond the percentile's rank.  The rank
    is ``ceil(pct * n / 100)`` in integer arithmetic, so ``pct=90`` over 100
    samples is the 90th smallest with exactly ten samples beyond it.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in 1..99, got {pct}")
    n = len(values)
    rank = max(1, -(-pct * n // 100))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None, (
            f"p{pct} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {max(beyond, 0)}"
        )
    return sorted(values)[rank - 1], None
