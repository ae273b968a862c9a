"""Pure summary statistics and result plumbing for the benchmark.

Nothing here imports the program under test, so the self-tests in
``selftest.py`` can check the harness's own arithmetic in isolation.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values: Sequence[float]) -> float:
    """The median, or 0.0 for an empty sample."""
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, label)``.  With ``n`` samples sorted ascending
    that is the ``(n - 10)``-th smallest, labelled ``p<floor(100 (n-10)/n)>``;
    ``n = 100`` gives the 90th value (p90).  Below eleven samples no
    percentile has ten beyond it, so the maximum is reported and
    labelled ``max``.
    """
    if not values:
        return 0.0, "none"
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return float(ordered[-1]), "max"
    index = n - TAIL_MIN_BEYOND - 1
    return float(ordered[index]), f"p{math.floor(100 * (index + 1) / n)}"


def slo_attainment(
    latencies: Sequence[Optional[float]], limit_s: float
) -> float:
    """Share of attempted requests that completed correctly within ``limit_s``.

    ``latencies`` holds one entry per attempted request: its latency
    when it completed with a correct output, ``None`` when it failed,
    was refused or returned a wrong label — those miss the limit.
    """
    if not latencies:
        return 0.0
    met = sum(1 for x in latencies if x is not None and x <= limit_s)
    return met / len(latencies)


def valid_name(name: str) -> bool:
    """A metric or workload name: letter/digit first, then ``[A-Za-z0-9_.-]``."""
    return bool(_NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT_RE.match(unit))


class Metrics:
    """Ordered ``name -> (value, unit)`` with name/unit validation."""

    def __init__(self) -> None:
        self._items: Dict[str, Tuple[float, str]] = {}
        #: name -> why the value is not measured on this workload
        self.unavailable: Dict[str, str] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        if not valid_name(name) or not valid_unit(unit):
            raise ValueError(f"bad metric name/unit {name!r} {unit!r}")
        if name in self._items:
            raise ValueError(f"metric {name!r} reported twice")
        self._items[name] = (float(value), unit)

    def missing(self, name: str, unit: str, reason: str) -> None:
        """Report ``name`` as 0 and record why it is not measured here."""
        self.add(name, 0.0, unit)
        self.unavailable[name] = reason

    def names(self) -> List[str]:
        return list(self._items)

    def as_json(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in self._items.items()
        }

    def lines(self) -> Iterable[str]:
        for name, (value, unit) in self._items.items():
            note = self.unavailable.get(name)
            suffix = f"  (unavailable: {note})" if note else ""
            yield f"  {name:<34} {value:>14.6g} {unit}{suffix}"
