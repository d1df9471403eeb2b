"""Test-side oracle for :class:`repro.dataplane.flowtable.FlowTable`.

The O(n) scan the indexed lookup replaced: every entry is tried, and the
highest priority wins with ties going to the earliest install.  Tests and
benchmarks compare the production lookup against it.
"""

from typing import Any, Dict, Iterable, Optional

from repro.dataplane.flowtable import FlowEntry


def linear_lookup(entries: Iterable[FlowEntry],
                  fields: Dict[str, Any]) -> Optional[FlowEntry]:
    """The best entry of ``entries`` matching ``fields``, by linear scan."""
    best: Optional[FlowEntry] = None
    for entry in entries:
        if entry.match.matches_fields(fields):
            if best is None or (entry.priority, -entry.order) > (best.priority, -best.order):
                best = entry
    return best
