"""The Theorem 1 hard instance: Omega(log n) energy on a path.

Theorem 1 proves that on an n-vertex path, *any* randomized LOCAL
Broadcast algorithm has, with probability 1/2, some vertex spending at
least (1/5) log n energy before it receives the message.  We cannot
enumerate all algorithms, but we can (a) measure the quantity the theorem
bounds — the worst, over vertices, energy spent strictly before receiving
the payload — on our algorithms' runs, and (b) check it indeed grows
logarithmically, pinning both sides: the path algorithm of Section 8 is
O(log n) in expectation, so the measured curve is sandwiched into
Theta(log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.broadcast.base import BroadcastOutcome
from repro.sim.feedback import is_message

__all__ = ["PreReceptionEnergy", "energy_before_reception"]


@dataclass(frozen=True)
class PreReceptionEnergy:
    """Per-vertex energy spent before first learning the payload."""

    per_vertex: List[int]
    worst: int
    worst_vertex: int


def _payload_arrival_slots(outcome: BroadcastOutcome) -> Dict[int, int]:
    """First slot each vertex heard the payload (source: slot -1)."""
    trace = outcome.sim.trace
    if trace is None:
        raise ValueError("energy_before_reception needs record_trace=True")
    payload = outcome.payload
    arrival: Dict[int, int] = {}

    def mentions_payload(msg) -> bool:
        if msg == payload:
            return True
        if isinstance(msg, tuple):
            return any(mentions_payload(part) for part in msg)
        if isinstance(msg, (list, dict)):
            items = msg.values() if isinstance(msg, dict) else msg
            return any(mentions_payload(part) for part in items)
        return False

    for event in trace:
        if event.kind in ("listen", "duplex") and is_message(event.feedback):
            if event.node not in arrival and mentions_payload(event.feedback):
                arrival[event.node] = event.slot
    return arrival


def energy_before_reception(
    outcome: BroadcastOutcome, source: int = 0
) -> PreReceptionEnergy:
    """Measure Theorem 1's quantity on a traced broadcast run."""
    trace = outcome.sim.trace
    arrival = _payload_arrival_slots(outcome)
    n = len(outcome.sim.outputs)
    spent = [0] * n
    for event in trace:
        cutoff: Optional[int] = arrival.get(event.node)
        if event.node == source:
            cutoff = -1
        if cutoff is None or event.slot < cutoff:
            spent[event.node] += 1
    worst_vertex = max(range(n), key=lambda v: spent[v])
    return PreReceptionEnergy(
        per_vertex=spent, worst=spent[worst_vertex], worst_vertex=worst_vertex
    )
