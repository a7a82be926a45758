"""Event tracing for the PIUMA simulator.

A :class:`Tracer` wraps a :class:`Simulator` and records every executed
op (time, thread placement, op tag, resume/completion).  Traces render
as a text timeline — the tool for answering "why is this kernel slow"
questions the aggregate tag stats cannot.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TraceEvent:
    """One executed op."""

    issued_at: float
    resumed_at: float
    completed_at: float
    core: int
    mtp: int
    tag: str

    @property
    def blocked_ns(self):
        """Time the issuing thread was stalled by this op."""
        return self.resumed_at - self.issued_at


class Tracer:
    """Records simulator ops by monkey-patching ``_execute``.

    Bounded: keeps at most ``capacity`` events (the earliest ones),
    which is what you want for inspecting kernel warm-up and steady
    state without holding the entire run.
    """

    def __init__(self, simulator, capacity=10_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.events = []
        self.capacity = capacity
        self.dropped = 0
        self._simulator = simulator
        # The hook this tracer stacks on: another instance wrapper (the
        # sanitizer's) or, when None, the class's own ``_execute``.
        self._previous = simulator.__dict__.get("_execute")
        self._original = simulator._execute
        simulator._execute = self._traced_execute

    def _traced_execute(self, op, now, core, mtp):
        resume, completion = self._original(op, now, core, mtp)
        tag = getattr(op, "tag", type(op).__name__)
        if len(self.events) < self.capacity:
            self.events.append(
                TraceEvent(
                    issued_at=now,
                    resumed_at=resume,
                    completed_at=completion,
                    core=core,
                    mtp=mtp,
                    tag=tag,
                )
            )
        else:
            self.dropped += 1
        return resume, completion

    def detach(self):
        """Stop tracing; the simulator keeps running untraced.

        Restores the hook found at attach time.  With none, the instance
        attribute goes, so the main loops dispatch directly again and
        the simulator can replay compiled programs.
        """
        if self._previous is None:
            self._simulator.__dict__.pop("_execute", None)
        else:
            self._simulator._execute = self._previous

    # -- analysis ------------------------------------------------------------

    def blocked_time_by_tag(self):
        """Total thread-blocking nanoseconds per op tag."""
        totals = {}
        for event in self.events:
            totals[event.tag] = totals.get(event.tag, 0.0) + event.blocked_ns
        return totals

    def slowest(self, n=10):
        """The ``n`` events that blocked their thread longest."""
        return sorted(self.events, key=lambda e: -e.blocked_ns)[:n]

    def render(self, limit=40):
        """Text timeline of the first ``limit`` events."""
        lines = [
            f"{'t(ns)':>10s}  {'core':>4s}  {'mtp':>3s}  "
            f"{'blocked':>9s}  tag"
        ]
        for event in self.events[:limit]:
            lines.append(
                f"{event.issued_at:>10.1f}  {event.core:>4d}  "
                f"{event.mtp:>3d}  {event.blocked_ns:>9.1f}  {event.tag}"
            )
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (capacity)")
        return "\n".join(lines)
