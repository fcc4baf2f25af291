"""Deterministic discrete-event network simulation.

Events live in a heap keyed by (virtual time, tiebreak counter), so the
processing order is a pure function of the seed and the inputs.  Virtual
time is integer microseconds; nothing reads a wall clock.

Per-link behaviour: uniform delay jitter inside [delay_min, delay_max]
and an independent drop probability.  Node fault scripts use the
vocabulary crash@t, mute@t..t', equivocate@h.  The network does not act
on them: `pvx.consensus.World` does, and for equivocate@h it rewrites the
Byzantine replica's outbound messages, so `PBFTNode` is honest only.  Its
votes at h are its PrePrepare, Prepare and Commit; a CatchUp it sends for h
hands on the commit certificate of the block that committed there, and is
not one of them.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FaultScript:
    crash_at: int | None = None
    mute_windows: tuple[tuple[int, int], ...] = ()
    equivocate_heights: frozenset[int] = frozenset()

    def crashed(self, t: int) -> bool:
        return self.crash_at is not None and t >= self.crash_at

    def muted(self, t: int) -> bool:
        return any(a <= t <= b for a, b in self.mute_windows)


def parse_faults(specs: list[str]) -> FaultScript:
    """One node's clauses of the fault vocabulary: "crash@T", "mute@T..T'",
    "equivocate@H" (times in microseconds, H a block height).  The earliest
    crash wins.  A clause that could never act (a negative time, a window
    ending before it starts, a height below 1) is an error."""
    crashes: list[int] = []
    mutes: list[tuple[int, int]] = []
    heights: set[int] = set()
    for spec in specs:
        op, _, arg = spec.partition("@")
        if not arg:
            raise ValueError(f"fault {spec!r} missing @ argument")
        if op == "crash":
            crashes.append(int(arg))
            idle = crashes[-1] < 0
        elif op == "mute":
            start, sep, end = arg.partition("..")
            if not sep:
                raise ValueError(f"mute window {spec!r} needs start..end")
            mutes.append((int(start), int(end)))
            idle = not 0 <= mutes[-1][0] <= mutes[-1][1]
        elif op == "equivocate":
            heights.add(int(arg))
            idle = int(arg) < 1
        else:
            raise ValueError(f"unknown fault op {op!r}")
        if idle:
            raise ValueError(f"fault {spec!r} can never act")
    return FaultScript(min(crashes, default=None), tuple(mutes),
                       frozenset(heights))


@dataclass(frozen=True)
class Deliver:
    dst: str
    message: object


@dataclass(frozen=True)
class TimerFire:
    node_id: str
    kind: str


@dataclass(frozen=True)
class ClientSubmit:
    node_id: str
    tx: object


@dataclass
class NetStats:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    by_type: dict[str, int] = field(default_factory=dict)

    def count_type(self, message: object) -> None:
        name = type(message).__name__
        self.by_type[name] = self.by_type.get(name, 0) + 1


class SimNetwork:
    """Event queue plus the link model shared by all nodes."""

    def __init__(self, seed: int, delay: tuple[int, int], drop: float):
        self.rng = random.Random(seed)
        self.delay_min, self.delay_max = delay
        self.drop = drop
        self.time = 0
        self._counter = 0
        self._queue: list[tuple[int, int, object]] = []
        self.stats = NetStats()

    # -- scheduling ---------------------------------------------------------

    def schedule(self, at: int, event: object) -> None:
        if at < self.time:
            at = self.time
        self._counter += 1
        heapq.heappush(self._queue, (at, self._counter, event))

    def send(self, dst: str, message: object) -> None:
        self.stats.sent += 1
        self.stats.count_type(message)
        if self.drop > 0 and self.rng.random() < self.drop:
            self.stats.dropped += 1
            return
        latency = self.rng.randint(self.delay_min, self.delay_max)
        self.schedule(self.time + latency, Deliver(dst, message))

    def set_timer(self, node_id: str, kind: str, delay: int) -> None:
        self.schedule(self.time + delay, TimerFire(node_id, kind))

    # -- event loop ---------------------------------------------------------

    def pending(self) -> int:
        return len(self._queue)

    def pop(self) -> object | None:
        if not self._queue:
            return None
        at, _, event = heapq.heappop(self._queue)
        self.time = at
        if isinstance(event, Deliver):
            self.stats.delivered += 1
        return event
