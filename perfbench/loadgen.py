"""Load generators: a seeded open loop and a closed loop.

Both call an ``send(i)`` callback for operation ``i`` and time it on
``clock``; neither knows anything about the program under test.  An
operation that raises is recorded with its error and never retried.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Callable, List, Optional

import numpy as np

#: Head start before the first due time, so every sender is waiting.
OPEN_LOOP_LEAD_S = 0.05


@dataclasses.dataclass
class Operation:
    """One sent operation, times in seconds from the window start."""

    index: int
    due: float
    sent: float
    done: float
    #: the sender was idle and waiting for the due time (so any delay
    #: between ``due`` and ``sent`` is the generator's own lateness)
    sender_idle: bool = True
    result: Any = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """From when the operation was due, not when it was sent."""
        return self.done - self.due

    @property
    def queue_wait(self) -> float:
        return self.sent - self.due


def jittered_schedule(rng: np.random.Generator, rate: float, window: float) -> List[float]:
    """Seeded arrival offsets at ``rate`` over ``window``: one arrival
    placed uniformly at random in each ``1/rate`` slot.

    Neighbouring arrivals can still land together (bursts of two), but
    every seed offers the same load in every part of the window.  A
    Poisson schedule of the same length made the run-to-run spread of
    the latency median several times wider, because with ~20 requests
    the seed's burst pattern, not the program, set the median.
    """
    n = max(1, round(rate * window))
    return [(i + float(u)) / rate for i, u in enumerate(rng.uniform(0.0, 1.0, size=n))]


def run_open_loop(
    schedule: List[float],
    send: Callable[[int], Any],
    senders: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Operation]:
    """Send operation ``i`` at ``schedule[i]`` from a pool of senders.

    Operations go out in schedule order; when every sender is busy a
    due operation waits for the first free one, and that wait counts
    in its latency.
    """
    start = clock() + OPEN_LOOP_LEAD_S
    ops: List[Optional[Operation]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(schedule):
                return
            due = start + schedule[i]
            now = clock()
            idle = now < due
            if idle:
                sleep(due - now)
            sent = clock()
            result, error = None, None
            try:
                result = send(i)
            except Exception as exc:  # a failed request is data, not a crash
                error = f"{type(exc).__name__}: {exc}"
            ops[i] = Operation(
                i, due - start, sent - start, clock() - start, idle, result, error
            )

    threads = [
        threading.Thread(target=sender, name=f"perfbench-sender-{k}")
        for k in range(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [op for op in ops if op is not None]


def run_closed_loop(
    send: Callable[[int], Any],
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Operation]:
    """One client, next operation after the previous one completes.

    Sends at least one operation, and another only while the last one's
    duration still fits in ``seconds`` — so a run whose operations take
    longer than the window does exactly one.
    """
    start = clock()
    ops: List[Operation] = []
    while True:
        sent = clock() - start
        if ops and sent + (ops[-1].done - ops[-1].sent) > seconds:
            return ops
        result, error = None, None
        try:
            result = send(len(ops))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        ops.append(
            Operation(len(ops), sent, sent, clock() - start, True, result, error)
        )
