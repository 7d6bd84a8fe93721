"""Open-loop HTTP load generator for ``repro serve``.

One process, two sender threads (one connection each, the box has
two CPUs).  Each request is due at a fixed offset from the phase
start; its latency is measured from that due time, so a stall is
charged to every request queued behind it.  The generator's own
lateness -- the gap between a request becoming sendable (due, and a
sender free) and actually being sent -- is recorded separately: if it
grows, the box, not the program, was slow, and the run is invalid.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SENDERS = 2
#: Client-side bound on one request; a timeout counts as a failure.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Outcome:
    index: int
    due: float          # perf_counter seconds
    sent: float
    done: float
    late: float         # generator lateness, seconds
    status: int
    body: str
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def span_ms(self) -> float:
        """Client-observed round trip (send to last byte)."""
        return (self.done - self.sent) * 1e3


def run_open_loop(
    schedule: Sequence[Tuple[float, Dict[str, object]]],
    call: Callable[[Dict[str, object]], Tuple[int, str]],
) -> List[Outcome]:
    """Send ``[(due offset s, document)]``; returns one outcome per
    request, in schedule order.  ``call`` posts one document and
    returns ``(HTTP status, body)``; an exception it raises becomes
    a failed outcome."""
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                return
            offset, document = schedule[index]
            due = start + offset
            free = time.perf_counter()
            wait = due - free
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            late = sent - max(due, free)
            try:
                status, body = call(document)
                error = ""
            except Exception as exc:
                # Every scheduled request must come back as an
                # outcome; a failure is charged to the program.
                status, body = 0, ""
                error = f"{type(exc).__name__}: {exc}"
            outcomes[index] = Outcome(
                index, due, sent, time.perf_counter(), late,
                status, body, error,
            )

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes  # type: ignore[return-value]
