"""Reports measured times at a fixed machine speed.

The 2-core VM the benchmark was built on shares its physical cores with
other tenants. Its speed drifts by up to 2x, within seconds as well as
over minutes, for every process alike. While timed work runs, a timer
signal interrupts it every INTERVAL_S and times a small fixed task (a
tick). A piece of timed work is reported as its measured time multiplied
by NOMINAL_S / (mean tick time over the piece): the time it would have
taken at the speed where the tick takes NOMINAL_S. The time spent in
ticks is excluded from every timing of work in this process by measuring
with ``Meter.clock``. Set-up, which runs in a child process on the other
core, is timed with ticks running too.

The task uses only the standard library and numpy, never alert_sift, so a
change to the package cannot move it. It mixes the kinds of work the
workloads do: JSON decoding, address and timestamp parsing, small dicts
and lists, and numpy reductions. In two 150-second tests on that VM,
the medians of 9-second windows of score-stream batches spread 14.5% and
26.5% raw (interquartile range over median), and 2.6% and 5.5% scaled by
samples of this task taken next to the batches.
"""

from __future__ import annotations

import datetime
import ipaddress
import json
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NOMINAL_S = 0.005  # one tick on the quiet VM (Xeon, Python 3.11)
INTERVAL_S = 0.25
_ROUNDS = 250

_RECORD = json.dumps({
    "timestamp": "2025-03-04T10:20:30Z", "src_ip": "203.0.113.7", "src_port": 51515,
    "dest_ip": "10.20.30.40", "dest_port": 443, "rule_uuid": "a" * 32, "action": "alert",
    "alert": {"signature_id": 2027863, "signature": "ET EXPLOIT Possible Exploit",
              "category": "attempted-admin"},
    "http": {"status": 404},
    "flow": {"pkts_toserver": 4, "pkts_toclient": 6, "bytes_toserver": 300, "bytes_toclient": 500},
})
_VALUES = np.arange(5000, dtype=float)


def _task() -> float:
    start = perf_counter()
    for i in range(_ROUNDS):
        obj = json.loads(_RECORD)
        ipaddress.ip_address(obj["src_ip"])
        datetime.datetime.fromisoformat("2025-03-04T10:20:30+00:00")
        copy = dict(obj)
        copy["scaled"] = [round(i / 7, 3) for _ in range(5)]
        _VALUES[_VALUES > i].sum()
    return perf_counter() - start


class Meter:
    """Ticks taken while timed work runs, and the clock that excludes them."""

    def __init__(self) -> None:
        self.ticks = [_task()]
        self.paused = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.ticks.append(_task())
        self.paused += perf_counter() - start

    def clock(self) -> float:
        """Seconds, not counting time spent in ticks."""
        return perf_counter() - self.paused

    @contextmanager
    def running(self):
        """Tick every INTERVAL_S inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Call before a piece of timed work; pass the result to scale()."""
        return len(self.ticks) - 1

    def scale(self, mark: int) -> float:
        """Tick once more; the factor taking the work since mark to nominal speed."""
        self.ticks.append(_task())
        return NOMINAL_S / statistics.fmean(self.ticks[mark:])
