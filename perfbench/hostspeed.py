"""Host-speed probe: timings expressed at a fixed host speed.

The shared hosts this benchmark runs on change speed under the program's
feet: another tenant's load slows every instruction by up to about 2x for
milliseconds to minutes at a time, so two runs of identical code read
very different walls.  A measuring worker therefore runs a fixed,
program-independent probe (a short pure-Python loop, about 1 ms at full
speed) from a ``SIGALRM`` timer every :data:`INTERVAL_S` of wall time,
and records how long each probe took.

* :func:`net_clock` is ``time.perf_counter`` minus the time spent in
  probes, so a wall or latency measured with it contains program work
  only.
* :func:`over` turns a net duration into *reference seconds*:
  the duration times :data:`NOMINAL_S` over the probes' mean duration
  around it.  A program that does more work reads proportionally more;
  a host that slows both the program and the probe cancels out.
* :func:`dense` probes ten times as often while a short interval worth
  measuring on its own is running.

The probe never touches the program, so nothing the program does can
make it faster or slower except by competing for the same CPU.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List

_perf = time.perf_counter

#: Iterations of the probe loop (about 1 ms at full speed).
PROBE_LOOPS = 8_000
#: The probe's duration at full speed on the 2-vCPU host the benchmark
#: was tuned on (the fastest of many probes): one reference second is a
#: second of that host at full speed.
NOMINAL_S = 0.0011
#: Wall seconds between probes (a tenth of that while :func:`dense`).
INTERVAL_S = 0.1
#: A duration with fewer probes inside it is measured against this many
#: probes nearest to its midpoint.
NEAREST = 5

#: Net-clock instant (start) of each probe, ascending, and its duration.
_AT: List[float] = []
_TOOK: List[float] = []
#: Wall seconds spent in probes so far.
_SPENT = [0.0]
_TABLE = dict.fromkeys(range(256), 0)


def probe(loops: int = PROBE_LOOPS) -> float:
    """Run the probe loop once; returns its wall seconds."""
    table = _TABLE
    started = _perf()
    total = 0
    for i in range(loops):
        key = i & 255
        table[key] = table[key] + i
        total += i * i % 7
    return _perf() - started


def _sample(_signum=None, _frame=None) -> None:
    started = _perf()
    took = probe()
    _AT.append(started - _SPENT[0])
    _TOOK.append(took)
    _SPENT[0] += _perf() - started


def net_clock() -> float:
    """``time.perf_counter()`` minus every probe so far."""
    spent = _SPENT[0]
    now = _perf()
    while _SPENT[0] != spent:  # a probe ran in between: read again
        spent = _SPENT[0]
        now = _perf()
    return now - spent


#: Whether the timer is probing.
_ON = [False]


def start() -> None:
    """Probe every :data:`INTERVAL_S` from now on."""
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    _ON[0] = True


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    _ON[0] = False


def dense(on: bool) -> None:
    """Probe every ``INTERVAL_S / 10`` (``on``) or back every
    ``INTERVAL_S``; does nothing unless :func:`start` is in effect."""
    if _ON[0]:
        interval = INTERVAL_S / 10 if on else INTERVAL_S
        signal.setitimer(signal.ITIMER_REAL, interval, interval)


def _ensure(count: int) -> None:
    while len(_AT) < count:
        _sample()


def _window(lo: float, hi: float) -> List[float]:
    first = bisect.bisect_left(_AT, lo)
    last = bisect.bisect_right(_AT, hi)
    if last - first >= NEAREST:
        return _TOOK[first:last]
    _ensure(NEAREST)
    middle = (lo + hi) / 2.0
    centre = bisect.bisect_left(_AT, middle)
    first = max(0, min(centre - NEAREST // 2, len(_AT) - NEAREST))
    return _TOOK[first:first + NEAREST]


def over(seconds: float, started: float, ended: float) -> float:
    """``seconds`` of net wall between net instants ``started`` and
    ``ended``, in reference seconds."""
    took = _window(started, ended)
    return seconds * NOMINAL_S * len(took) / sum(took)

