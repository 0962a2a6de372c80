"""Host-speed probe, so that timings can be read at a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed changes in
phases: a fixed pure-Python loop runs 30-40% slower (in CPU time as well as
wall time) for stretches that last from a fraction of a second to minutes.
A run of tens of seconds sees a different mix of phases each time, which
swamps the differences the benchmark exists to show.

``SpeedProbe`` samples the host's speed while the workload runs: every
``PERIOD_S`` seconds a SIGALRM handler times ``probe_loop``, a fixed loop of
plain Python that does not touch the package under test.  The speed
at a probe is ``1 / duration``, so a timed stretch of work is rescaled by
``REF_PROBE_S * mean(1 / probe duration)`` over the probes inside it (the
time-average of the speed, as the probes fire at a fixed period): the
result reads as the stretch's wall time on a host where the probe loop
takes ``REF_PROBE_S``, whatever phases it ran in.
A slower program is still slower by the same factor, since the probe loop
does not change with it.  The probes' own time is taken out of every
stretch they interrupt.

The handler runs in the main thread between bytecodes, so it changes no
result of the program; it costs about 0.1 ms every 10 ms (about 1%).
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
PROBE_ITERATIONS = 1000
# Duration of probe_loop on the reference host (2-core Xeon VM at 2.1 GHz,
# CPython 3) in its fast phase.  A constant, so that normalized values of two
# runs compare whatever phases each of them saw.
REF_PROBE_S = 7e-5
# Consecutive operations are grouped until their group holds this many
# probes; every operation of a group is rescaled by the group's probes.
GROUP_PROBES = 16
# Probes timed back to back to rate a stretch that holds none: set-up, or
# work shorter than PERIOD_S.
BURST = 15


def _pair(a, b):
    return (a, b)


def probe_loop():
    """Integer arithmetic, then calls, small tuples and dict updates.

    The mix matters: over the host's phases the workloads' speed tracks
    this loop's with a log-log slope near 1, while arithmetic alone
    changes less than they do (slope 1.15-1.4).
    """
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    counts = {}
    for i in range(PROBE_ITERATIONS // 7):
        key = _pair(i, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return s + len(counts)


def time_probe():
    t = time.perf_counter()
    probe_loop()
    return time.perf_counter() - t


class SpeedProbe:
    """Times ``probe_loop`` every ``PERIOD_S`` seconds while active.

    ``spent`` is the probes' total time so far and ``durations`` each
    probe's time, so a caller reads both before and after an operation to
    get its net time and the probes that fell inside it.
    """

    def __init__(self):
        self.durations = []
        self.spent = 0.0
        self._previous = None

    def _fire(self, _signum, _frame):
        d = time_probe()
        self.durations.append(d)
        self.spent += d

    def __enter__(self):
        probe_loop()  # warm up
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def burst_factor():
    """Speed factor of this moment from ``BURST`` back-to-back probes."""
    return REF_PROBE_S * statistics.fmean(1 / time_probe() for _ in range(BURST))


def normalize(ops, durations):
    """Rescale operations to the reference host speed.

    ``ops`` is a list of ``(net_seconds, first_probe, end_probe)``: the
    operation's time without probes and the slice of ``durations`` that
    fired during it.  Consecutive operations are grouped until a group holds
    ``GROUP_PROBES`` probes (a short tail joins the group before it); each
    operation is multiplied by ``REF_PROBE_S * mean(1 / duration)`` over
    its group's probes.  Returns the rescaled times, in order.
    """
    groups, current = [], []
    for op in ops:
        current.append(op)
        if current[-1][2] - current[0][1] >= GROUP_PROBES:
            groups.append(current)
            current = []
    if current and groups:
        groups[-1].extend(current)
    elif current:
        groups.append(current)
    out = []
    for group in groups:
        probes = durations[group[0][1]:group[-1][2]]
        if probes:
            factor = REF_PROBE_S * statistics.fmean(1 / d for d in probes)
        else:  # all of it took less than a period: rate the moment after
            factor = burst_factor()
        out.extend(net * factor for net, _first, _end in group)
    return out
