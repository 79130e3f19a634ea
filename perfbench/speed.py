"""Machine-speed probe, and a clock that states timed work at a reference speed.

A shared host runs the same code at speeds that differ by up to 2x and
change over seconds to minutes, as the host's other tenants come and go.
A run's wall times follow those phases, not the program. So the benchmark
times work in segments and probes the machine's speed at each segment
boundary, outside the segment, with a fixed pure-Python loop of its own.
Each segment is scaled by the reference round time over the mean of the
two probes around it: the result is the segment's time on a machine where
one probe round takes ``REFERENCE_ROUND_S``. A change to the program moves
the scaled time as much as the wall time, because the probe is not program
code; a change of host speed moves probe and segment together.

In its slow phases the host also takes the CPU away for milliseconds at a
time (steal time, up to 15% of a job's wall time). That lands on a few
segments, so it barely moves a median, but it does move a job's total. So
the process is pinned to one CPU, the clock reads that CPU's steal counter
around every segment, and a job's total is the sum of its segments less
their steal, each scaled. Probes count thread CPU time, which excludes
steal.
"""

from __future__ import annotations

import gc
import os
import time


class _Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class _Triple:
    __slots__ = ("s", "p", "o")

    def __init__(self, s, p, o):
        self.s, self.p, self.o = s, p, o


_TRIPLES = tuple(_Triple(f"s{i % 13}", f"p{i % 7}", i) for i in range(30))
_FIRST = (_Var("r"), "p3", _Var("a"))
_SECOND = (_Var("r"), _Var("q"), _Var("c"))


def _match(pattern, triple, binding):
    out = None
    for term, value in ((pattern[0], triple.s), (pattern[1], triple.p),
                        (pattern[2], triple.o)):
        if isinstance(term, _Var):
            bound = binding.get(term.name)
            if bound is None:
                if out is None:
                    out = dict(binding)
                out[term.name] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return binding if out is None else out


def _join_round():
    first = [m for t in _TRIPLES if (m := _match(_FIRST, t, {})) is not None]
    joined = [m for b in first[:2] for t in _TRIPLES
              if (m := _match(_SECOND, t, b)) is not None]
    rows = sorted({(b["r"], b["c"]) for b in joined}, key=lambda row: (row[0], -row[1]))
    return "|".join("%s=%d" % row for row in rows)


def _table_round():
    table = {}
    for i in range(300):
        key = (i % 37, i % 11)
        table[key] = table.get(key, ()) + (i,)
    busy = {k for k, v in table.items() if len(v) > 2}
    rows = [(a, b, c) for (a, b) in busy for c in table[(a, b)] if c % 3]
    rows.sort(key=lambda r: (r[2], r[0]))
    return rows


# Two kinds of round; a workload uses the one whose slowdowns track its own.
# On a shared host (2 vCPUs, Intel Xeon, CPython 3.11), over phases in which
# the probe's speed varied 1.7-2.1x, the slope of log workload time against
# log probe time was 0.9-1.0 for "table" on the stream and advise workloads,
# and 1.0 for "join" on graph_query, where "table" gave 1.2-1.3. The
# reference round times are that host's at its faster speed.
ROUNDS = {"table": _table_round, "join": _join_round}
REFERENCE_ROUND_S = {"table": 64e-6, "join": 38e-6}


def probe(kind, rounds):
    """Seconds per round of a fixed pure-Python loop of the given kind, run
    with the garbage collector off so that the size of the program's heap
    does not weigh on it. A "table" round fills a tuple-keyed dict, then
    runs a set and a list comprehension and a keyed sort; a "join" round is
    a small nested-loop join: calls, ``isinstance`` checks, slot reads,
    dict copies, a set of tuples and a keyed sort."""
    work = ROUNDS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        for _ in range(rounds):
            work()
        return (time.thread_time() - start) / rounds
    finally:
        if enabled:
            gc.enable()


_pinned = {}
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 0.01


def pin_to_one_cpu():
    """Pin this process to the lowest CPU it may run on, so that one CPU's
    steal counter is the steal it suffers. Returns the CPU, or None if the
    system does not allow it (then steal reads as 0)."""
    if "cpu" not in _pinned:
        try:
            cpu = min(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
            steal_s_of(cpu)
        except (AttributeError, OSError, ValueError, IndexError):
            cpu = None
        _pinned["cpu"] = cpu
    return _pinned["cpu"]


def steal_s_of(cpu):
    """Seconds the host has taken from ``cpu`` since boot (/proc/stat)."""
    tag = f"cpu{cpu} "
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(tag):
                return int(line.split()[8]) * _TICK_S
    raise ValueError(f"no {tag.strip()} line in /proc/stat")


def steal_s():
    cpu = _pinned.get("cpu")
    return 0.0 if cpu is None else steal_s_of(cpu)


class LapClock:
    """Times consecutive segments: ``start()``, then ``lap()`` at the end of
    each segment; the probes and steal reads run between segments and are
    in none of them. Per segment, ``raw`` holds the wall seconds, ``scaled``
    the same at the reference speed, and ``net`` the scaled seconds less
    the segment's steal (in whole clock ticks, so only a sum over many
    segments is meaningful). With ``rounds=0`` nothing is probed or read
    and all three are the wall time (for traced jobs, whose spans must not
    contain probes)."""

    def __init__(self, kind, rounds):
        self.kind, self.rounds = kind, rounds
        self.raw, self.scaled, self.net = [], [], []
        self._round = None
        self._steal = 0.0
        self._start = None

    def start(self):
        if self.rounds:
            self._round = probe(self.kind, self.rounds)
            self._steal = steal_s()
        self._start = time.perf_counter()

    def lap(self):
        """End the current segment, return its scaled seconds and start the
        next one."""
        end = time.perf_counter()
        raw = scaled = net = end - self._start
        if self.rounds:
            steal = steal_s() - self._steal
            after = probe(self.kind, self.rounds)
            factor = REFERENCE_ROUND_S[self.kind] / ((self._round + after) / 2.0)
            scaled, net = raw * factor, (raw - steal) * factor
            self._round = after
            self._steal = steal_s()
            end = time.perf_counter()
        self.raw.append(raw)
        self.scaled.append(scaled)
        self.net.append(net)
        self._start = end
        return scaled
