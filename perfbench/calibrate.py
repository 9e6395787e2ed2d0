"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on a small shared host whose speed drifts by tens of
percent, sometimes by 2x, in stretches of seconds to minutes:
neighbours on the same physical cores and memory slow every
instruction, so process CPU time drifts with wall time and longer runs
do not average it away.  What does track it is a fixed piece of work
timed at nearly the same moment.

:class:`Calibrator` times :func:`kernel`, a frozen mix of
interpreter-bound, NumPy-bound and parser/JSON work that never touches
the program under test, between the workload's timed stretches.  A
sample's *slowdown* is the kernel's time over :data:`REFERENCE_S`, its
time on the reference host; a timed stretch of ``wall`` seconds counts
as ``wall / slowdown`` *reference seconds*.  A change to the program
moves the workload's time and not the yardstick.
"""

from __future__ import annotations

import ast
import json
import statistics
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Seconds :func:`kernel` takes at the reference speed (Intel Xeon, 2
#: vCPUs, Python 3.11, NumPy 2.4, one BLAS thread, the median of a
#: quiet stretch of the host): the unit of a reference second.  Fixed,
#: so figures from different runs and commits stay comparable.
REFERENCE_S = 0.0150

#: Seconds of timed work between two samples.
CADENCE_S = 0.2

#: Samples on each side whose median smooths one sample.
SMOOTH = 2

_ROWS, _COLS = 10_000, 14
_RNG = np.random.default_rng(20061021)
_A = _RNG.random((_ROWS, _COLS))
_B = _RNG.random((_COLS, _COLS)) / _COLS
_C = np.empty_like(_A)
_D = np.empty_like(_A)


class _Node:
    __slots__ = ("heat", "flow", "peers")

    def __init__(self, heat: float) -> None:
        self.heat = heat
        self.flow = 0.0
        self.peers: List["_Node"] = []

    def exchange(self, k: float) -> float:
        moved = 0.0
        for peer in self.peers:
            q = k * (self.heat - peer.heat)
            peer.flow += q
            moved += q
        return moved


def _graph() -> List[_Node]:
    nodes = [_Node(20.0 + (i % 13)) for i in range(64)]
    for i, node in enumerate(nodes):
        node.peers = [nodes[(i + 1) % 64], nodes[(i + 7) % 64]]
    return nodes


_NODES = _graph()


def python_kernel(sweeps: int = 200) -> float:
    """Interpreter-bound work: attribute access, method calls, dict
    updates and float arithmetic over a small object graph."""
    nodes = _NODES
    seen = {}
    total = 0.0
    for sweep in range(sweeps):
        for node in nodes:
            node.flow = 0.0
        for i, node in enumerate(nodes):
            moved = node.exchange(0.01)
            key = (i + sweep) & 31
            seen[key] = seen.get(key, 0.0) + moved
            total += moved * 0.5
    return total + sum(seen.values())


def numpy_kernel(passes: int = 8) -> float:
    """NumPy-bound work on a 10k x 14 array, as a flat room's solve does:
    a small matmul, exponentials and reductions, into preallocated
    outputs so no pass allocates."""
    a, b, c, d = _A, _B, _C, _D
    total = 0.0
    for _ in range(passes):
        np.matmul(a, b, out=c)
        np.multiply(c, -0.5, out=d)
        np.exp(d, out=d)
        np.multiply(c, d, out=c)
        np.add(c, a, out=c)
        total += float(c.max())
    return total


_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n"
    f"    if x > {i}:\n"
    f"        return [x * y, {{'k': x, 'n': {i}}}]\n"
    f"    return (x + y) / {i + 1}\n"
    for i in range(70)
)
_DOCUMENT = [
    {"machine": f"m{i}", "temps": [20.0 + 0.5 * i, 30.0], "on": i % 2 == 0}
    for i in range(200)
]


def parser_kernel() -> int:
    """Branchy library work: parse a generated module and walk its
    syntax tree, then round-trip a document through JSON."""
    tree = ast.parse(_SOURCE)
    size = sum(len(type(node).__name__) for node in ast.walk(tree))
    return size + len(json.loads(json.dumps(_DOCUMENT)))


def kernel() -> None:
    """The calibration kernel: all three parts, once each."""
    python_kernel()
    numpy_kernel()
    parser_kernel()


class Calibrator:
    """Times the kernel between timed stretches and turns a stretch's
    wall seconds into reference seconds.

    ``sensitivity`` is how strongly the workload's time follows the
    kernel's: a stretch is divided by ``slowdown ** sensitivity``.  It
    is measured, per workload, as the slope of log workload time on log
    kernel time over a trace of the host drifting.
    """

    def __init__(self, sensitivity: float = 1.0) -> None:
        self.sensitivity = sensitivity
        #: (time, slowdown) per sample; time is the sample's midpoint.
        self.samples: List[Tuple[float, float]] = []
        kernel()  # first-call costs and page faults, untimed

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times, recording each slowdown."""
        for _ in range(times):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.samples.append(
                ((start + end) / 2.0, (end - start) / REFERENCE_S)
            )

    def slowdown(self) -> float:
        """Median slowdown over the samples so far (1.0 = the reference
        speed, 2.0 = twice as slow)."""
        return statistics.median(s for _, s in self.samples)

    def reference_seconds(self, windows: Sequence[Tuple[float, float]]) -> float:
        """Summed duration of ``windows`` in reference seconds.

        Each window is divided by the slowdown at its midpoint, read
        off the samples smoothed by a running median and interpolated
        in time, so drift inside a round is followed.
        """
        times = [t for t, _ in self.samples]
        raw = [s for _, s in self.samples]
        smooth = [
            statistics.median(raw[max(0, i - SMOOTH): i + SMOOTH + 1])
            for i in range(len(raw))
        ]
        mids = [(start + end) / 2.0 for start, end in windows]
        walls = np.array([end - start for start, end in windows])
        factors = np.interp(mids, times, smooth) ** self.sensitivity
        return float((walls / factors).sum())


class Stopwatch:
    """The timed windows of one round.  With a calibrator, it samples
    the host once every :data:`CADENCE_S` seconds of timed work, always
    outside a window."""

    def __init__(self, calibrator: Optional[Calibrator] = None) -> None:
        self.calibrator = calibrator
        self.windows: List[Tuple[float, float]] = []
        self._start = 0.0
        self._since = 0.0  # timed seconds since the last sample

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> None:
        end = time.perf_counter()
        self.windows.append((self._start, end))
        self._since += end - self._start
        if self.calibrator is not None and self._since >= CADENCE_S:
            self.calibrator.sample()
            self._since = 0.0

    def lap(self) -> None:
        """Inside a long window: close it, sample, and reopen it when a
        sample is due; otherwise leave it open."""
        if self.calibrator is None:
            return
        if self._since + time.perf_counter() - self._start >= CADENCE_S:
            self.stop()
            self.start()
