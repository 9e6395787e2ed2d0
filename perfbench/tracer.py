"""Outside-in layer tracing for the benchmark.

The program under test is never edited: :class:`Tracer` replaces the
public functions listed in :data:`LAYERS` (class attributes or module
globals) with wrappers that record one span per call, and restores the
originals on exit.  A span is (layer, start, end, parent) and lives in
flat in-memory arrays until the run ends; a layer's *self* time is the
summed duration of its spans minus the part covered by their child
spans, so the layer times plus the unattributed remainder add up to the
traced wall time.

Functions bound at construction time (for example the kernel handlers
``ClusterSimulation._register_handlers`` stores) cannot be replaced
from outside; their callees are wrapped instead, and what remains shows
up in the caller's self time (``kernel.dispatch_self_s``).
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

#: layer name -> targets, each "module:Owner.attr" (class attribute) or
#: "module:attr" (module global, for names other modules imported by
#: value).  Every call to a target records one span under the layer.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "compiled.tick_group": (
        "repro.topology.sim:tick_group",
        "repro.parallel.batch:tick_group",
        "repro.core.compiled:tick_group",
    ),
    "tracegen.offered": ("repro.topology.sim:ScaleSimulation.offered_rates",),
    "topology.recirc": (
        "repro.topology.recirculation:RecirculationOperator.inlets_array",
    ),
    "lvs.allocate": (
        "repro.topology.sim:allocate_rates",
        "repro.cluster.lvs:LoadBalancer.allocate",
    ),
    "topology.step": ("repro.topology.sim:ScaleSimulation.step",),
    "control.evaluate": ("repro.control.policies:FreonECPolicy.evaluate",),
    "control.wake": (
        "repro.control.policies:FreonPolicy.wake",
        "repro.control.policies:FreonECPolicy.wake",
        "repro.control.policies:TraditionalControlPolicy.wake",
        "repro.control.policies:EmergencyPolicy.wake",
    ),
    "control.sample": ("repro.control.policies:FreonPolicy.sample",),
    "core.solve": ("repro.core.solver:Solver.step",),
    "core.feed": ("repro.core.solver:Solver.set_utilizations",),
    "kernel.dispatch": ("repro.kernel.core:EventKernel.run_next",),
    "webserver.step": ("repro.cluster.webserver:WebServer.step",),
    "daemons.tempd_wake": ("repro.daemons.tempd:Tempd.wake",),
    "freon.admd": (
        "repro.daemons.admd:Admd.sample",
        "repro.daemons.admd:Admd.deliver",
        "repro.freon.ec:AdmdEC.evaluate",
    ),
    "daemons.flush": ("repro.faults.injector:LossyChannel.flush",),
    "faults.advance": ("repro.faults.injector:FaultInjector.advance_to",),
    "serve.alerts": ("repro.serve.alerts:AlertEngine.evaluate",),
    "serve.advance": ("repro.serve.service:ThermalService.advance",),
    "telemetry.render": ("repro.telemetry.exposition:to_prometheus",),
    "batch.flush": ("repro.parallel.batch:BatchPool.flush",),
    "parallel.build": ("repro.parallel.engine:build_simulation",),
    "parallel.collect": ("repro.parallel.engine:collect_result",),
}

#: counter name -> targets whose calls are counted (no span).  A target
#: with a trailing "?" counts only calls that return a truthy value.
COUNTERS: Dict[str, Tuple[str, ...]] = {
    "control.set_power_calls": ("repro.control.view:FlatStateView.set_power",),
    "control.set_weight_calls": ("repro.control.view:FlatStateView.set_weight",),
    "control.set_cap_calls": (
        "repro.control.view:FlatStateView.set_connection_cap",
    ),
    "batch.pooled_runs": ("repro.parallel.batch:BatchPool.adopt?",),
    "batch.evictions": ("repro.parallel.batch:BatchPool.evict",),
}


def _resolve(target: str):
    """(owner, attribute, current value) for one target string."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        # Only wrap what the class itself defines: wrapping an inherited
        # attribute would shadow the base class's own wrapper.
        if attr not in vars(owner):
            raise AttributeError(f"{target} is not defined on the class")
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        #: Targets that could not be resolved (reported, never fatal).
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span from the benchmark itself."""
        return _Span(self, self._id(name))

    def _spanned(self, fn: Callable, name: str) -> Callable:
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn: Callable, name: str, truthy: bool) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result or not truthy:
                counts[name] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target (undo with :meth:`uninstall`)."""
        for name, targets in LAYERS.items():
            for target in targets:
                self._patch(target, lambda fn: self._spanned(fn, name))
        for name, targets in COUNTERS.items():
            for target in targets:
                truthy = target.endswith("?")
                self._patch(
                    target.rstrip("?"),
                    lambda fn: self._counted(fn, name, truthy),
                )

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------

    def layer_table(self, windows: Sequence[Tuple[float, float]]):
        """Per-layer self seconds and call counts over every span, and
        the seconds of ``windows`` that no top-level span covers.

        ``outer_calls`` counts calls not nested in a call of the same
        layer (a subclass method calling its base's wrapped method
        counts once).
        """
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        nested = [0] * len(self.names)
        covered = 0.0
        for i in range(n):
            nid = name_of[i]
            self_s[nid] += end[i] - start[i] - child[i]
            calls[nid] += 1
            p = parent[i]
            if p < 0:
                if any(lo <= start[i] <= hi for lo, hi in windows):
                    covered += end[i] - start[i]
            elif name_of[p] == nid:
                nested[nid] += 1
        table = {
            name: {
                "self_s": self_s[nid],
                "calls": calls[nid],
                "outer_calls": calls[nid] - nested[nid],
            }
            for nid, name in enumerate(self.names)
        }
        unattributed = sum(hi - lo for lo, hi in windows) - covered
        return table, unattributed


class _Span:
    __slots__ = ("_tracer", "_nid", "_index")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> None:
        self._index = self._tracer._open(self._nid)

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self._index)
