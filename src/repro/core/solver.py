"""The Mercury solver: coarse-grained finite-element temperature emulation.

Per tick (1 second by default, paper section 2.3) the solver performs the
three traversals of section 2.2:

1. **inter-machine air movement** — each machine's inlet temperature is
   the perfect-mixing weighted average of the cluster edges feeding it
   (air-conditioner supplies and, for recirculation, other machines'
   exhausts from the previous tick);
2. **intra-machine air movement** — air regions are visited in flow
   (topological) order; each one mixes its incoming streams and then
   exchanges heat with the components it touches in the heat-flow graph
   (the analytically integrated stream exchange of
   :func:`repro.core.physics.stream_exchange`);
3. **inter-component heat flow** — component-to-component conduction plus
   each component's own heat production ``P(utilization) * dt``.

Temperatures of every component and air region can be queried at any
time; the fiddle tool can force temperatures and change any constant
between ticks.  The solver is deterministic: same inputs, same outputs.

Two interchangeable engines perform the per-machine traversals:

* ``engine="python"`` (the default) — the reference implementation in
  this module: per-node dict loops, easy to read and to audit against
  the paper's equations;
* ``engine="compiled"`` — :mod:`repro.core.compiled` lowers the layouts
  into flat NumPy arrays and runs all machines of a step as vectorized
  array operations.  It matches the reference engine within 1e-9 °C
  (see ``tests/golden`` and ``tests/core/test_compiled_equivalence.py``)
  and is the engine the large-cluster benchmarks use.

Both engines share this class's public surface: sensor reads, fiddle
mutations, ``force_temperature``, cluster source overrides, and
:class:`~repro.core.state.History` recording behave identically.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .. import units
from ..errors import SolverError, UnknownNodeError, UnknownSensorError
from ..telemetry import ensure as _ensure_telemetry
from ..telemetry.registry import LATENCY_BUCKETS
from . import physics
from .graph import ClusterLayout, MachineLayout
from .state import History, MachineState, Sample

#: Default solver tick, seconds ("one iteration per second by default").
DEFAULT_DT = 1.0

#: Supported solver engines.
ENGINES = ("python", "compiled")


class Solver:
    """Computes temperatures for one machine or a cluster of machines.

    Parameters
    ----------
    layouts:
        The machines to emulate.  For a clustered system pass ``cluster``
        as well; machine inlet temperatures are then driven by the
        inter-machine air-flow graph instead of each layout's fixed
        inlet temperature.
    dt:
        Emulation time step in seconds.
    initial_temperature:
        Starting temperature of every object and air region ("all objects
        and air regions start the emulation at a user-defined initial air
        temperature").  Defaults to the first layout's inlet temperature.
    record:
        When true, a :class:`~repro.core.state.History` sample is stored
        for every machine on every tick.
    engine:
        ``"python"`` (reference dict-loop implementation) or
        ``"compiled"`` (vectorized NumPy implementation from
        :mod:`repro.core.compiled`; requires NumPy).
    telemetry:
        An optional :class:`repro.telemetry.Telemetry`; when given, the
        solver records per-tick latency, node-update counts, and (for
        the compiled engine) recompiles.  ``None`` means the shared
        no-op facade — the tick hot path then pays only a flag check.
    topology:
        An optional :class:`repro.topology.Topology`.  Machine inlets
        are then the convex mix of their zone's cold-aisle supply and
        the recirculation edges feeding them (see
        :mod:`repro.topology.recirculation`), replacing the cluster
        air graph; ``cluster`` and ``topology`` are mutually exclusive.
    """

    def __init__(
        self,
        layouts: Sequence[MachineLayout],
        cluster: Optional[ClusterLayout] = None,
        dt: float = DEFAULT_DT,
        initial_temperature: Optional[float] = None,
        record: bool = True,
        engine: str = "python",
        telemetry=None,
        topology=None,
    ) -> None:
        if not layouts:
            raise SolverError("at least one machine layout is required")
        if dt <= 0.0:
            raise SolverError("dt must be positive")
        names = [layout.name for layout in layouts]
        if len(set(names)) != len(names):
            raise SolverError(f"duplicate machine names: {names}")
        if cluster is not None:
            missing = set(names) - set(cluster.machines)
            extra = set(cluster.machines) - set(names)
            if missing or extra:
                raise SolverError(
                    "cluster layout machines do not match solver machines "
                    f"(missing={sorted(missing)}, extra={sorted(extra)})"
                )
        if topology is not None:
            if cluster is not None:
                raise SolverError(
                    "pass either cluster or topology, not both"
                )
            missing = set(names) - set(topology.machines)
            extra = set(topology.machines) - set(names)
            if missing or extra:
                raise SolverError(
                    "topology machines do not match solver machines "
                    f"(missing={sorted(missing)}, extra={sorted(extra)})"
                )
        self.dt = dt
        self.cluster = cluster
        self.topology = topology
        if topology is not None:
            from ..topology.recirculation import RecirculationOperator

            self._topology_op = RecirculationOperator(topology)
        else:
            self._topology_op = None
        if initial_temperature is None:
            initial_temperature = layouts[0].inlet_temperature
        self.machines: Dict[str, MachineState] = {
            layout.name: MachineState(layout, initial_temperature)
            for layout in layouts
        }
        self.time = 0.0
        self.iterations = 0
        #: Ticks skipped by :meth:`coast` (idle fast-forward).
        self.coasted_ticks = 0
        self.record = record
        self.history = History()
        #: Cluster-source supply-temperature overrides (fiddle).
        self._source_overrides: Dict[str, float] = {}
        #: Live inter-machine edge fractions (fiddle can edit these).
        self._cluster_fractions: Dict[Tuple[str, str], float] = (
            {(e.src, e.dst): e.fraction for e in cluster.edges}
            if cluster is not None
            else {}
        )
        #: Cached perfect-mixing plan per machine: the (is_source, src,
        #: weight) triples of `_cluster_inlet`, hoisted because the edge
        #: set and flows are static between fiddle edits.
        self._inlet_plans: Optional[Dict[str, List[Tuple[bool, str, float]]]] = None
        #: Exhaust temperature of each machine at the end of the previous
        #: tick; used by the inter-machine traversal.
        self._prev_exhaust: Dict[str, float] = {
            name: initial_temperature for name in self.machines
        }
        if engine not in ENGINES:
            raise SolverError(f"unknown engine {engine!r}; pick from {ENGINES}")
        self.engine = engine
        self.telemetry = _ensure_telemetry(telemetry)
        engine_labels = {"engine": engine}
        self._tel_tick_hist = self.telemetry.histogram(
            "solver_tick_seconds", engine_labels, buckets=LATENCY_BUCKETS,
            help="Wall-clock latency of one solver tick.",
        )
        self._tel_ticks = self.telemetry.counter(
            "solver_ticks_total", engine_labels,
            help="Solver iterations performed.",
        )
        self._tel_nodes = self.telemetry.counter(
            "solver_node_updates_total", engine_labels,
            help="Node (component + air region) temperature updates.",
        )
        self._tel_recompiles = self.telemetry.counter(
            "solver_recompiles_total", engine_labels,
            help="Lazy flow-array recompiles after fiddle edits (compiled engine).",
        )
        self._tel_sim_time = self.telemetry.gauge(
            "solver_sim_time_seconds", help="Current emulated time.",
        )
        self._n_nodes = sum(
            len(state.temperatures) for state in self.machines.values()
        )
        if engine == "compiled":
            from .compiled import CompiledEngine

            self._impl = CompiledEngine(self)
        else:
            self._impl = _PythonEngine(self)
        if record:
            self._record_all()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def machine(self, name: str) -> MachineState:
        """The mutable state of the named machine."""
        try:
            return self.machines[name]
        except KeyError:
            raise UnknownSensorError(name, "<machine>") from None

    def temperature(self, machine: str, node: str) -> float:
        """Current temperature (Celsius) of a node, as a sensor would report.

        ``node`` may be an exact vertex name or the special name
        ``"inlet"`` / ``"exhaust"`` which resolve through the layout.
        """
        state = self.machine(machine)
        resolved = self._resolve_node(state, node)
        return state.temperatures[resolved]

    def _resolve_node(self, state: MachineState, node: str) -> str:
        layout = state.layout
        if node in state.temperatures:
            return node
        lowered = node.strip().lower()
        if lowered == "inlet":
            return layout.inlet
        if lowered == "exhaust":
            return layout.exhaust
        # Case-insensitive fallback so sensor names like "cpu" work.
        matches = [name for name in state.temperatures if name.lower() == lowered]
        if len(matches) == 1:
            return matches[0]
        raise UnknownSensorError(layout.name, node)

    def set_utilization(self, machine: str, component: str, utilization: float) -> None:
        """Feed a component utilization (monitord's update path)."""
        self.machine(machine).set_utilization(component, utilization)

    def set_utilizations(self, machine: str, utilizations: Mapping[str, float]) -> None:
        """Feed several component utilizations at once."""
        state = self.machine(machine)
        for component, utilization in utilizations.items():
            state.set_utilization(component, utilization)

    # ------------------------------------------------------------------
    # fiddle interface
    # ------------------------------------------------------------------

    def force_temperature(self, machine: str, node: str, value: float) -> None:
        """Force a node temperature; ``node`` accepts "inlet"/"exhaust" too.

        Forcing the inlet installs a persistent override (this is how an
        air-conditioning failure is emulated); forcing any other node sets
        its state once and lets physics take over again.
        """
        state = self.machine(machine)
        resolved = self._resolve_node(state, node)
        if resolved == state.layout.inlet:
            state.inlet_override = value
        state.set_temperature(resolved, value)

    def clear_inlet_override(self, machine: str) -> None:
        """Return a machine's inlet to layout/cluster control."""
        self.machine(machine).inlet_override = None

    def set_source_temperature(self, source: str, value: float) -> None:
        """Override a cluster cooling source's supply temperature."""
        if self.cluster is None or source not in self.cluster.sources:
            raise UnknownNodeError(source)
        self._source_overrides[source] = value

    def set_cluster_fraction(self, src: str, dst: str, value: float) -> None:
        """Change an inter-machine air edge's fraction (fiddle).

        Emulates rack/air-path changes at run time, e.g. a failed damper
        sending less AC air to a machine.  Invalidates the cached
        perfect-mixing inlet weights.
        """
        if self.cluster is None or (src, dst) not in self._cluster_fractions:
            raise UnknownNodeError(f"{src}->{dst}")
        if not 0.0 <= value <= 1.0:
            raise ValueError("cluster air fraction must be in [0, 1]")
        self._cluster_fractions[(src, dst)] = value
        self._inlet_plans = None

    def set_zone_supply(self, zone: str, value: float) -> None:
        """Override a topology zone's cold-aisle supply temperature (fiddle).

        Emulates a zonal air-conditioner failure or set-point change;
        every machine in the zone sees the new supply in its inlet mix
        from the next tick on.
        """
        if self._topology_op is None:
            raise SolverError("no topology configured")
        self._topology_op.set_supply(zone, value)

    def set_recirculation(self, src: str, dst: str, weight: float) -> None:
        """Change a topology recirculation edge's weight (fiddle).

        Emulates a containment/blanking-panel change: more or less of
        ``src``'s exhaust re-entering ``dst``'s inlet.  The edge must
        exist in the topology and the new incoming weights of ``dst``
        must stay convex (sum <= 1).
        """
        if self._topology_op is None:
            raise SolverError("no topology configured")
        self._topology_op.set_weight(src, dst, weight)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def step(self, ticks: int = 1) -> None:
        """Advance the emulation by ``ticks`` solver iterations."""
        for _ in range(ticks):
            self._tick()

    def run(self, duration: float) -> None:
        """Advance the emulation by ``duration`` seconds of simulated time."""
        ticks = int(round(duration / self.dt))
        self.step(ticks)

    def coast(self, ticks: int = 1) -> None:
        """Advance the clock ``ticks`` iterations without recomputing.

        The idle fast-forward path of the cluster harness calls this
        once it has established that every input is unchanged and the
        temperature field has converged: all node temperatures (and the
        previous-tick exhausts the inter-machine traversal reads) are
        held verbatim, so a later real :meth:`step` continues from
        exactly the state a full step sequence would have reached, to
        within the caller's convergence threshold.
        """
        for _ in range(ticks):
            self.time += self.dt
            self.coasted_ticks += 1
            if self.telemetry.enabled:
                self.telemetry.advance(self.time)
                self.telemetry.counter(
                    "solver_coasts_total", {"engine": self.engine},
                    help="Solver ticks skipped by idle fast-forward.",
                ).inc()
                self._tel_sim_time.set(self.time)
            if self.record:
                self._record_all()

    def _tick(self) -> None:
        impl = self._impl
        measure = self.telemetry.enabled and impl.measure_host_latency
        if measure:
            tick_start = _time.perf_counter()
        if impl.provides_inlets:
            # The engine (the sweep batch pool) derives inlets itself and
            # maintains _prev_exhaust when it actually computes the tick.
            impl.tick(None)
        else:
            inlet_temps = self._inter_machine_traversal()
            impl.tick(inlet_temps)
            for name, state in self.machines.items():
                self._prev_exhaust[name] = state.temperatures[
                    state.layout.exhaust
                ]
        self.time += self.dt
        self.iterations += 1
        if self.telemetry.enabled:
            # Keep the facade's sim clock current even when the solver
            # runs standalone (offline traces, `repro solve`).
            self.telemetry.advance(self.time)
            if measure:
                self._tel_tick_hist.observe(_time.perf_counter() - tick_start)
            self._tel_ticks.inc()
            self._tel_nodes.inc(self._n_nodes)
            self._tel_sim_time.set(self.time)
        if self.record:
            self._record_all()

    def _inter_machine_traversal(self) -> Dict[str, float]:
        """Compute each machine's inlet temperature for this tick."""
        result: Dict[str, float] = {}
        for name, state in self.machines.items():
            if state.inlet_override is not None:
                result[name] = state.inlet_override
            elif self._topology_op is not None:
                result[name] = self._topology_op.inlet(name, self._prev_exhaust)
            elif self.cluster is not None:
                result[name] = self._cluster_inlet(name)
            else:
                result[name] = state.layout.inlet_temperature
        return result

    def _inlet_plan(self, machine: str) -> List[Tuple[bool, str, float]]:
        """The hoisted mixing terms feeding one machine's inlet.

        Each entry is ``(is_source, src, weight)`` in cluster edge order;
        ``weight`` is the stream's volumetric flow times the edge
        fraction, which only changes when a fiddle edit touches the edge
        set (see :meth:`set_cluster_fraction`), so the whole table is
        cached rather than recomputed every tick.  Zero-weight streams
        carry no air and are left out, so a machine whose every incoming
        edge is cut takes its layout inlet temperature, as one with no
        incoming edges does.
        """
        assert self.cluster is not None
        if self._inlet_plans is None:
            self._inlet_plans = {}
        plan = self._inlet_plans.get(machine)
        if plan is None:
            plan = []
            for edge in self.cluster.incoming(machine):
                fraction = self._cluster_fractions[(edge.src, edge.dst)]
                if edge.src in self.cluster.sources:
                    source = self.cluster.sources[edge.src]
                    flow = source.flow_m3s
                    if flow is None:
                        flow = sum(
                            units.cfm_to_m3s(m.fan_cfm)
                            for m in self.cluster.machines.values()
                        )
                    is_source = True
                else:  # recirculation from another machine's exhaust
                    flow = units.cfm_to_m3s(self.cluster.machines[edge.src].fan_cfm)
                    is_source = False
                if flow * fraction > 0.0:
                    plan.append((is_source, edge.src, flow * fraction))
            self._inlet_plans[machine] = plan
        return plan

    def _cluster_inlet(self, machine: str) -> float:
        """Perfect-mixing inlet temperature from the cluster air graph."""
        assert self.cluster is not None
        temps: List[float] = []
        weights: List[float] = []
        for is_source, src, weight in self._inlet_plan(machine):
            if is_source:
                source = self.cluster.sources[src]
                temp = self._source_overrides.get(src, source.supply_temperature)
            else:
                temp = self._prev_exhaust[src]
            temps.append(temp)
            weights.append(weight)
        if not temps:
            return self.machines[machine].layout.inlet_temperature
        return physics.mix_streams(temps, weights)

    def _machine_tick(self, state: MachineState, inlet_temperature: float) -> None:
        layout = state.layout
        dt = self.dt
        flows = state.flows()
        temps = state.temperatures
        start = dict(temps)  # component temps seen by all exchanges this tick

        # Heat gained by each component this tick (J), applied at the end.
        heat: Dict[str, float] = {name: 0.0 for name in layout.components}

        # --- intra-machine air traversal (advection + stream exchange) ---
        incoming = {region: layout.incoming_air(region) for region in layout.air_regions}
        air_heat_edges: Dict[str, List[Tuple[str, Tuple[str, str]]]] = {
            region: [] for region in layout.air_regions
        }
        for edge in layout.heat_edges:
            for region, other in ((edge.a, edge.b), (edge.b, edge.a)):
                if region in layout.air_regions and other in layout.components:
                    air_heat_edges[region].append((other, edge.key))

        for region in layout.air_order:
            flow = flows.get(region, 0.0)
            if region == layout.inlet:
                t_air = inlet_temperature
            else:
                mix_temps: List[float] = []
                mix_weights: List[float] = []
                for edge in incoming[region]:
                    fraction = state.fractions[(edge.src, edge.dst)]
                    upstream_flow = flows.get(edge.src, 0.0)
                    weight = upstream_flow * fraction
                    if weight > 0.0:
                        mix_temps.append(temps[edge.src])
                        mix_weights.append(weight)
                if mix_temps:
                    t_air = physics.mix_streams(mix_temps, mix_weights)
                else:
                    t_air = temps[region]  # stagnant pocket keeps its temperature
            capacity_rate = units.air_heat_capacity_rate(flow)
            for component, key in air_heat_edges[region]:
                exchange = physics.stream_exchange(
                    k=state.k[key],
                    t_body=start[component],
                    t_stream_in=t_air,
                    capacity_rate=capacity_rate,
                    dt=dt,
                )
                t_air = exchange.t_out
                heat[component] -= exchange.heat_to_stream
            temps[region] = t_air

        # --- inter-component heat flow + air-air conduction ---
        for edge in layout.heat_edges:
            a_is_comp = edge.a in layout.components
            b_is_comp = edge.b in layout.components
            k = state.k[edge.key]
            if a_is_comp and b_is_comp:
                mc_a = layout.components[edge.a].heat_capacity
                mc_b = layout.components[edge.b].heat_capacity
                q = physics.conduction_heat(k, start[edge.a], start[edge.b], dt, mc_a, mc_b)
                heat[edge.a] -= q
                heat[edge.b] += q
            elif not a_is_comp and not b_is_comp:
                # Air-air conduction between regions (rare; e.g. a stagnant
                # pocket).  Each side's per-tick thermal mass is the air
                # that transits it during the step.
                mc_a = max(units.air_heat_capacity_rate(flows.get(edge.a, 0.0)) * dt, 1e-9)
                mc_b = max(units.air_heat_capacity_rate(flows.get(edge.b, 0.0)) * dt, 1e-9)
                q = physics.conduction_heat(k, temps[edge.a], temps[edge.b], dt, mc_a, mc_b)
                temps[edge.a] -= q / mc_a
                temps[edge.b] += q / mc_b
            # component-air edges were handled in the air traversal

        # --- component self-heating and temperature update ---
        for name, component in layout.components.items():
            heat[name] += state.power_models[name].heat(state.utilizations[name], dt)
            temps[name] = start[name] + physics.temperature_delta(
                heat[name], component.mass, component.specific_heat
            )

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot all mutable solver state as plain JSON-able data.

        Captures everything :meth:`restore` needs to continue a run
        bit-for-bit: the clock, per-machine temperatures and live
        constants (k, fractions, fan, power scales, utilizations,
        inlet overrides), cluster-level overrides, and the previous-tick
        exhaust temperatures the inter-machine traversal reads.

        :class:`~repro.core.state.History` recordings are *not*
        checkpointed — a resumed solver records from the resume point
        onward; callers needing the full series keep their own records
        (as :class:`~repro.cluster.simulation.ClusterSimulation` does).
        """
        machines: Dict[str, object] = {}
        for name, state in self.machines.items():
            machines[name] = {
                "temperatures": dict(state.temperatures),
                "k": {f"{a}|{b}": v for (a, b), v in state.k.items()},
                "fractions": {
                    f"{src}|{dst}": v
                    for (src, dst), v in state.fractions.items()
                },
                "fan_cfm": state.fan_cfm,
                "inlet_override": state.inlet_override,
                "utilizations": dict(state.utilizations),
                "power_factors": {
                    component: model.factor
                    for component, model in state.power_models.items()
                },
            }
        data = {
            "time": self.time,
            "iterations": self.iterations,
            "prev_exhaust": dict(self._prev_exhaust),
            "source_overrides": dict(self._source_overrides),
            "cluster_fractions": {
                f"{src}|{dst}": v
                for (src, dst), v in self._cluster_fractions.items()
            },
            "machines": machines,
        }
        # The key is present only when a topology is configured, so
        # topology-free checkpoints stay byte-identical to older ones.
        if self._topology_op is not None:
            data["topology"] = self._topology_op.checkpoint()
        return data

    def restore(self, data: Mapping[str, object]) -> None:
        """Restore a :meth:`checkpoint` onto this solver.

        The solver must have been built from the same layouts (same
        machines, nodes, and edges).  All state is written through the
        :class:`~repro.core.state.MachineState` setter methods, so an
        attached engine listener (the compiled engine's array mirror)
        observes every mutation and stays in sync.
        """
        for name, saved in data["machines"].items():  # type: ignore[union-attr]
            state = self.machine(name)
            for node, value in saved["temperatures"].items():
                state.set_temperature(node, value)
            for key, value in saved["k"].items():
                a, b = key.split("|")
                state.set_k(a, b, value)
            for key, value in saved["fractions"].items():
                src, dst = key.split("|")
                state.set_fraction(src, dst, value)
            state.set_fan_cfm(saved["fan_cfm"])
            state.inlet_override = saved["inlet_override"]
            for component, value in saved["utilizations"].items():
                state.set_utilization(component, value)
            for component, factor in saved["power_factors"].items():
                state.set_power_scale(component, factor)
        self.time = float(data["time"])
        self.iterations = int(data["iterations"])
        self._prev_exhaust = {
            name: float(v) for name, v in data["prev_exhaust"].items()
        }
        self._source_overrides = {
            name: float(v) for name, v in data["source_overrides"].items()
        }
        for key, value in data["cluster_fractions"].items():
            src, dst = key.split("|")
            if self._cluster_fractions.get((src, dst)) != value:
                self.set_cluster_fraction(src, dst, value)
        if self._topology_op is not None and "topology" in data:
            self._topology_op.restore(data["topology"])

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _record_all(self) -> None:
        for name, state in self.machines.items():
            self.history.append(
                name,
                Sample(
                    time=self.time,
                    temperatures=dict(state.temperatures),
                    utilizations=dict(state.utilizations),
                    powers={c: state.power(c) for c in state.layout.components},
                ),
            )

    def __repr__(self) -> str:
        return (
            f"Solver({len(self.machines)} machines, dt={self.dt}, "
            f"t={self.time:.0f}s, engine={self.engine!r})"
        )


class _PythonEngine:
    """The reference engine: per-machine dict-loop traversals."""

    #: See :class:`repro.core.compiled.CompiledEngine` for the contract.
    provides_inlets = False
    measure_host_latency = True

    def __init__(self, solver: Solver) -> None:
        self._solver = solver

    def tick(self, inlet_temps: Mapping[str, float]) -> None:
        solver = self._solver
        for name, state in solver.machines.items():
            solver._machine_tick(state, inlet_temps[name])
