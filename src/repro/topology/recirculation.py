"""The sparse per-machine inlet coupling operator of a topology.

:class:`RecirculationOperator` turns a :class:`~repro.topology.model.
Topology` into the per-tick inlet computation

    ``inlet_i = (1 - sum_j w_ji) * supply(zone_i) + sum_j w_ji * exhaust_j``

generalizing the solver's scalar ``set_cluster_fraction`` weights into a
sparse coupling operator over the whole room.  It offers two bitwise
compatible evaluations:

* :meth:`inlet` — scalar, one machine at a time, reading a mapping of
  previous-tick exhausts.  This is what :class:`~repro.core.solver.
  Solver` calls from its inter-machine traversal (both the python and
  compiled engines go through the solver's scalar inlet dict).
* :meth:`inlets_array` — one sparse matvec over the whole machine axis
  (``np.add.at`` accumulation), used by the flattened
  :class:`~repro.topology.sim.FlatSolver`.

Both paths add the supply term first and then each incoming edge in
topology edge order, so they accumulate in the same floating-point
order; ``tests/topology/test_recirculation.py`` pins the bitwise
equality.

Fiddle edits are supported live: :meth:`set_supply` overrides a zone's
cold-aisle temperature (an AC failure), :meth:`set_weight` changes one
recirculation edge (a containment-curtain change).  Both invalidate the
compiled tables, which are rebuilt lazily.  The scalar tables and the
editable weight table are only built once something asks for them, so a
room that only takes the vectorized path never holds them.  All mutable
state round trips through :meth:`checkpoint` / :meth:`restore` as plain
JSON data.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import TopologyError
from .model import Topology, _SUM_TOLERANCE


class RecirculationOperator:
    """Live, editable inlet-mixing operator compiled from a topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.names: Tuple[str, ...] = topology.machines
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        #: Live edge weights keyed by (src, dst), built on the first
        #: edit, weight lookup or checkpoint (None: the topology's own).
        self._weights: Optional[Dict[Tuple[str, str], float]] = None
        #: Zone supply-temperature overrides (fiddle ``cluster zone``).
        self._supply_overrides: Dict[str, float] = {}
        # Compiled tables, rebuilt lazily after an edit: the scalar ones
        # on the first inlet(), the NumPy ones on the first inlets_array().
        self._supply_frac: Optional[List[float]] = None
        self._supply_temp: List[float] = []
        #: Per machine: incoming (src name, weight) terms in edge order.
        self._terms: List[List[Tuple[str, float]]] = []
        self._rows = None  # dst index per edge (NumPy path)
        self._cols = None  # src index per edge
        self._w = None  # weight per edge
        self._supply_arr = None
        self._frac_arr = None

    def _edge_weights(self) -> Dict[Tuple[str, str], float]:
        """The live (src, dst) -> weight table, built on first use."""
        if self._weights is None:
            self._weights = {
                (e.src, e.dst): e.weight for e in self.topology.recirculation
            }
        return self._weights

    def _invalidate(self) -> None:
        self._supply_frac = None
        self._rows = None

    # -- edits -----------------------------------------------------------

    def set_supply(self, zone: str, value: float) -> None:
        """Override one zone's cold-aisle supply temperature."""
        if zone not in self.topology.zones:
            raise TopologyError(f"unknown zone {zone!r}")
        self._supply_overrides[zone] = float(value)
        self._invalidate()

    def set_weight(self, src: str, dst: str, value: float) -> None:
        """Change one recirculation edge's weight.

        The edge must exist in the topology; the new per-destination
        weight sum must stay convex (<= 1).
        """
        weights = self._edge_weights()
        if (src, dst) not in weights:
            raise TopologyError(
                f"no recirculation edge {src!r}->{dst!r} in the topology"
            )
        if value < 0.0:
            raise TopologyError("recirculation weights must be >= 0")
        total = value + sum(
            w for (s, d), w in weights.items()
            if d == dst and (s, d) != (src, dst)
        )
        if total > 1.0 + _SUM_TOLERANCE:
            raise TopologyError(
                f"incoming weights of {dst!r} would sum to {total:.4f} > 1"
            )
        weights[(src, dst)] = float(value)
        self._invalidate()

    def supply_temperature(self, zone: str) -> float:
        """Current (possibly overridden) supply temperature of a zone."""
        if zone not in self.topology.zones:
            raise TopologyError(f"unknown zone {zone!r}")
        return self._supply_overrides.get(
            zone, self.topology.zones[zone].supply_temperature
        )

    def weight(self, src: str, dst: str) -> float:
        """Current weight of one recirculation edge."""
        try:
            return self._edge_weights()[(src, dst)]
        except KeyError:
            raise TopologyError(
                f"no recirculation edge {src!r}->{dst!r} in the topology"
            ) from None

    # -- compilation -----------------------------------------------------

    def _current_weights(self) -> Iterator[float]:
        """Current weight of every edge, in topology edge order."""
        edges = self.topology.recirculation
        if self._weights is None:
            return (e.weight for e in edges)
        weights = self._weights
        return (weights[(e.src, e.dst)] for e in edges)

    def _machine_supply(self) -> List[float]:
        positions = self.topology.positions
        return [
            self.supply_temperature(positions[name].zone)
            for name in self.names
        ]

    def _compile_scalar(self) -> None:
        n = len(self.names)
        terms: List[List[Tuple[str, float]]] = [[] for _ in range(n)]
        incoming = [0.0] * n
        for edge, w in zip(self.topology.recirculation, self._current_weights()):
            dst_i = self.index[edge.dst]
            terms[dst_i].append((edge.src, w))
            incoming[dst_i] += w
        self._terms = terms
        self._supply_temp = self._machine_supply()
        self._supply_frac = [1.0 - total for total in incoming]

    def _compile_arrays(self) -> None:
        edges = self.topology.recirculation
        index = self.index
        count = len(edges)
        self._rows = np.fromiter(
            (index[e.dst] for e in edges), dtype=np.intp, count=count
        )
        self._cols = np.fromiter(
            (index[e.src] for e in edges), dtype=np.intp, count=count
        )
        self._w = np.fromiter(self._current_weights(), dtype=float, count=count)
        # np.add.at accumulates unbuffered in edge order: the scalar
        # path's per-destination left fold.
        incoming = np.zeros(len(self.names))
        np.add.at(incoming, self._rows, self._w)
        self._frac_arr = 1.0 - incoming
        self._supply_arr = np.array(self._machine_supply(), dtype=float)

    # -- evaluation ------------------------------------------------------

    def inlet(self, machine: str, prev_exhaust: Mapping[str, float]) -> float:
        """Scalar inlet temperature of one machine for this tick."""
        if self._supply_frac is None:
            self._compile_scalar()
        i = self.index[machine]
        total = self._supply_frac[i] * self._supply_temp[i]
        for src, w in self._terms[i]:
            total += w * prev_exhaust[src]
        return total

    def inlets_array(self, prev_exhaust):
        """Per-machine inlet temperatures as one sparse matvec.

        ``prev_exhaust`` is the previous-tick exhaust array in canonical
        machine order.  ``np.add.at`` applies the edge contributions
        unbuffered in edge order, matching :meth:`inlet`'s scalar
        accumulation bitwise.
        """
        if self._rows is None:
            self._compile_arrays()
        out = self._frac_arr * self._supply_arr
        if len(self._rows):
            np.add.at(out, self._rows, self._w * prev_exhaust[self._cols])
        return out

    # -- checkpoint / restore --------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """All mutable operator state as plain JSON-able data."""
        return {
            "supply_overrides": dict(self._supply_overrides),
            "weights": {
                f"{src}|{dst}": w
                for (src, dst), w in self._edge_weights().items()
            },
        }

    def restore(self, data: Mapping[str, object]) -> None:
        """Restore a :meth:`checkpoint` (same topology required)."""
        overrides = {
            str(zone): float(v)
            for zone, v in data["supply_overrides"].items()
        }
        for zone in overrides:
            if zone not in self.topology.zones:
                raise TopologyError(f"unknown zone {zone!r} in checkpoint")
        known = self._edge_weights()
        weights: Dict[Tuple[str, str], float] = {}
        for key, w in data["weights"].items():
            src, dst = key.split("|")
            if (src, dst) not in known:
                raise TopologyError(
                    f"unknown recirculation edge {src!r}->{dst!r} "
                    "in checkpoint"
                )
            weights[(src, dst)] = float(w)
        if set(weights) != set(known):
            raise TopologyError("checkpoint weight set does not match topology")
        self._supply_overrides = overrides
        self._weights = weights
        self._invalidate()

    def __repr__(self) -> str:
        return (
            f"RecirculationOperator({len(self.names)} machines, "
            f"{len(self.topology.recirculation)} edges)"
        )
