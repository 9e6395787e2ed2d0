"""Physical-region bookkeeping for Freon-EC (paper section 4.2).

"Freon-EC associates each server with a physical 'region' of the room.
We define the regions such that common thermal emergencies will likely
affect all servers of a region" — e.g. one region per air conditioner.
Freon-EC prefers to *replace* a hot server with one from a different
region (likely unaffected by the same emergency), and picks regions for
new capacity in round-robin order, preferring regions not currently
under an emergency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..errors import ClusterError


class RegionMap:
    """Server-to-region assignment plus per-region emergency counters."""

    def __init__(self, assignment: Mapping[str, str]) -> None:
        if not assignment:
            raise ClusterError("region map needs at least one server")
        self._region_of: Dict[str, str] = dict(assignment)
        self._regions: List[str] = sorted(set(assignment.values()))
        #: Members of each region, sorted by name.
        self._members: Dict[str, List[str]] = {
            region: [] for region in self._regions
        }
        for server in sorted(self._region_of):
            self._members[self._region_of[server]].append(server)
        self._emergencies: Dict[str, int] = {region: 0 for region in self._regions}
        self._rr_index = 0

    @property
    def regions(self) -> List[str]:
        """All region names, sorted."""
        return list(self._regions)

    @property
    def rr_index(self) -> int:
        """The round-robin cursor (exposed so policies can checkpoint it)."""
        return self._rr_index

    @rr_index.setter
    def rr_index(self, value: int) -> None:
        self._rr_index = int(value) % max(len(self._regions), 1)

    def region_of(self, server: str) -> str:
        """The region a server belongs to."""
        try:
            return self._region_of[server]
        except KeyError:
            raise ClusterError(f"server {server!r} has no region") from None

    def servers_in(self, region: str) -> List[str]:
        """Servers assigned to a region, sorted by name."""
        return list(self._members.get(region, ()))

    # -- emergency accounting ("increment/decrement count of emergencies
    #    in region", Figure 10) ------------------------------------------

    def note_emergency(self, server: str) -> None:
        """A component on ``server`` just crossed its high threshold."""
        self._emergencies[self.region_of(server)] += 1

    def clear_emergency(self, server: str) -> None:
        """A component on ``server`` just dropped below its low threshold."""
        region = self.region_of(server)
        if self._emergencies[region] > 0:
            self._emergencies[region] -= 1

    def under_emergency(self, region: str) -> bool:
        """True while any emergency is active in the region."""
        return self._emergencies.get(region, 0) > 0

    def emergency_count(self, region: str) -> int:
        """Active emergency count for a region."""
        return self._emergencies.get(region, 0)

    # -- selection (Figure 10's round-robin region choice) -----------------

    def pick_region(
        self,
        has_candidate: Callable[[str], bool],
    ) -> Optional[str]:
        """Round-robin pick of a region with a usable server.

        "select a region that (a) has at least one server that is off,
        and (b) preferably is not under an emergency."  ``has_candidate``
        says whether a region currently has a usable (e.g. powered-off)
        server.  Regions not under emergency are preferred; the
        round-robin cursor advances past the returned region.
        """
        n = len(self._regions)
        calm_choice: Optional[int] = None
        any_choice: Optional[int] = None
        for offset in range(n):
            idx = (self._rr_index + offset) % n
            region = self._regions[idx]
            if not has_candidate(region):
                continue
            if not self.under_emergency(region):
                calm_choice = idx
                break
            if any_choice is None:
                any_choice = idx
        chosen = calm_choice if calm_choice is not None else any_choice
        if chosen is None:
            return None
        self._rr_index = (chosen + 1) % n
        return self._regions[chosen]


def two_region_split(servers: Sequence[str]) -> RegionMap:
    """The section 5.2 grouping: alternating servers per region.

    "we grouped machines 1 and 3 in region 0 and the others in region 1"
    — i.e. odd-indexed machines in one region, even-indexed in the other.
    """
    assignment = {
        server: f"region{idx % 2}" for idx, server in enumerate(servers)
    }
    return RegionMap(assignment)
