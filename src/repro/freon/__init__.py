"""Freon's building blocks: configuration, regions, and local DVFS.

The Freon, Freon-EC and traditional policies themselves live once, in
:mod:`repro.control.policies`, and run on every simulation stack.
"""

from .local import DEFAULT_PSTATES, DvfsGovernor, PStateChange
from .policy import ComponentThresholds, FreonConfig, weight_for_share_reduction
from .regions import RegionMap, two_region_split

__all__ = [
    "ComponentThresholds", "FreonConfig", "RegionMap",
    "two_region_split", "weight_for_share_reduction",
    "DEFAULT_PSTATES", "DvfsGovernor", "PStateChange",
]
