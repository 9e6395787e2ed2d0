"""Freon's building blocks: configuration and regions.

The Freon, Freon-EC, traditional and local-DVFS policies themselves
live once, in :mod:`repro.control.policies`.
"""

from .policy import ComponentThresholds, FreonConfig, weight_for_share_reduction
from .regions import RegionMap, two_region_split

__all__ = [
    "ComponentThresholds", "FreonConfig", "RegionMap",
    "two_region_split", "weight_for_share_reduction",
]
