"""The management-policy registry: one name space over both stacks.

Every thermal-management policy the repo implements — base Freon,
Freon-EC, the traditional red-line shutdown, red-line emergency control,
local DVFS — is registered here exactly once, with the set of simulation
stacks it can run on:

* ``"cluster"`` — the per-machine :class:`~repro.cluster.simulation.
  ClusterSimulation` (event kernel, lossy datagram channel, the paper's
  section 5 experiments).
* ``"scale"`` — the flattened :class:`~repro.topology.sim.
  ScaleSimulation` (1k-10k machines on one NumPy array).

A policy's ``factory`` builds a :class:`~repro.control.policies.
ControlPolicy` that acts through a :class:`~repro.control.view.
MachineStateView`; the same policy object runs unchanged on a scalar or
a vectorized view, so each stack builds it with :func:`build`.  Only
``"none"`` has no factory.

Look-ups go through :func:`get`; an unknown name raises
:class:`~repro.errors.ControlError` listing every name valid for the
requested stack, so embedding layers can surface actionable errors
(``ScaleSimulation`` re-wraps it as a ``TopologyError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..errors import ControlError

#: The two simulation stacks a policy may support.
STACKS = ("cluster", "scale")


@dataclass(frozen=True)
class PolicySpec:
    """One registered management policy.

    ``factory`` builds the stack-agnostic :class:`~repro.control.
    policies.ControlPolicy` (``factory(**kwargs)``); it is ``None`` for
    ``"none"`` (the name is still registered so both stacks share one
    validation list).
    """

    name: str
    description: str
    stacks: Tuple[str, ...]
    factory: Optional[Callable[..., object]] = None

    def __post_init__(self) -> None:
        for stack in self.stacks:
            if stack not in STACKS:
                raise ControlError(
                    f"unknown stack {stack!r}; pick from {STACKS}"
                )


#: Insertion-ordered registry; the order defines the canonical POLICIES
#: tuples exposed by each stack (and is covered by tests, so keep the
#: historical cluster order: none, freon, freon-ec, traditional,
#: local-dvfs).
_REGISTRY: Dict[str, PolicySpec] = {}


def register(spec: PolicySpec) -> PolicySpec:
    """Add one policy to the registry (idempotent re-registration)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ControlError(f"policy {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def names(stack: Optional[str] = None) -> Tuple[str, ...]:
    """Registered policy names, optionally limited to one stack."""
    if stack is None:
        return tuple(_REGISTRY)
    if stack not in STACKS:
        raise ControlError(f"unknown stack {stack!r}; pick from {STACKS}")
    return tuple(
        name for name, spec in _REGISTRY.items() if stack in spec.stacks
    )


def get(name: str, stack: Optional[str] = None) -> PolicySpec:
    """Look a policy up by name, checking stack support.

    Raises :class:`~repro.errors.ControlError` naming every policy
    valid for ``stack`` when the look-up fails — embeddings re-wrap it
    in their own error type but keep the message.
    """
    available = names(stack)
    spec = _REGISTRY.get(name)
    if spec is None or (stack is not None and stack not in spec.stacks):
        where = f" on the {stack!r} stack" if stack is not None else ""
        raise ControlError(
            f"unknown policy {name!r}{where}; pick from {available}"
        )
    return spec


def build(name: str, stack: str, **kwargs) -> object:
    """Instantiate a policy's stack-agnostic implementation.

    ``None`` for ``"none"``, the one policy without a factory.
    """
    spec = get(name, stack)
    if spec.factory is None:
        return None
    return spec.factory(**kwargs)
