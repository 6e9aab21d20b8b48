"""Run statistics and state identifiers shared by all sorters."""

from __future__ import annotations

from dataclasses import dataclass, field

# Partition-state identifiers.  Transitions are only
# S1 -> {S2L, S2R, S3L, S3R, EXIT2}, S2* -> EXIT2, S3L -> EXIT3L,
# S3R -> EXIT3R and EXIT3* -> EXIT2.
S1 = "S1"
S2L = "S2L"
S2R = "S2R"
S3L = "S3L"
S3R = "S3R"
EXIT2 = "Exit2"
EXIT3L = "Exit3L"
EXIT3R = "Exit3R"

STATE_IDS = (S1, S2L, S2R, S3L, S3R, EXIT2, EXIT3L, EXIT3R)


@dataclass
class SortStats:
    """Counters gathered during one sort call.

    ``element_writes`` counts every copy of an element: into the array,
    into the holdover slot, into the pivot slot, into a swap scratch
    variable, or into the temporary equals buffer.  ``virtual_swaps`` is
    the derived element_writes / 3, the unit that makes a copy-based
    algorithm comparable to swap-based ones.
    """

    comparisons: int = 0
    element_writes: int = 0
    array_writes: int = 0
    scratch_writes: int = 0
    temp_high_water: int = 0
    max_depth: int = 0
    stages: int = 0
    state_activations: dict = field(default_factory=dict)
    handler_activations: dict = field(
        default_factory=lambda: {"sorted": 0, "reversed": 0, "fallbacks": 0}
    )

    @property
    def virtual_swaps(self) -> float:
        return self.element_writes / 3.0

    def as_dict(self) -> dict:
        return {
            "comparisons": self.comparisons,
            "element_writes": self.element_writes,
            "virtual_swaps": self.virtual_swaps,
            "temp_high_water": self.temp_high_water,
            "max_depth": self.max_depth,
            "stages": self.stages,
            "state_activations": dict(self.state_activations),
            "handler_activations": dict(self.handler_activations),
        }
