"""Sorter configuration: the insertion threshold and feature toggles."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SortConfig:
    """Settings of the triple-state sorter.

    Subranges of at most ``insertion_threshold`` elements go to the
    reduced-copy insertion sort; it must stay below
    ``pivot.MEDOF3_MAX_N``, the first rung of the pivot ladder, whose
    other rungs (``MEDOF5_MAX_N``, ``NINTHER_MAX_N``) are constants of
    ``pivot`` too.  ``reverse_tolerance`` bounds the misplaced elements
    the reversed fast path tolerates, and ``mitigation_enabled`` turns
    the per-sort jitter of the interior sample positions on.  A sort
    given an ``element_size`` of ``bigelem.LATE_SWAP_BYTES`` or more
    late-swaps.
    """

    insertion_threshold: int = 16
    reverse_tolerance: int = 3
    mitigation_enabled: bool = True

    def __post_init__(self):
        if self.insertion_threshold < 3:
            raise ValueError("insertion_threshold must be >= 3")
        # pivot.MEDOF3_MAX_N; pivot imports this module, so not by name
        if self.insertion_threshold >= 70:
            raise ValueError("pivot ladder thresholds must be strictly increasing")
        if self.reverse_tolerance < 0:
            raise ValueError("reverse_tolerance must be >= 0")


DEFAULT_CONFIG = SortConfig()
