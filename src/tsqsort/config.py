"""Sorter configuration: the insertion threshold and feature toggles."""

from __future__ import annotations

from dataclasses import dataclass

from .pivot import MEDOF3_MAX_N


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
        if self.insertion_threshold >= MEDOF3_MAX_N:
            raise ValueError(
                f"insertion_threshold must be < {MEDOF3_MAX_N} "
                "(pivot.MEDOF3_MAX_N)")
        if self.reverse_tolerance < 0:
            raise ValueError("reverse_tolerance must be >= 0")


DEFAULT_CONFIG = SortConfig()
