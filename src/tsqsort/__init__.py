"""tsqsort: a copy-based three-way partition quicksort.

A generic comparison sort that keeps the pivot and one holdover element
outside the array so every element move is a single copy instead of a
three-copy swap, stores pivot-equal elements directly in a middle block,
and short-circuits sorted- and reversed-looking stages detected during
pivot sampling.  Ships with instrumented reference quicksorts, an
adversarial input generator battery and count predictors for
benchmarking.
"""

from .bigelem import Permutation, apply_permutation, sort_indirect
from .baselines import (REGISTRY, classic_qsort, dual_pivot_qsort,
                        get_algorithm, three_way_qsort)
from .config import DEFAULT_CONFIG, SortConfig
from .core import (PartitionFrame, Sorter, TempAllocationError, TempStore,
                   free_temp_storage, sort, sort_with_stats)
from .datagen import (GenSpec, KillerAdversary, ParkMillerGen, cook_input,
                      generate, killer_comparator, reorder)
from .handlers import (HandlerOutcome, handle_possibly_reversed,
                       handle_possibly_sorted)
from .instrument import (CountingComparator, ShadowWriteMonitor, StageRecord,
                         counting_comparator)
from .pivot import (MitigationRng, PivotDecision, fifteenth, median_of_3,
                    median_of_5, ninther, rng_next, select_pivot)
from .smallsort import insertion_sort
from .stats import SortStats

__version__ = "0.1.0"

__all__ = [
    "CountingComparator", "DEFAULT_CONFIG", "GenSpec", "HandlerOutcome",
    "KillerAdversary", "MitigationRng", "ParkMillerGen", "PartitionFrame",
    "Permutation", "PivotDecision", "REGISTRY", "ShadowWriteMonitor",
    "SortConfig", "SortStats", "Sorter", "StageRecord", "TempAllocationError",
    "TempStore", "apply_permutation", "classic_qsort", "cook_input",
    "counting_comparator", "dual_pivot_qsort", "fifteenth",
    "free_temp_storage", "generate", "get_algorithm",
    "handle_possibly_reversed", "handle_possibly_sorted", "insertion_sort",
    "killer_comparator", "median_of_3", "median_of_5", "ninther", "reorder",
    "rng_next", "select_pivot", "sort", "sort_indirect", "sort_with_stats",
    "three_way_qsort",
]
