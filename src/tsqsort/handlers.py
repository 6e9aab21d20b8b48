"""Public entry points for the possibly-sorted / possibly-reversed
fast paths.

Both handlers verify cheap order hypotheses around an already-extracted
pivot.  On success the whole stage completes with a bypass; on any
mismatch they fall back into the partition machine at a labelled resume
point, keeping the scan progress made so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import core as _core
from .config import DEFAULT_CONFIG
from .core import PartitionFrame


@dataclass(frozen=True)
class HandlerOutcome:
    """Result of a fast-path attempt.

    ``kind`` is "bypass" (stage finished; ``new_l``/``new_r`` bound the
    pivot-equal middle block) or "fallback" (resume the machine at
    ``resume_point`` with ``frame`` carrying the preserved progress).
    ``frame`` takes no part in equality: a frame compares by identity,
    so two outcomes of the same fallback would otherwise differ.
    """

    kind: str
    new_l: int = -1
    new_r: int = -1
    resume_point: str = ""
    frame: PartitionFrame | None = field(default=None, compare=False)

    @property
    def bypassed(self) -> bool:
        return self.kind == "bypass"


def _outcome(ar, frame, label, cmp3, ct, finish: bool) -> HandlerOutcome:
    if label == _core._DONE:
        return HandlerOutcome("bypass", frame.new_l, frame.new_r)
    if finish:
        # an equals buffer of ceil(n/2) slots for the n-element range
        _core._run_machine(ar, cmp3, frame, label,
                           [None] * ((frame.b - frame.a + 2) // 2), ct)
    return HandlerOutcome("fallback", frame.new_l, frame.new_r,
                          _core._LABEL_NAMES[label], frame)


def handle_possibly_sorted(ar, frame: PartitionFrame, cmp=None, ct=None,
                           finish: bool = False) -> HandlerOutcome:
    """Run the sorted fast path for a stage whose pivot flag was +1.

    The pivot must already be extracted into ``frame.pivot`` with the
    center slot logically empty; the handler reads only the frame's
    range and pivot.  The stage bypasses when the pivot's equals span
    the two verify cursors; otherwise the frame is stored once for the
    resume point.  With ``finish`` the fallback (if any) is driven to
    stage completion so ``new_l``/``new_r`` are final.
    """
    cmp3 = cmp if cmp is not None else _core._default_cmp3
    if ct is None:
        ct = [0] * _core.CT_LEN
    label = _core._sorted_handler(ar, cmp3, frame, ct)
    return _outcome(ar, frame, label, cmp3, ct, finish)


def handle_possibly_reversed(ar, frame: PartitionFrame, cmp=None,
                             tolerance: int | None = None, ct=None,
                             finish: bool = False) -> HandlerOutcome:
    """Run the reversed fast path for a stage whose pivot flag was -1.

    ``tolerance`` bounds how many elements already sitting on their
    final side are skipped before giving up on the reversal hypothesis.
    The swap loop ends in a phase that absorbs equals below or above
    the center, or that finishes a side the cursors have settled; each
    of these ends the stage or falls back at its own resume point.
    A frame of one or two elements, which a sort never hands to the
    handler, has no pair to swap: its scans would step past the range,
    so the sorted fast path ends that stage instead.
    """
    cmp3 = cmp if cmp is not None else _core._default_cmp3
    if ct is None:
        ct = [0] * _core.CT_LEN
    if tolerance is None:
        tolerance = DEFAULT_CONFIG.reverse_tolerance
    if frame.b - frame.a < 2:
        label = _core._sorted_handler(ar, cmp3, frame, ct)
    else:
        label = _core._reversed_handler(ar, cmp3, frame, ct, tolerance)
    return _outcome(ar, frame, label, cmp3, ct, finish)
