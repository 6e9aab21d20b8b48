"""Public entry points for the possibly-sorted / possibly-reversed
fast paths.

Both handlers verify cheap order hypotheses around an already-extracted
pivot.  On success the whole stage completes with a bypass; on any
mismatch they fall back into the partition machine at a labelled resume
point, keeping the scan progress made so far.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core as _core
from .config import DEFAULT_CONFIG


@dataclass(frozen=True)
class HandlerOutcome:
    """Result of a fast-path attempt.

    ``kind`` is "bypass" (stage finished; ``new_l``/``new_r`` bound the
    pivot-equal middle block) or "fallback" (resume the machine at
    ``resume_point``).  ``resume`` is the handler's return value on a
    fallback, ``(label, l, r, ml, mr, m, lc, holdover)``: the machine's
    entry state with the scan progress kept; None on a bypass.
    """

    kind: str
    new_l: int = -1
    new_r: int = -1
    resume_point: str = ""
    resume: tuple | None = None

    @property
    def bypassed(self) -> bool:
        return self.kind == "bypass"


def _outcome(ar, a, b, pivot, resume, cmp3, ct,
             finish: bool) -> HandlerOutcome:
    label, l, r, ml, mr, m, lc, hold = resume
    if label == _core._DONE:
        return HandlerOutcome("bypass", l, r)
    new_l, new_r = a - 1, b + 1
    if finish:
        # an equals buffer of ceil(n/2) slots for the n-element range
        new_l, new_r, _ = _core._run_machine(
            ar, cmp3, (a + b) >> 1, pivot, label, l, r, ml, mr, m, lc, hold,
            [None] * ((b - a + 2) // 2), ct)
    return HandlerOutcome("fallback", new_l, new_r,
                          _core._LABEL_NAMES[label], resume)


def handle_possibly_sorted(ar, a: int, b: int, pivot, cmp=None, ct=None,
                           finish: bool = False) -> HandlerOutcome:
    """Run the sorted fast path for the stage over ``ar[a..b]`` whose
    pivot flag was +1.

    ``pivot`` must already be extracted, with the center slot
    ``(a + b) >> 1`` logically empty.  The stage bypasses when the
    pivot's equals span the two verify cursors; otherwise the handler
    returns the machine's entry state at the resume point.  With
    ``finish`` the fallback (if any) is driven to stage completion so
    ``new_l``/``new_r`` are final; without it they are ``a - 1`` and
    ``b + 1``.
    """
    cmp3 = cmp if cmp is not None else _core._default_cmp3
    if ct is None:
        ct = [0] * _core.CT_LEN
    resume = _core._sorted_handler(_core._scannable(ar), cmp3, a, b, pivot,
                                   ct)
    return _outcome(ar, a, b, pivot, resume, cmp3, ct, finish)


def handle_possibly_reversed(ar, a: int, b: int, pivot, cmp=None,
                             tolerance: int | None = None, ct=None,
                             finish: bool = False) -> HandlerOutcome:
    """Run the reversed fast path for the stage over ``ar[a..b]`` whose
    pivot flag was -1.

    ``tolerance`` bounds how many elements already sitting on their
    final side are skipped before giving up on the reversal hypothesis.
    The swap loop ends in a phase that absorbs equals below or above
    the center, or that finishes a side the cursors have settled; each
    of these ends the stage or falls back at its own resume point.
    A range of one or two elements, which a sort never hands to the
    handler, has no pair to swap: its scans would step past the range,
    so the sorted fast path ends that stage instead.
    """
    cmp3 = cmp if cmp is not None else _core._default_cmp3
    if ct is None:
        ct = [0] * _core.CT_LEN
    if tolerance is None:
        tolerance = DEFAULT_CONFIG.reverse_tolerance
    if b - a < 2:
        resume = _core._sorted_handler(_core._scannable(ar), cmp3, a, b,
                                       pivot, ct)
    else:
        resume = _core._reversed_handler(ar, cmp3, a, b, pivot, ct,
                                         tolerance)
    return _outcome(ar, a, b, pivot, resume, cmp3, ct, finish)
