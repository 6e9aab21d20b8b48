"""The call-site walk of ``compare_inline`` skips statements whose
source lines hold no ``cmp3(``; a call anywhere in a statement's span
must still be found."""

from tsqsort.inline import _default_cmp3, compare_inline

from test_inline_compare import count_default_calls


def spread_calls(cmp3, xs, y):
    total = 0
    for x in xs:
        if x is not None:
            total += (0 if x is y
                      else cmp3 (
                          x, y))
        else:
            total += cmp3(y,
                          y) - 1
    return total


def test_calls_on_continuation_lines_are_inlined():
    compiled = compare_inline()(spread_calls)
    xs = [1, None, 2, 3]
    want = spread_calls(_default_cmp3, xs, 2)
    assert count_default_calls(lambda: compiled(_default_cmp3, xs, 2)) == 0
    assert compiled(_default_cmp3, xs, 2) == want == -1
