import functools

import pytest

# one line per acceptance criterion, printed after the run
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session", autouse=True)
def compile_every_body():
    """Compile every body of every decorated function before the first
    test.  A decorated function compiles a body on its first call of
    that kind, and several tests read the compiled code, or trace it,
    before making any call."""
    from tsqsort import inline
    inline.compile_all()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cmp3(x, y):
    if x < y:
        return -1
    if x > y:
        return 1
    return 0


def reference_sort(values, cmp=cmp3):
    """Independent oracle: the library sort driven by the comparator."""
    return sorted(values, key=functools.cmp_to_key(cmp))


def three_way_counts(values, pivot, cmp=cmp3):
    """Brute-force partition oracle: (#below, #equal, #above)."""
    lo = sum(1 for v in values if cmp(v, pivot) < 0)
    eq = sum(1 for v in values if cmp(v, pivot) == 0)
    hi = sum(1 for v in values if cmp(v, pivot) > 0)
    return lo, eq, hi


def assert_stage_law(snapshot, a, b, new_l, new_r, pivot, cmp=cmp3):
    """Stage three-way law: strictly-below left of new_l, equal between,
    strictly-above right of new_r."""
    for i in range(a, new_l + 1):
        assert cmp(snapshot[i], pivot) < 0, (i, snapshot[i], pivot)
    for i in range(new_l + 1, new_r):
        assert cmp(snapshot[i], pivot) == 0, (i, snapshot[i], pivot)
    for i in range(new_r, b + 1):
        assert cmp(snapshot[i], pivot) > 0, (i, snapshot[i], pivot)


@pytest.fixture
def low_cut_config():
    from tsqsort import SortConfig

    return SortConfig(insertion_threshold=3)
