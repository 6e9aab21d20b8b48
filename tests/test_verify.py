"""``tsqsort verify`` as a test: every self-check passes."""

import io

from tsqsort import verify


def test_every_verify_check_passes():
    out = io.StringIO()
    ok = verify.run_verify(out)
    lines = out.getvalue().splitlines()
    assert [line.split()[1] for line in lines] == [
        name for name, _ in verify.CHECKS]
    assert [line for line in lines if not line.startswith("PASS")] == []
    assert ok
