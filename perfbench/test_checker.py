"""The benchmark's checker counts wrong answers and raising calls as failures.

Run with ``python3 -m pytest perfbench/test_checker.py`` or
``python3 perfbench/test_checker.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checker import Checker  # noqa: E402


def test_wrong_answer_and_raising_call_both_fail():
    chk = Checker()
    assert chk.op("right", lambda: 2 + 2, expect=4) == 4
    chk.op("wrong expected value", lambda: 2 + 2, expect=5)
    chk.op("raises", lambda: 1 // 0, expect=0)
    chk.op("rejected by oracle", lambda: [3, 1], accept=lambda xs: xs == sorted(xs))
    chk.op("oracle raises", lambda: None, accept=lambda t: t.label is not None)
    chk.op("recursion", _deep, expect=0)
    assert chk.attempted == 6
    assert chk.failed == 5
    assert [f.split(":")[0] for f in chk.failures] == [
        "wrong expected value", "raises", "rejected by oracle", "oracle raises", "recursion",
    ]
    assert "ZeroDivisionError" in chk.failures[1]
    assert "RecursionError" in chk.failures[4]


def _deep(n: int = 0) -> int:
    return _deep(n + 1)


if __name__ == "__main__":
    test_wrong_answer_and_raising_call_both_fail()
    print("ok")
