"""Operation accounting for the benchmark: every verdict is checked.

An operation fails when the call raises or when its answer differs from
the expected value.  A failure is recorded and counted; it never aborts
the run, so one defect cannot hide the others.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable

_UNSET = object()
_KEEP = 20  # failure messages kept for the report


class Checker:
    """Counts attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(
        self,
        what: str,
        fn: Callable[[], Any],
        expect: Any = _UNSET,
        accept: Callable[[Any], bool] | None = None,
    ) -> Any:
        """Run one operation and check its answer.

        ``expect`` compares the result with ``==``; ``accept`` is an oracle
        that may call back into the program (for example to validate a
        returned tree).  Returns the result, or None when the call raised.
        """
        self.attempted += 1
        try:
            got = fn()
            if expect is not _UNSET and got != expect:
                self._fail(what, f"got {_short(got)}, expected {_short(expect)}")
            elif accept is not None and not accept(got):
                self._fail(what, f"answer {_short(got)} rejected by its oracle")
            return got
        except Exception as e:  # a raising operation is a failed one; keep going
            frame = traceback.extract_tb(e.__traceback__)[-1]
            self._fail(what, f"raised {type(e).__name__}: {_short(e)} at {frame.name}:{frame.lineno}")
            return None

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < _KEEP:
            self.failures.append(f"{what}: {why}")


def _short(v: Any, limit: int = 160) -> str:
    text = repr(v) if not isinstance(v, BaseException) else str(v)
    return text if len(text) <= limit else text[: limit - 3] + "..."
