"""In-memory spans recorded around calls into the package's layers.

A span is a record of (id, name, parent id, operation id, start, end,
attributes). Spans live in a list while the benchmark runs and are written
out as JSON once it ends. Untraced passes use ``no_span``, which records
nothing, so the timed code path is the same in both modes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc: object) -> None:
        return None


_NULL = _NullSpan()


def no_span(name: str, **attrs: object) -> _NullSpan:
    """Span factory for untraced passes: records nothing."""
    return _NULL


class Tracer:
    """Collects spans; ``span`` nests through an explicit parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def busy(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.named(name))

    def total(self, name: str, attr: str) -> float:
        """Sum of one numeric attribute over spans with this name."""
        return sum(s["attrs"].get(attr, 0) for s in self.named(name))

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, separators=(",", ":")) + "\n", encoding="utf-8")
