"""Spans recorded by the benchmark around its calls into scomma.

A span has a name ``<layer>.<call>``, a start, an end, a parent and the id
of the instance it belongs to. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    instance: int
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.instance = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), parent, name, self.instance, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def of_instance(self, instance: int, root: str) -> list[Span]:
        """The spans under the root span named ``root`` of one instance."""
        keep: list[Span] = []
        ids: set[int] = set()
        for s in self.spans:  # parents precede children
            if s.instance != instance:
                continue
            if (s.parent is None and s.name == root) or s.parent in ids:
                keep.append(s)
                ids.add(s.id)
        return keep

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "instance": s.instance, "start": s.start, "end": s.end,
                }) + "\n")


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.seconds - child_time.get(s.id, 0.0)
    return out


def total_seconds(spans: list[Span], name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)
