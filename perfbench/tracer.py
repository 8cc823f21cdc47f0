"""Spans and counters recorded from outside the program.

A traced run replaces each public function of fcaregistry at the place its
caller looks it up (``fcaregistry.retrieval.insert_object`` for
``insert_query``, ``fcaregistry.cli.search`` for the CLI, a class attribute
for a method) with a wrapper that records a span around the call.  The
program's own code is not changed.  Spans stay in memory until the run ends.

Counters are taken from the wrapped calls' arguments and results.  Taking
them costs time, so it is deferred until the operation that made them has
ended and no span is open.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

Observer = Callable[[tuple, object], dict]


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    children_ns: int = 0


@dataclass
class Op:
    """One root span: a query, an insert, a build, a CLI command or a set-up."""

    kind: str
    incl_ns: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counters: dict[str, list[float]] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: list[Op] = []
        self._stack: list[int] = []
        self._pending: list[tuple[Observer, tuple, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent].op if parent is not None else len(self.ops)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, op))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_ns += span.end - span.start

    @contextmanager
    def op(self, kind: str):
        """Root span of one operation; folds its spans and counters when done."""
        first = len(self.spans)
        sid = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(sid)
            record = Op(kind)
            for span in self.spans[first:]:
                dur = span.end - span.start
                record.incl_ns[span.name] = record.incl_ns.get(span.name, 0) + dur
                record.self_ns[span.name] = record.self_ns.get(span.name, 0) + dur - span.children_ns
                record.calls[span.name] = record.calls.get(span.name, 0) + 1
            for observer, args, result in self._pending:
                for key, value in observer(args, result).items():
                    record.counters.setdefault(key, []).append(value)
            self._pending.clear()
            self.ops.append(record)

    def wrap(self, fn: Callable, name: str, observer: Observer | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if observer is not None:
                tracer._pending.append((observer, args, result))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, sites: list[tuple[object, str, str, Observer | None]]):
        """Patch every (owner, attribute, span name, observer) site; restore on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in sites]
        try:
            for owner, attr, name, observer in sites:
                setattr(owner, attr, self.wrap(owner.__dict__[attr], name, observer))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------

    def ops_of(self, kinds: tuple[str, ...]) -> list[Op]:
        return [o for o in self.ops if o.kind in kinds]

    def per_op_ms(self, names: tuple[str, ...], own: bool = False) -> float:
        """Median over operations that called any of ``names`` of the time in them.

        Inclusive time by default, self time with ``own``.  0 when no
        operation made such a call.
        """
        values = []
        for o in self.ops:
            source = o.self_ns if own else o.incl_ns
            if any(n in o.calls for n in names):
                values.append(sum(source.get(n, 0) for n in names) / 1e6)
        return statistics.median(values) if values else 0.0

    def calls_per_op(self, name: str, kinds) -> float:
        """Mean number of calls per operation of the given kinds."""
        ops = self.ops_of(kinds)
        return float(statistics.mean(o.calls.get(name, 0) for o in ops)) if ops else 0.0

    def mean_per_op_ms(self, name: str, kinds) -> float:
        """Mean inclusive time per operation of the given kinds, calls or not."""
        ops = self.ops_of(kinds)
        return sum(o.incl_ns.get(name, 0) for o in ops) / len(ops) / 1e6 if ops else 0.0

    def counter(self, key: str, how: Callable = statistics.median) -> float:
        values = [v for o in self.ops for v in o.counters.get(key, [])]
        return float(how(values)) if values else 0.0

    def breakdown(self, kind: str) -> dict:
        """Mean self time per span name over the operations of one kind.

        The self times of an operation's spans add up to its root span, so
        this shows which layer the operation's time went to.
        """
        ops = self.ops_of((kind,))
        if not ops:
            return {}
        names = sorted({n for o in ops for n in o.self_ns})
        self_ms = {n: sum(o.self_ns.get(n, 0) for o in ops) / len(ops) / 1e6 for n in names}
        root = f"op.{kind}"
        return {
            "ops": len(ops),
            "root_mean_ms": sum(o.incl_ns[root] for o in ops) / len(ops) / 1e6,
            "self_mean_ms": dict(sorted(self_ms.items(), key=lambda kv: -kv[1])),
        }

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                         "parent": s.parent, "op": s.op}
                    )
                    + "\n"
                )
