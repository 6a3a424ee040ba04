"""Spans around perfmine's layers, recorded from outside the package.

``traced(tracer)`` replaces, for the length of a ``with`` block, the
functions that ``perfmine.cli``, ``perfmine.pipeline`` and
``perfmine.evaluate`` call (looked up in the calling module, where the
call binds them) and a few fake-runtime methods, with wrappers that time
each call. Nothing inside perfmine changes. Spans are kept in memory.

A span's self time is its duration minus the durations of the wrapped
calls nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Spans that enclose whole commands; their self time is glue, not a layer.
ENVELOPES = ("pipeline.mine", "evaluate")


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = time.perf_counter_ns()
        self.children = 0


class Tracer:
    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self.durations: dict[str, list[int]] = defaultdict(list)  # ns per call
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    @contextmanager
    def span(self, name: str):
        frame = _Frame(name)
        self._stack.append(frame)
        try:
            yield frame
        finally:
            duration = time.perf_counter_ns() - frame.start
            self._stack.pop()
            self.durations[frame.name].append(duration)
            self.self_ns[frame.name] += duration - frame.children
            if self._stack:
                self._stack[-1].children += duration

    def innermost(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def within(self, name: str) -> bool:
        return any(frame.name == name for frame in self._stack)

    # -- summaries --------------------------------------------------------

    def median_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) / 1e6 if values else 0.0

    def total_ms(self, name: str) -> float:
        return sum(self.durations.get(name, ())) / 1e6

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def layer_self_s(self) -> float:
        """Self time of every span that is a layer, not a whole command."""
        return sum(ns for name, ns in self.self_ns.items()
                   if not name.startswith(ENVELOPES)) / 1e9


def _timed(tracer: Tracer, name: str, fn, label=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as frame:
            result = fn(*args, **kwargs)
            if label is not None:
                frame.name = f"{name}.{label(result)}"
            return result
    return wrapper


def _timed_iter(tracer: Tracer, name: str, fn):
    """Time each step of a generator; the caller's work between steps is not in it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        steps = fn(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    item = next(steps)
                except StopIteration:
                    return
            yield item
    return wrapper


def _counted(tracer: Tracer, fn, counter: str, when):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when():
            tracer.counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def _plan(tracer: Tracer):
    """(owner, attribute, replacement factory) for every wrapped call site."""
    cli = importlib.import_module("perfmine.cli")
    pipeline = importlib.import_module("perfmine.pipeline")
    evaluate = importlib.import_module("perfmine.evaluate")
    harvest = importlib.import_module("perfmine.harvest")
    runtime = importlib.import_module("perfmine.runtime")
    backends = importlib.import_module("perfmine.backends")

    def timed(name, label=None):
        return lambda fn: _timed(tracer, name, fn, label)

    return [
        (cli, "gate_with_runtime", timed("gate")),
        (cli, "mine_repository", timed("pipeline.mine")),
        (cli, "evaluate", timed("evaluate", label=lambda report: report.verdict)),
        (cli, "query", timed("store.query")),
        (cli, "read_entry", timed("store.read_entry")),
        (pipeline, "walk_history", lambda fn: _timed_iter(tracer, "harvest.walk", fn)),
        (pipeline, "apply_structural_filter", timed("harvest.filter")),
        (pipeline, "commit_diff_text", timed("harvest.diff")),
        (pipeline, "classify_commit", timed("classifier")),
        (pipeline, "prepare_environment", timed("orchestrator.prepare")),
        (pipeline, "build_with_repair", timed("orchestrator.build")),
        (pipeline, "run_tests_repeatedly", timed("orchestrator.measure")),
        (pipeline, "judge", timed("stats.judge")),
        (pipeline, "_persist_logs", timed("pipeline.persist_logs")),
        (pipeline, "snapshot_image", timed("orchestrator.snapshot")),
        (pipeline, "write_entry", timed("store.write")),
        (evaluate, "read_entry", timed("store.read_entry")),
        (evaluate, "run_tests_repeatedly", timed("orchestrator.measure")),
        (evaluate, "judge", timed("stats.judge")),
        (runtime.FakeSession, "run_suite", timed("runtime.run_suite")),
        (runtime.FakeSession, "copy_tree", timed("runtime.copy_tree")),
        (runtime.FakeRuntime, "open_image", timed("runtime.open_image")),
        (harvest, "run_git", lambda fn: _counted(
            tracer, fn, "harvest.run_git", lambda: tracer.innermost() == "harvest.walk")),
        (backends.StubBackend, "complete", lambda fn: _counted(
            tracer, fn, "classifier.model_calls", lambda: tracer.within("classifier"))),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the length of the block, then restore."""
    undo = []
    try:
        for owner, attr, wrap in _plan(tracer):
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, wrap(original))
            undo.append((owner, attr, original if own else None))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
