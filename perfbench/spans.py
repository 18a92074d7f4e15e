"""Span recording around the calls an experiment makes into each module.

The program is not edited: ``traced`` temporarily replaces, inside the
``twirlsim`` modules, the names that ``cli.run_experiment`` looks up at call
time, with wrappers that record a span per call. Spans are kept in memory
and reduced to per-layer numbers after the experiment.

Nesting follows a thread-local stack, so the two workers of a ``--threads 2``
run each build their own chain of spans. A span opened on a thread with an
empty stack belongs to the open root span (``run_experiment``), which is how
the pool workers' target spans attach to the experiment that started them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from dataclasses import dataclass

#: the package modules, i.e. the layers time is attributed to
LAYERS = ("cli", "nmr", "states", "paulis", "cliffords", "protocol")

#: names cli defines itself and run_experiment calls through its globals
CLI_OWN = ("build_channel", "_run_subset")

#: names protocol's exact decay looks up through its globals
PROTOCOL_NAMES = ("twirl_exact", "protocol_initial_state")

#: classmethods cli calls as ``QuantumChannel.<name>``
CHANNEL_BUILDERS = ("from_unitary", "unitary_ensemble", "identity")


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call."""

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
                parent = stack[-1] if stack else self._root
                is_root = parent is None
                if is_root:
                    self._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(span_id, parent, name, start, end,
                                           threading.get_ident()))
                    if is_root:
                        self._root = None

        return traced_call

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                 "end": s.end, "thread": s.thread} for s in self.spans]


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextlib.contextmanager
def traced(recorder: SpanRecorder, cli, protocol):
    """Install span wrappers in ``cli`` and ``protocol`` for the block's length.

    Wrapped: every function ``cli`` imports from the package, cli's own
    ``build_channel`` and per-target ``_run_subset``, the ``QuantumChannel``
    constructors cli calls (patched on the class, so every caller's
    construction is seen), and ``protocol``'s ``twirl_exact`` and
    ``protocol_initial_state``. Names missing from the program are skipped,
    so the spans follow the code as it changes.
    """
    saved: list[tuple[object, str, object]] = []

    def replace(owner, name: str, value) -> None:
        saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    try:
        for name, value in list(vars(cli).items()):
            if (inspect.isfunction(value) and value.__module__.startswith("twirlsim.")
                    and (value.__module__ != cli.__name__ or name in CLI_OWN)):
                replace(cli, name, recorder.wrap(_span_name(value), value))
        channel = getattr(cli, "QuantumChannel", None)
        for name in CHANNEL_BUILDERS:
            method = vars(channel).get(name) if channel is not None else None
            if isinstance(method, classmethod):
                replace(channel, name, classmethod(recorder.wrap(
                    f"states.QuantumChannel.{name}", method.__func__)))
        for name in PROTOCOL_NAMES:
            value = getattr(protocol, name, None)
            if inspect.isfunction(value):
                replace(protocol, name, recorder.wrap(_span_name(value), value))
        yield recorder
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out
