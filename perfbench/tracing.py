"""Span tracing by wrapping the program's public functions from outside.

The program's source is not edited: :class:`Tracer` replaces a function
or method *where its caller looks it up* (for example
``repro.gc.protocol.extension_ot``, which the protocol imported by name,
as well as ``repro.gc.ot_extension.extension_ot``), records one span per
call and restores every original on :meth:`Tracer.remove`.

A span is ``(name, start, end, thread, parent)``; the parent is the
innermost traced call still open on the same thread, so a layer's self
time is its duration minus its children's.  Spans stay in memory until
the benchmark summarises them.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    thread: str
    parent: Optional[int]
    #: work items the call handled (copies garbled, requests evaluated)
    items: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        items: Optional[Callable[[tuple, Any], int]],
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(
                    Span(name, time.perf_counter(), 0.0,
                         threading.current_thread().name, parent)
                )
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = tracer.spans[index]
                span.end = time.perf_counter()
            if items is not None:
                span.items = items(args, result)
            return result

        return traced

    def patch(
        self,
        owners: List[Any],
        attr: str,
        name: str,
        items: Optional[Callable[[tuple, Any], int]] = None,
    ) -> None:
        """Wrap ``attr`` on every owner (modules or classes) with one wrapper.

        All owners must hold the same original object; the wrapper calls
        it directly, so a call through any of the names records one span.
        """
        original = getattr(owners[0], attr)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(
                    f"{owner.__name__}.{attr} is not the same object as "
                    f"{owners[0].__name__}.{attr}; cannot trace it"
                )
        wrapper = self._wrap(original, name, items)
        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched name (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def named(self, name: str, thread_prefix: str = "") -> List[Span]:
        with self._lock:
            return [
                s for s in self.spans
                if s.name == name and s.thread.startswith(thread_prefix)
            ]

    def self_time(self, span_index: int) -> float:
        """Duration minus the durations of direct child spans."""
        with self._lock:
            span = self.spans[span_index]
            children = sum(
                s.duration for s in self.spans if s.parent == span_index
            )
        return span.duration - children

    def indices(self, name: str) -> List[int]:
        with self._lock:
            return [i for i, s in enumerate(self.spans) if s.name == name]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, items handled and total seconds."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            spans = list(self.spans)
        for s in spans:
            entry = out.setdefault(s.name, {"calls": 0, "items": 0, "seconds": 0.0})
            entry["calls"] += 1
            entry["items"] += s.items
            entry["seconds"] += s.duration
        return out


def install_program_tracer() -> Tracer:
    """Wrap every layer boundary the benchmark reports on.

    Imports the program lazily so this module stays importable (and
    testable) without it.
    """
    import repro.compile.compiler as compiler
    import repro.gc.cipher as cipher
    import repro.gc.fastgarble as fastgarble
    import repro.gc.ot as ot
    import repro.gc.ot_extension as ot_extension
    import repro.gc.protocol as protocol
    import repro.service as service
    from repro.engine.pool import PregarbledPool

    tracer = Tracer()
    try:
        tracer.patch([service, compiler], "compile_model", "compile.compile_model")
        tracer.patch([cipher], "kdf_calibration", "kdf.calibration")
        tracer.patch([PregarbledPool], "acquire", "pool.acquire")
        tracer.patch([PregarbledPool], "warm", "pool.warm")
        tracer.patch([protocol, ot_extension], "extension_ot", "ot.extension")
        # base OTs as the extension calls them (its own module's name)
        tracer.patch([ot_extension], "run_ot_batch", "ot.base")
        tracer.patch([ot.OTGroup], "power", "ot.modexp")
        tracer.patch(
            [protocol, fastgarble], "garble_many", "garble.many",
            items=lambda args, result: len(result),
        )
        tracer.patch([fastgarble.FastEvaluator], "evaluate", "evaluate.one")
        tracer.patch(
            [fastgarble.FastEvaluator], "evaluate_many", "evaluate.many",
            items=lambda args, result: len(result),
        )
    except BaseException:
        tracer.remove()
        raise
    return tracer
