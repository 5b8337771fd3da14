"""Benchmark-side span tracer.

The tracer wraps callables of the program from the outside — module
functions, methods and generator methods — only while a traced run is
active, and restores every original on :meth:`Tracer.uninstall`.  Each
call becomes one span ``(layer, fn, start, end, parent, step)`` on a
per-thread list, so recording needs no lock; the spans stay in memory
and are written out once, when the run ends.

A layer's *self time* is the summed duration of its spans minus the part
covered by their child spans (children always nest inside their parent
on the same thread), so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# One recorded span: [layer, fn, start, end, parent index (-1 = root), step].
Span = List


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time for the spans of ONE thread.

    ``spans[i][4]`` is the index of span ``i``'s parent in the same list
    (``-1`` for a root).  A span's self time is its duration minus the
    durations of its direct children.
    """
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def layer_self_times(threads: Iterable[Sequence[Span]]) -> Dict[str, float]:
    """Total self time per layer, summed over all threads."""
    total: Dict[str, float] = {}
    for spans in threads:
        for s, t in zip(spans, self_times(spans)):
            total[s[0]] = total.get(s[0], 0.0) + t
    return total


def covered_time(spans: Sequence[Span], intervals: Sequence[Tuple[float, float]]) -> float:
    """Time inside root spans of one thread, clipped to ``intervals``.

    Root spans of one thread never overlap, and neither do the step
    intervals, so a sweep over both sorted lists gives the exact
    covered length.
    """
    roots = sorted((s[2], s[3]) for s in spans if s[4] < 0)
    covered = 0.0
    i = 0
    for lo, hi in sorted(intervals):
        while i < len(roots) and roots[i][1] <= lo:
            i += 1
        j = i
        while j < len(roots) and roots[j][0] < hi:
            covered += max(0.0, min(hi, roots[j][1]) - max(lo, roots[j][0]))
            j += 1
    return covered


class Tracer:
    """Wraps program callables and records one span per call."""

    def __init__(self) -> None:
        self.step = -1  # current step id, set by the workload loop
        self._local = threading.local()
        # (thread ident, spans) per recording thread; a list, not a dict,
        # because idents are reused by later threads.
        self._lists: List[Tuple[int, List[Span]]] = []
        self._lists_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.main_thread = threading.main_thread().ident

    # -- recording -------------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            spans: List[Span] = []
            with self._lists_lock:
                self._lists.append((threading.get_ident(), spans))
            self._local.spans = spans
            self._local.stack = st = []
        return self._local.spans, st

    def _enter(self, layer: str, fn: str) -> int:
        spans, stack = self._state()
        idx = len(spans)
        spans.append([layer, fn, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.step])
        stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._local.spans[idx][3] = time.perf_counter()
        self._local.stack.pop()

    def _wrapper(self, layer: str, fn: Callable, qualname: str) -> Callable:
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            # Time each resumption (the consumer's wait for the next item),
            # not the generator's lifetime.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = enter(layer, qualname)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            leave(idx)
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(layer, qualname)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return wrapper

    # -- installation ----------------------------------------------------------

    def wrap_attr(self, owner, name: str, layer: str) -> None:
        """Wrap ``owner.name`` (a class attribute or module function).

        A module-level function is also replaced in every loaded
        ``repro`` or ``perfbench`` module that imported it by name, so
        calls through those references are traced too.
        """
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        qualname = f"{getattr(owner, '__module__', owner.__name__)}.{getattr(original, '__qualname__', name)}"
        wrapped = self._wrapper(layer, original, qualname)
        self._set(owner, name, wrapped)
        if not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith(("repro", "perfbench")) or mod is owner or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def wrap_functions_of(self, module, layer: str) -> None:
        """Wrap ``forward``/``backward`` of every autograd Function
        subclass defined in ``module`` — the ops eager execution applies
        and compiled plans replay."""
        from repro.autograd.engine import Function

        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and issubclass(value, Function)
                and value.__module__ == module.__name__
            ):
                for meth in ("forward", "backward"):
                    if meth in value.__dict__:
                        self.wrap_attr(value, meth, layer)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def threads(self) -> List[Tuple[int, List[Span]]]:
        with self._lists_lock:
            return list(self._lists)

    def layer_self_times(self, lo: float, hi: float) -> Dict[str, float]:
        """Self seconds per layer over the closed spans inside ``[lo, hi]``."""
        return layer_self_times(window(spans, lo, hi) for _, spans in self.threads())

    def coverage(self, intervals: Sequence[Tuple[float, float]]) -> float:
        """Share of the step intervals covered by main-thread layer spans."""
        spans = [
            s
            for tid, spans in self.threads()
            if tid == self.main_thread
            for s in window(spans, float("-inf"), float("inf"))
        ]
        total = sum(hi - lo for lo, hi in intervals)
        return covered_time(spans, intervals) / total if total > 0 else 0.0

    def write(self, path, t0: float) -> int:
        """Write all spans as JSON (times relative to ``t0``); returns count."""
        out = []
        for n, (tid, spans) in enumerate(self.threads()):
            for i, s in enumerate(spans):
                out.append(
                    {
                        "thread": "main" if tid == self.main_thread else f"thread{n}",
                        "id": i,
                        "layer": s[0],
                        "fn": s[1],
                        "start": s[2] - t0,
                        "end": s[3] - t0,
                        "parent": s[4],
                        "step": s[5],
                    }
                )
        with open(path, "w") as fh:
            json.dump(out, fh)
        return len(out)


def window(spans: Sequence[Span], lo: float, hi: float) -> List[Span]:
    """The closed spans lying inside ``[lo, hi]``, parents remapped.

    A kept span whose parent lies outside the window becomes a root.
    """
    remap: Dict[int, int] = {}
    out: List[Span] = []
    for i, s in enumerate(spans):
        if s[2] < lo or s[3] > hi or s[3] < s[2]:
            continue
        remap[i] = len(out)
        out.append([s[0], s[1], s[2], s[3], remap.get(s[4], -1), s[5]])
    return out
