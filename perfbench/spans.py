"""In-memory span recorder for the benchmark's traced run.

A :class:`Tracer` wraps public calls into the program's modules at class
(or module) level, so it also works where ``__slots__`` rules out
per-instance wrapping (``ArrayGraph``, ``bitset.DeltaRows``).  Each call
records one span: name, start, end, parent span and run id.  Spans are
kept in flat arrays while the run is live and written out once it ends;
:meth:`Tracer.summary` turns them into per-name self times (a span's
duration minus the time its child spans cover).

Wrappers only time and count; they draw no randomness and pass arguments
and results through unchanged, so a traced run follows the same
trajectory as an untraced one.  :meth:`Tracer.restore` puts every
original back.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Span recorder with class-level method wrapping."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._run = array("i")
        self._stack: List[int] = []
        self._patches: list = []
        #: counts gathered by wrapper probes at the same boundaries as the spans
        self.counters: Dict[str, float] = {}
        #: id stamped on every span opened from now on (one per converge phase)
        self.run_id = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def _wrapper(
        self,
        original: Callable,
        name: str,
        probe: Optional[Callable] = None,
        pre: Optional[Callable] = None,
    ) -> Callable:
        nid = self._name_id(name)
        opened, closed = self._open, self._close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            idx = opened(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                closed(idx)
            if probe is not None:
                probe(self, args, result)
            return result

        return traced

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        probe: Optional[Callable] = None,
        pre: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a traced wrapper.

        ``pre(tracer, args)`` runs before the span opens and
        ``probe(tracer, args, result)`` after it closes; both may add to
        :attr:`counters`.
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self._wrapper(original, name, probe, pre))

    def wrap_callable(self, fn: Callable, name: str) -> Callable:
        """A traced copy of ``fn`` (for callbacks the benchmark passes in)."""
        return self._wrapper(fn, name)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, most recent first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self._run, dtype=np.int32).copy(),
        }

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per span name: call count, total and self seconds, and durations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        out: Dict[str, Dict[str, object]] = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "durations": dur[sel],
            }
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())
