"""Spans around smch2's public functions, and exact counts of numpy FFT calls.

The tracer wraps a function under the name its calling module binds (for
instance ``smch2.stepping.drift_arrays``, which stepping imported from rhs),
so the program's own code is untouched.  Each call while the tracer is
active records one span ``(id, name, start_ns, end_ns, parent_id, thread)``
in a per-thread list in memory.  A span opened on an ensemble worker thread
with nothing open on that thread takes the main thread's innermost open span
as its parent.  A layer's self time is its duration minus the durations of
its children on the same thread; children on other threads run alongside it.

The numpy FFT entry points are wrapped before smch2 is imported (rhs binds
``np.fft.fft`` at import).  They are counted, not spanned: calls, and bytes
computed from the transform sizes (16 B per complex and 8 B per real element
of input plus output, so real FFTs halve the figure at the same call count).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: (name, bytes per input element, bytes per output element)
FFT_ENTRY_POINTS = (("fft", 16, 16), ("ifft", 16, 16), ("rfft", 8, 16), ("irfft", 16, 8))


class _ThreadState:
    def __init__(self):
        self.tid = threading.get_ident()
        self.stack = []
        self.spans = []
        self.fft = [0, 0]  # calls, bytes


class Tracer:
    def __init__(self):
        self.active = False
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._main = self._state()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _open(self, st: _ThreadState) -> tuple:
        if st.stack:
            parent = st.stack[-1]
        else:
            main_stack = self._main.stack
            parent = main_stack[-1] if main_stack else 0
        sid = next(self._ids)
        st.stack.append(sid)
        return sid, parent

    def _close(self, st, sid, parent, name, t0, work):
        t1 = time.perf_counter_ns()
        st.stack.pop()
        st.spans.append((sid, name, t0, t1, parent, st.tid, work))

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        st = self._state()
        sid, parent = self._open(st)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(st, sid, parent, name, t0, 0)

    def wrap(self, module, attr: str, name: str, work=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper.  ``work(args,
        kwargs)``, when given, computes a number stored with the span.  A name
        the module no longer has is recorded as absent."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            st = tracer._state()
            sid, parent = tracer._open(st)
            t0 = time.perf_counter_ns()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(st, sid, parent, name, t0, work(args, kwargs) if work else 0)

        setattr(module, attr, traced)

    def wrap_fft(self, fft_module) -> None:
        for fname, in_bytes, out_bytes in FFT_ENTRY_POINTS:
            setattr(fft_module, fname, self._counted(getattr(fft_module, fname), in_bytes, out_bytes))

    def _counted(self, orig, in_bytes, out_bytes):
        tracer = self

        @functools.wraps(orig)
        def counted(a, *args, **kwargs):
            out = orig(a, *args, **kwargs)
            if tracer.active:
                c = tracer._state().fft
                c[0] += 1
                c[1] += in_bytes * np.size(a) + out_bytes * out.size
            return out

        return counted

    def harvest(self) -> tuple:
        """Spans and FFT totals recorded since the last harvest, then cleared.
        Call only while no traced thread is running."""
        with self._lock:
            spans = [s for st in self._states for s in st.spans]
            calls = sum(st.fft[0] for st in self._states)
            nbytes = sum(st.fft[1] for st in self._states)
            for st in self._states:
                st.spans.clear()
                st.fft[0] = st.fft[1] = 0
        return spans, calls, nbytes


def layer_totals(spans) -> dict:
    """Per span name: calls, total duration, total self time (ns) and work."""
    by_id = {s[0]: s for s in spans}
    child_ns = defaultdict(int)
    for sid, _name, t0, t1, parent, tid, _work in spans:
        p = by_id.get(parent)
        if p is not None and p[5] == tid:
            child_ns[parent] += t1 - t0
    totals = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "work": 0})
    for sid, name, t0, t1, _parent, _tid, work in spans:
        t = totals[name]
        t["calls"] += 1
        t["ns"] += t1 - t0
        t["self_ns"] += t1 - t0 - child_ns[sid]
        t["work"] += work
    return dict(totals)


def write_spans(path, rounds) -> None:
    """One JSON array per line: [round, id, name, start_ns, end_ns, parent, thread]."""
    with gzip.open(path, "wt") as fh:
        for r, spans in enumerate(rounds):
            for sid, name, t0, t1, parent, tid, _work in spans:
                fh.write(json.dumps([r, sid, name, t0, t1, parent, tid]) + "\n")
