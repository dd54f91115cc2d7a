"""Spans around the calls phasepos.harness makes into each package module.

The harness binds its collaborators (``apply_channel``, ``ccp_measure``...)
as module globals at import time, so replacing those globals for the length
of a run puts a span around every call into the channel, receiver,
ambiguity and waveform layers without touching the package.  Spans are kept
in memory; the benchmark turns them into metrics after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

_FFT_NAMES = ("fft", "ifft")


@dataclass
class Span:
    label: str          # "<module>.<function>", e.g. "channel.apply_channel"
    start: float
    end: float = 0.0
    parent: int = -1    # index of the enclosing span, -1 at top level

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # Computed from array sizes: bytes handed to numpy.fft.fft/ifft, keyed by
    # the label of the innermost open span.
    fft_bytes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    # Per label, values summed over calls: e.g. ccp sweep windows.
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _open: list[int] = field(default_factory=list)

    def _wrap(self, label: str, fn, on_call=None):
        spans, open_ = self.spans, self._open
        signature = inspect.signature(fn) if on_call is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, signature.bind(*args, **kwargs).arguments)
            span = Span(label, 0.0, parent=open_[-1] if open_ else -1)
            spans.append(span)
            open_.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            owner = self.spans[self._open[-1]].label if self._open else "untraced"
            self.fft_bytes[owner] += np.asarray(a).nbytes
            return fn(a, *args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self, harness):
        """Trace every phasepos function the harness module calls by global name."""
        targets = {}
        for name, obj in vars(harness).items():
            module = getattr(obj, "__module__", "") or ""
            callable_fn = inspect.isfunction(obj) or hasattr(obj, "cache_clear")
            if callable_fn and module.startswith("phasepos."):
                label = f"{module.rsplit('.', 1)[1]}.{obj.__name__}"
                targets[name] = self._wrap(label, obj, _ON_CALL.get(label))
        with replaced(harness, targets), replaced(
                np.fft, {n: self._count_fft(getattr(np.fft, n)) for n in _FFT_NAMES}):
            yield self


@contextlib.contextmanager
def replaced(module, replacements: dict):
    """Set module attributes for the length of a ``with`` block."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, fn in replacements.items():
            setattr(module, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def _count_ccp_windows(tracer: Tracer, arguments: dict) -> None:
    # One n_fft-sample complex128 window per sweep.
    sweeps = int(arguments["n_sweeps"])
    tracer.counts["receiver.ccp_measure.windows"] += sweeps
    tracer.counts["receiver.ccp_measure.window_bytes"] += sweeps * int(arguments["num"].n_fft) * 16


_ON_CALL = {"receiver.ccp_measure": _count_ccp_windows}
