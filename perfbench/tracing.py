"""Spans and counters recorded from outside the sp2span package.

Every probe replaces a module attribute with a wrapper, at the name the
caller looks up at call time (for example `frames.ell`, which frames binds
by name at import, rather than `bundle.ell`).  Nothing under `src/` knows
about the probes, and `patched` restores every original attribute on exit.

A span's self time is its duration minus the durations of the spans that
ran directly inside it, so the self times of nested layers add up to the
traced wall time without double counting.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    layers: dict = field(default_factory=lambda: defaultdict(LayerStats))
    # one accumulator per open span: the time its direct children took
    _open: list = field(default_factory=list)

    def wrap(self, layer: str, fn, on_result=None):
        """Wrap fn so each call records a span under `layer`; on_result, if
        given, receives (result, seconds) after every successful call."""
        perf = time.perf_counter
        stats = self.layers[layer]
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                children = open_spans.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - children
                if open_spans:
                    open_spans[-1] += dt
            if on_result is not None:
                on_result(result, dt)
            return result

        return wrapper


def observing(fn, on_result):
    """Wrap fn so on_result sees every value it returns; no timing."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(result)
        return result

    return wrapper


def counting(counter: dict, key: str, fn):
    """Wrap fn so every call increments counter[key]; no timing."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counter[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block,
    then put every original back, even when the block raises."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
