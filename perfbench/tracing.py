"""Spans and call counts recorded around calls into the library's modules.

`patched` swaps a library function for a wrapper in every mvcontrast module
that holds a reference to it (a function imported by name into another module
is reached through that module too) and restores the originals on exit.
`Tracer` records one span per call: id, name, start, end and the id of the
enclosing span.  Spans stay in memory until `save` writes them out.
"""

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Public functions wrapped in a traced run, as <module>.<function>.
TRACED = (
    "cli.main",
    "config.parse_config",
    "data.load_views", "data.save_views", "data.split", "data.synth_blobs",
    "evaluation.run_experiment", "evaluation.evaluate_split",
    "evaluation.project", "evaluation.knn_accuracy",
    "trainer.fit", "trainer.init_state", "trainer.sweep_W", "trainer.adam_step",
    "trainer.load_model", "trainer.save_model",
    "gradients.grad_w", "gradients.grad_P",
    "losses.total_loss", "losses.sample_infonce",
    "losses.structural_contrastive", "losses.reconstruction_penalty",
    "losses.sim_matrix",
)


@contextlib.contextmanager
def patched(qualname, make_wrapper):
    """Replace mvcontrast.<qualname> by make_wrapper(original) while active."""
    modname, fname = qualname.split(".")
    original = getattr(importlib.import_module(f"mvcontrast.{modname}"), fname)
    wrapper = make_wrapper(original)
    swapped = []
    for name, module in list(sys.modules.items()):
        if name != "mvcontrast" and not name.startswith("mvcontrast."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                swapped.append((module, attr))
    try:
        yield
    finally:
        for module, attr in swapped:
            setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        # flat int64 records: span id, name index, start ns, end ns, parent id
        self.log = array("q")
        self._next_id = 0
        self._open = []

    def mark(self):
        """Id the next span will get; pass it to `summary`."""
        return self._next_id

    def wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, log, clock = self._open, self.log, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                log.extend((sid, nid, start, end, parent))
        return traced

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for q in TRACED:
                stack.enter_context(patched(q, functools.partial(self.wrap, q)))
            yield

    def records(self):
        # a copy: the log cannot grow while a numpy view of it exists
        return np.frombuffer(self.log, dtype=np.int64).reshape(-1, 5).copy()

    def summary(self, first=0):
        """{name: (calls, total ms, self ms)} over the spans with id >= first.

        Self time is a span's duration minus the durations of its direct
        children; calls in one thread do not overlap, so that is the part of
        the span its children cover.
        """
        rows = self.records()
        rows = rows[rows[:, 0] >= first]
        dur = (rows[:, 3] - rows[:, 2]).astype(float)
        child = np.zeros(self._next_id - first)
        inner = rows[:, 4] >= first
        np.add.at(child, rows[inner, 4] - first, dur[inner])
        own = dur - child[rows[:, 0] - first]
        out = {}
        for nid, name in enumerate(self.names):
            sel = rows[:, 1] == nid
            out[name] = (int(sel.sum()), float(dur[sel].sum()) / 1e6,
                         float(own[sel].sum()) / 1e6)
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), columns=np.array(
            ["id", "name", "start_ns", "end_ns", "parent"]), spans=self.records())
