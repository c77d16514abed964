"""In-memory spans around calls into each layer's public functions.

`Tracer.installed()` swaps each traced function for a wrapper that records
a span (name, start, end, parent) and restores the originals on exit.  The
program's code is not changed: the wrappers replace the names the callers
look up (a module global or a class attribute).  A training step is the
span from `Network.bind` called by the training loop to the end of the
`adam_step` that follows it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
from time import perf_counter

import measure

# (module, attribute looked up by the caller, span name); the layer is the
# span name's first component
TRACED = (
    ("ldgm.trainer", "train_loop", "trainer.train_loop"),
    ("ldgm.trainer", "adam_step", "trainer.adam"),
    ("ldgm.trainer", "backward", "autodiff.backward"),
    ("ldgm.trainer", "draw_batch", "sampling.draw"),
    ("ldgm.ritz", "draw_batch", "sampling.draw"),
    ("ldgm.trainer", "ldgm_loss", "loss.ldgm_loss"),
    ("ldgm.trainer", "dgm_loss", "loss.dgm_loss"),
    ("ldgm.ritz", "ldrm_loss", "ritz.ldrm_loss"),
    ("ldgm.ritz", "drm_loss", "ritz.drm_loss"),
    ("ldgm.network", "Network.bind", "network.bind"),
    ("ldgm.network", "BoundNetwork.forward", "network.forward"),
    ("ldgm.network", "BoundNetwork.forward_jets", "network.jets"),
    ("ldgm.network", "BoundNetwork.forward_with_derivatives", "network.jets"),
    ("ldgm.metrics", "network_relative_l2", "metrics.eval"),
    ("ldgm.cli", "solve_ch_spectral", "reference.solve"),
    ("ldgm.trainer", "TrainReport.to_csv", "cli.write"),
    ("ldgm.cli", "save_checkpoint", "cli.write"),
    ("ldgm.cli", "write_table", "cli.write"),
)

# positional index of the output path for the artifact writers
_WRITE_PATH_ARG = {"TrainReport.to_csv": 1, "save_checkpoint": 0, "write_table": 0}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._step: int | None = None
        self._want_tape = False
        self.tape = None               # (nodes, output idx) of the first run's first step
        self.tape_sizes: list[int] = []  # node count of each run's first step
        self.eval_points: list[int] = []
        self.write_bytes = 0
        self.params = 0

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        t = perf_counter()
        # also closes spans an exception unwound past (an aborted step)
        while self._stack:
            j = self._stack.pop()
            if math.isnan(self.ends[j]):
                self.ends[j] = t
            if j == i:
                break
        if self._step is not None and self._step not in self._stack:
            self._step = None

    def _top(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    # -- hooks run outside the wrapped call's span ---------------------------

    def _before(self, span: str, args) -> None:
        if span == "network.bind" and self._top() == "trainer.train_loop":
            self._step = self.begin("trainer.step")
            if not self.params:
                self.params = args[0].params.count
        elif span == "trainer.train_loop":
            self._want_tape = True
        elif span == "metrics.eval":
            self.eval_points.append(args[1].x.shape[0])

    def _after(self, span: str, attr: str, args) -> None:
        if span == "trainer.adam" and self._step is not None and self._top() == "trainer.step":
            self.finish(self._step)
        elif span == "autodiff.backward" and self._want_tape:
            # one tape is kept alive, not one per run: a depth-64 tape holds ~15 MB
            self._want_tape = False
            self.tape_sizes.append(len(args[0].nodes))
            if self.tape is None:
                self.tape = (args[0].nodes, args[1].idx)
        elif span == "cli.write":
            self.write_bytes += os.path.getsize(args[_WRITE_PATH_ARG[attr]])

    def _wrap(self, fn, span: str, attr: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._before(span, args)
            i = self.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            self._after(span, attr, args)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every function in TRACED for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span in TRACED:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, span, attr))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    # -- aggregation ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def step_breakdown(self) -> list[dict]:
        """Per training step: its duration and the time of each layer in it.

        Network time counts the outermost network span (forward_with_derivatives
        calls forward_jets); loss and ritz count self time, i.e. without the
        network calls they make.  The parts add up to the step's duration.
        """
        dur = self.durations()
        own = measure.self_times(dur, self.parents)
        step_of = [-1] * len(self.names)
        rows: dict[int, dict] = {}
        for i, name in enumerate(self.names):
            p = self.parents[i]
            if name == "trainer.step":
                step_of[i] = i
                rows[i] = {"step": dur[i], "trainer.self": own[i], "trainer.adam": 0.0,
                           "network.bind": 0.0, "network.jets": 0.0, "network.forward": 0.0,
                           "network.calls": 0, "loss.self": 0.0, "ritz.self": 0.0,
                           "autodiff.backward": 0.0}
                continue
            s = step_of[p] if p >= 0 else -1
            step_of[i] = s
            if s < 0:
                continue
            row = rows[s]
            layer = name.split(".")[0]
            if layer == "network":
                if not self.names[p].startswith("network."):
                    row[name] += dur[i]
                    row["network.calls"] += name != "network.bind"
            elif layer in ("loss", "ritz"):
                row[layer + ".self"] += own[i]
            elif name in row:
                row[name] += dur[i]
        return [rows[k] for k in sorted(rows)]

    def span_durations(self, name: str) -> list[float]:
        return [d for n, d in zip(self.names, self.durations()) if n == name]
