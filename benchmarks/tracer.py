"""In-memory spans and counters recorded around the public functions of mvequil.

Nothing inside the package is edited. ``Tracer.install`` replaces every public
function of the measured modules, in every module namespace that holds it
(``mvequil.open_loop.pseudoinverse``, ``mvequil.cli.verify_equilibrium``, the
package namespace, ...), with a wrapper that opens a span, and replaces
``numpy.linalg.eigh``/``eigvalsh`` with wrappers that also count the matrices
decomposed (batch dimensions included). ``Tracer.uninstall`` puts every
original back.

Spans nest strictly because the benchmark runs one thread. A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter

import numpy as np

# The package modules measured as layers; policy and reference do no work.
LAYERS = ("market", "linalg", "open_loop", "feedback", "mixed", "oracle", "cli")
SOLVERS = {
    "open_loop.solve_open_loop": "open_loop",
    "feedback.solve_feedback": "feedback",
    "mixed.solve_mixed": "mixed",
}
EIG_FUNCTIONS = ("eigh", "eigvalsh")
# Spans kept in memory per run, for whole ops only: from the first op whose
# spans would not fit on, ops are counted in ``dropped_ops`` and their spans dropped.
MAX_SPANS = 200_000


class Frame:
    """One open span."""

    __slots__ = ("span_id", "name", "layer", "start", "child_s", "eig")

    def __init__(self, span_id: int, name: str, layer: str, start: float):
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.eig = 0


class Tracer:
    """Spans (name, start, end, parent span, op id) plus aggregates per span name."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.dropped_ops = 0
        self.op_id: int | None = None
        self._op_spans: list[tuple] = []
        self.calls = Counter()  # span name -> calls
        self.total_s = Counter()  # span name -> inclusive seconds
        self.self_s = Counter()  # span name -> seconds not covered by child spans
        self.busy_s = Counter()  # layer -> seconds inside its outermost spans
        self.counts = Counter()  # named counters kept by the hooks below
        self._stack: list[Frame] = []
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        """Keep the finished op's spans if they and all earlier ops' spans fit under MAX_SPANS."""
        if not self.dropped_ops and len(self.spans) + len(self._op_spans) <= MAX_SPANS:
            self.spans.extend(self._op_spans)
        else:
            self.dropped_ops += 1
            self.dropped_spans += len(self._op_spans)
        self._op_spans = []
        self.op_id = None

    def open(self, name: str, layer: str) -> Frame:
        frame = Frame(self._next_id, name, layer, time.perf_counter())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: Frame) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
            parent.eig += frame.eig
        self.calls[frame.name] += 1
        self.total_s[frame.name] += duration
        self.self_s[frame.name] += duration - frame.child_s
        if not any(open_frame.layer == frame.layer for open_frame in self._stack):
            self.busy_s[frame.layer] += duration
        parent_id = parent.span_id if parent is not None else None
        span = (frame.span_id, frame.name, frame.start, end, parent_id, self.op_id)
        if self.op_id is not None:
            self._op_spans.append(span)
        elif len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped_spans += 1
        return duration

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps(record) + "\n")

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every layer module and numpy's eigensolvers."""
        namespaces = [package] + [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".") and module is not None
        ]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for fname, fn in sorted(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(fn, f"{layer}.{fname}", layer)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patch(namespace, attr, wrapped)
        for fname in EIG_FUNCTIONS:
            self._patch(np.linalg, fname, self._wrap_eig(getattr(np.linalg, fname), fname))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(frame)
                tracer.counts[f"{name}.raised"] += 1
                raise
            duration = tracer.close(frame)
            tracer._after(name, frame, duration, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_eig(self, fn, fname: str):
        tracer = self
        name = f"numpy.{fname}"

        def traced(a, *args, **kwargs):
            frame = tracer.open(name, "numpy")
            frame.eig = math.prod(np.shape(a)[:-2])
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.counts["eig.matrices"] += frame.eig
                tracer.close(frame)

        traced.__wrapped__ = fn
        return traced

    # -- counters kept where the work happens --------------------------------

    def _after(self, name: str, frame: Frame, duration: float, result, args, kwargs) -> None:
        counts = self.counts
        solver = SOLVERS.get(name)
        if solver is not None:
            policy = getattr(result, "policy", None)
            if policy is None:  # a NonexistenceReport: a correct outcome
                counts[f"{solver}.nonexistent"] += 1
            else:
                counts[f"{solver}.ok_stages"] += policy.gains.shape[0]
                counts[f"{solver}.ok_eig"] += frame.eig
                counts[f"{solver}.ok_s"] += duration
        elif name == "oracle.verify_equilibrium":
            counts["oracle.nodes"] += len(result)
            counts["oracle.verify_eig"] += frame.eig
        elif name == "oracle.spike_cost":
            tree = args[0] if args else kwargs["tree"]
            k = args[3] if len(args) > 3 else kwargs["k"]
            counts["oracle.suffix_scenarios"] += tree.leaf_count(int(k))
        elif name == "oracle.simulate_monte_carlo":
            counts["oracle.paths"] += int(args[2] if len(args) > 2 else kwargs["n_paths"])
        elif name == "cli.main":
            argv = args[0] if args else kwargs.get("argv")
            command = argv[0] if argv else "none"
            counts[f"cli.command_calls.{command}"] += 1
            counts[f"cli.command_s.{command}"] += duration
