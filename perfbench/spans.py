"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``deqpocs`` from outside the package,
patching each name in the module that imported it (``deqpocs.training.forward``
is the name ``training`` calls, so that is the name that gets wrapped). A
span carries the layer name, start, end, parent span and thread; self time
is a span's duration minus the spans it directly caused on the same thread.
A span opened on a worker thread with nothing open on that thread takes the
main thread's innermost open span as its parent, so solves run by the
harness pool still belong to the harness.

Wrappers cost one flag test while the tracer is inactive; the benchmark
turns it on for every other operation and reports the difference between
the traced and the untraced medians as the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import resource
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: "Span | None"
    thread: int
    phase: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _conv_counts(args, kwargs, result):
    x, k = args[0], args[1]
    H, W, cin = x.shape
    kh, kw, _, cout = k.shape
    return {
        # 4 real multiplies and 4 real adds per complex multiply-accumulate
        "gflop": 8.0 * H * W * kh * kw * cin * cout / 1e9,
        # the (H*W, kh*kw*Cin) complex128 patch matrix one call gathers
        "patch_mb": H * W * kh * kw * cin * 16 / 1e6,
    }


def _gaussian_counts(args, kwargs, result):
    return {"gaussians": len(result)}


def _solver_counts(args, kwargs, result):
    return {"iters": result.iterations}


def _adjoint_counts(args, kwargs, result):
    return {"adjoint_iters": result[1]} if isinstance(result, tuple) else {}


# (module, attribute, layer, counter, count minor faults)
PATCHES = [
    ("deqpocs.rng", "RandomStream.gaussians", "rng", _gaussian_counts, False),
    ("deqpocs.tensors", "conv2d_complex", "tensors.conv", _conv_counts, True),
    ("deqpocs.network", "conv2d_complex", "tensors.conv", _conv_counts, True),
    ("deqpocs.network", "conv2d_kernel_grad", "tensors.kernel_grad", None, False),
    ("deqpocs.network", "fft2_centered", "tensors.fft", None, False),
    ("deqpocs.network", "ifft2_centered", "tensors.fft", None, False),
    ("deqpocs.phantom", "fft2_centered", "tensors.fft", None, False),
    ("deqpocs.phantom", "ifft2_centered", "tensors.fft", None, False),
    ("deqpocs.network", "spectral_norm_power_iter", "tensors.power_iter", None, False),
    ("deqpocs.tensors", "read_ct01_bytes", "tensors.ct01", None, False),
    ("deqpocs.tensors", "write_ct01_bytes", "tensors.ct01", None, False),
    ("deqpocs.network", "read_ct01_bytes", "tensors.ct01", None, False),
    ("deqpocs.network", "write_ct01_bytes", "tensors.ct01", None, False),
    ("deqpocs.training", "project_data_consistency", "sampling.project", None, False),
    ("deqpocs.harness", "add_noise", "sampling.add_noise", None, False),
    ("deqpocs.training", "forward", "network.forward", None, False),
    ("deqpocs.training", "forward_with_trace", "network.forward", None, False),
    ("deqpocs.training", "jacobian_vjp", "network.vjp", None, False),
    ("deqpocs.training", "param_vjp", "network.vjp", None, False),
    ("deqpocs.training", "normalize_params", "network.normalize", None, False),
    ("deqpocs", "init_params", "network.init", None, False),
    ("deqpocs", "load_checkpoint", "network.load", None, False),
    ("deqpocs.cli", "load_checkpoint", "network.load", None, False),
    ("deqpocs.training", "anderson_solve", "solvers", _solver_counts, False),
    ("deqpocs.training", "picard_solve", "solvers", _solver_counts, False),
    ("deqpocs.harness", "picard_solve", "solvers", _solver_counts, False),
    ("deqpocs.training", "implicit_backward", "training.backward", _adjoint_counts, False),
    ("deqpocs.training", "adam_step", "training.adam", None, False),
    ("deqpocs.cli", "verify_convergence", "harness", None, False),
    ("deqpocs.cli", "verify_robustness", "harness", None, False),
    ("deqpocs.cli", "verify_init_independence", "harness", None, False),
    ("deqpocs", "make_dataset", "phantom", None, False),
    ("deqpocs", "save_dataset", "phantom", None, False),
    ("deqpocs.cli", "load_dataset", "phantom", None, False),
    ("deqpocs.phantom", "ssos", "metrics", None, False),
    ("deqpocs.cli", "main", "cli", None, False),
]


class Tracer:
    """Collects spans in memory while ``active``; see the module docstring."""

    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._stacks: dict[int, list[Span]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def wrap(self, layer, fn, counter=None, faults=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            span = Span(layer, parent, threading.get_ident(), self.phase)
            stack.append(span)
            if faults:
                flt0 = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if faults:
                    span.counts["minflt"] = (
                        resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - flt0
                    )
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        for modname, attr, layer, counter, faults in PATCHES:
            owner = importlib.import_module(modname)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original, counter, faults))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def layer_totals(self, phase: str) -> dict:
        """Per layer: call count, inclusive seconds (spans not inside a span
        of the same layer on the same thread), self seconds, summed counts."""
        spans = [s for s in self.spans if s.phase == phase]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None and s.parent.thread == s.thread:
                child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration
        out: dict[str, dict] = {}
        for s in spans:
            row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += s.duration - child_time.get(id(s), 0.0)
            outer = s.parent
            while outer is not None and outer.thread == s.thread and outer.name != s.name:
                outer = outer.parent
            if outer is None or outer.thread != s.thread:
                row["s"] += s.duration
            for key, value in s.counts.items():
                row[key] = row.get(key, 0) + value
        return out

    def count_under(self, phase: str, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        n = 0
        for s in self.spans:
            if s.phase != phase or s.name != name:
                continue
            p = s.parent
            while p is not None and p.name != ancestor:
                p = p.parent
            n += p is not None
        return n
