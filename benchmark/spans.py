"""Per-layer spans recorded from outside the program.

:class:`Recorder` replaces the module attributes that ``qimatch.cli`` resolves
when it runs (``cli`` imports ``load_pgm``, ``validate_pair`` and
``encode_gqir`` by name and reaches ``marking``, ``grover`` and ``verify``
through their modules) with wrappers that record one :class:`Span` per call.
Counts are read from the public objects the calls take or return.  Spans stay
in memory until :meth:`Recorder.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

Counter = Callable[[tuple, dict, Any], dict[str, float]]


def _image_bytes(args: tuple, kwargs: dict, img: Any) -> dict[str, float]:
    return {"images.load_bytes": img.width * img.height * (2 if img.bit_depth > 8 else 1)}


def _state_size(args: tuple, kwargs: dict, state: Any) -> dict[str, float]:
    # Computed from the arrays' sizes, not measured: arrays shared with the
    # earlier stages' states are counted as the marked state holds them.
    nbytes = sum(v.nbytes for v in vars(state).values() if hasattr(v, "nbytes"))
    return {"marking.branches": state.branch_count, "marking.state_mb": nbytes / 2**20}


def _rounds(args: tuple, kwargs: dict, state: Any) -> dict[str, float]:
    rounds = args[1] if len(args) > 1 else kwargs["iterations"]
    return {"grover.rounds": rounds, "grover.amp_ops": state.ops}


# (span name, module, attribute, counter).  A span's self time is reported
# as the per-layer metric "<span name>_s".
TARGETS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("images.load", "qimatch.cli", "load_pgm", _image_bytes),
    ("images.encode", "qimatch.cli", "validate_pair", None),
    ("images.encode", "qimatch.cli", "encode_gqir", None),
    ("marking.mark", "qimatch.marking", "prepare_initial", None),
    ("marking.mark", "qimatch.marking", "apply_comparison", None),
    ("marking.mark", "qimatch.marking", "apply_marking", _state_size),
    ("marking.mark", "qimatch.marking", "marked_set", None),
    ("grover.plan", "qimatch.grover", "plan_iterations", lambda a, k, r: {"grover.plan_calls": 1}),
    ("grover.amplify", "qimatch.grover", "init_subspace", None),
    ("grover.amplify", "qimatch.grover", "run_grover", _rounds),
    ("grover.sample", "qimatch.grover", "sample_measurement",
     lambda a, k, counts: {"grover.samples": sum(counts.values())}),
    ("verify.scan", "qimatch.verify", "classical_match",
     lambda a, k, res: {"verify.comparisons": res.comparisons}),
)

# The root span of every op; its self time is the op time no layer span covers.
ROOT = "cli.self"


@dataclass
class Span:
    name: str
    target: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    counts: dict[str, float] = field(default_factory=dict)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Wrap every target that exists; list the others in ``absent``."""
        for name, module_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            target = f"{module_name}.{attr}"
            if not callable(fn):
                if target not in self.absent:
                    self.absent.append(target)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, target, fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def op(self) -> Iterator[None]:
        """Open the root span of one op."""
        self._op += 1
        index = self._open(ROOT, "op")
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str, target: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, target, time.perf_counter_ns(), 0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, target: str, fn: Any, counter: Counter | None) -> Any:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name, target)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index].counts.update(counter(args, kwargs, result))
            return result

        return traced

    def per_op(self) -> list[dict[str, float]]:
        """Per op: the self time of each span name in seconds, and the counts summed."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        ops: dict[int, dict[str, float]] = {}
        for span, covered in zip(self.spans, child_ns):
            totals = ops.setdefault(span.op, {})
            key = f"{span.name}_s"
            totals[key] = totals.get(key, 0.0) + (span.end_ns - span.start_ns - covered) / 1e9
            for k, v in span.counts.items():
                totals[k] = totals.get(k, 0) + v
        return [ops[k] for k in sorted(ops)]

    def dump(self, path: Path) -> None:
        payload = {"absent": self.absent, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
