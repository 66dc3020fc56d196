"""In-memory spans around calls into implang's public functions.

The tracer wraps a fixed list of module-level functions and rebinds every
reference to them inside the ``implang`` package, so calls made from one
module into another (``tasks`` calling ``mutation.run_with``, ``metrics``
calling ``sos.run``) are recorded, and so are calls the benchmark makes.
Per-step functions such as ``sos.step`` are left alone: a span per rule would
cost more than the rule.

Spans are kept in parallel lists and written out once, at the end.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get a span.  Each is a layer entry point
# called at most a few times per program or per statement occurrence.
TRACED = (
    ("syntax", "tokenize"),
    ("syntax", "parse"),
    ("syntax", "parse_program"),
    ("syntax", "render_program"),
    ("sos", "run"),
    ("kengine", "k_run"),
    ("mutation", "transform_program"),
    ("mutation", "run_with"),
    ("documents", "ebnf_text"),
    ("documents", "semantics_text"),
    ("documents", "sos_semantics_text"),
    ("documents", "k_semantics_text"),
    ("fuzzer", "sample_program"),
    ("metrics", "profile"),
    ("metrics", "static_metrics"),
    ("metrics", "dynamic_metrics"),
    ("metrics", "halstead"),
    ("metrics", "dep_degree"),
    ("metrics", "cyclomatic_complexity"),
    ("metrics", "nesting_depths"),
    ("tasks", "build_instance"),
    ("tasks", "gold_final_state"),
    ("tasks", "gold_trace_xml"),
    ("tasks", "sample_pred_rule"),
    ("tasks", "render_prompt"),
    ("scoring", "score_batch"),
    ("scoring", "parse_state_answer"),
    ("scoring", "parse_rule_answer"),
    ("scoring", "parse_trace_answer"),
    ("scoring", "score_pred_state"),
    ("scoring", "score_pred_rule"),
    ("scoring", "score_pred_trace"),
    ("scoring", "first_mismatch_stats"),
)

MODULES = tuple(dict.fromkeys(module for module, _ in TRACED))


def _task_of_build(args, kwargs) -> str:
    return kwargs["task"] if "task" in kwargs else args[2]


def _task_of_batch(args, kwargs) -> str:
    instances = kwargs["instances"] if "instances" in kwargs else args[0]
    return instances[0].task if instances else "state"


# Spans of these functions are named by task, e.g. tasks.build_instance.rule.
_SPLIT_BY_TASK = {
    "tasks.build_instance": _task_of_build,
    "scoring.score_batch": _task_of_batch,
}


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


# A size recorded with each span, from the call's arguments or result.
_AMOUNT = {
    "syntax.tokenize": lambda args, kwargs, result: _utf8_len(args[0]),
    "sos.run": lambda args, kwargs, result: result.n_steps,
    "kengine.k_run": lambda args, kwargs, result: result.n_steps,
    "tasks.gold_trace_xml": lambda args, kwargs, result: _utf8_len(result),
    "tasks.render_prompt": lambda args, kwargs, result: _utf8_len(result),
}


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.programs: list[str] = []
        self.amounts: list[int] = []
        self.failed: list[bool] = []
        self.program = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span_wrapper(self, name: str, fn):
        namer = _SPLIT_BY_TASK.get(name)
        amount = _AMOUNT.get(name)

        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(f"{name}.{namer(args, kwargs)}" if namer else name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.programs.append(self.program)
            self.amounts.append(0)
            self.failed.append(False)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.ends[idx] = perf_counter()
                self.failed[idx] = True
                raise
            else:
                self.ends[idx] = perf_counter()
                if amount is not None:
                    self.amounts[idx] = amount(args, kwargs, result)
                return result
            finally:
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function and TaskInstance's JSON round trip,
        rebinding each name wherever an implang module imported it."""
        package = [m for name, m in sys.modules.items()
                   if name == "implang" or name.startswith("implang.")]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"implang.{module_name}"], fn_name)
            wrapper = self.span_wrapper(f"{module_name}.{fn_name}", original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        instance = sys.modules["implang.tasks"].TaskInstance
        self._undo.append((instance, "to_json", instance.__dict__["to_json"]))
        self._undo.append((instance, "from_json", instance.__dict__["from_json"]))
        instance.to_json = self.span_wrapper("tasks.TaskInstance.to_json", instance.to_json)
        instance.from_json = staticmethod(
            self.span_wrapper("tasks.TaskInstance.from_json", instance.from_json))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "program": self.programs[i],
                    "amount": self.amounts[i], "failed": self.failed[i],
                }) + "\n")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, failures, inclusive and self seconds, and
        the summed amount."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0})
        for i, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["failed"] += self.failed[i]
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += selfs[i]
            row["amount"] += self.amounts[i]
        return dict(out)


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children``
    covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    return [
        ends[i] - starts[i] - covered((starts[i], ends[i]), children.get(i, []))
        for i in range(len(starts))
    ]
