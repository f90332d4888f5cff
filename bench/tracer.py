"""Span tracing of pmvi's layers, installed from outside the package.

Each traced function is replaced, at every attribute of a ``pmvi`` module
that binds it, by a wrapper that records one span per call: name, start,
end, parent span and op id.  Because ``from .x import f`` copies the binding
into the importing module, patching every binding (not only the defining
module) also records calls from one module into another.  Nothing inside
``src/pmvi`` is edited; :meth:`Tracer.uninstall` restores every binding.

Spans stay in memory until :meth:`Tracer.write` dumps them after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: The layer functions, named ``<module>.<function>`` relative to ``pmvi``.
LAYER_FUNCTIONS = (
    "cli.main",
    "data.collect_behavior",
    "data.collect_predetermined",
    "data.save_dataset",
    "data.load_dataset",
    "data.validate_dataset",
    "data.count_stats",
    "games.load_game",
    "games.three_state_game",
    "games.bellman_apply",
    "value_iteration.run_pmvi",
    "value_iteration.gram_matrices",
    "value_iteration.ridge_weights",
    "value_iteration.bonus_tables",
    "matrix_nash.solve_zero_sum",
    "evaluation.exact_nash_values",
    "evaluation.suboptimality",
    "evaluation.best_response_value",
    "evaluation.policy_value",
    "evaluation.bellman_error_tables",
    "evaluation.sandwich_holds",
    "evaluation.expected_total",
    "evaluation.theorem_bound_rhs",
    "uncertainty.relative_uncertainty",
    "uncertainty.bonus_value_dp",
    "uncertainty.well_explored_check",
    "uncertainty.expected_feature_outer",
    "hard_instances.run_lower_bound_experiment",
    "hard_instances.build_game",
    "hard_instances.le_cam_pair",
    "hard_instances.dataset_kl",
)

#: Name of the root span the benchmark opens around each op.
OP_SPAN = "op"


class Tracer:
    """Records spans of the layer functions while installed.

    A span is ``(name, start_ns, end_ns, parent_id, op_id, raised)``; its id
    is its index in :attr:`spans`, assigned when the call starts, so ids
    follow start order.  Single-threaded use only: the parent is the top of
    one shared stack.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple] = []
        self._wrappers: dict[str, object] = {}

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every layer function in loaded pmvi modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        targets = {}
        for qual in LAYER_FUNCTIONS:
            module_name, attr = qual.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"pmvi.{module_name}"), attr)
            targets[id(fn)] = (qual, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "pmvi" or module_name.startswith("pmvi.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                qual, fn = hit
                wrapper = self._wrappers.get(qual)
                if wrapper is None:
                    wrapper = self._wrappers[qual] = self._wrap(qual, fn)
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, self._op_id, raised)

        return traced

    # -- op root spans ----------------------------------------------------

    def open_op(self, op_id: int) -> int:
        """Open the root span of one op; returns its span id."""
        if self._stack:
            raise RuntimeError("an op span is already open")
        self._op_id = op_id
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        self.spans[span_id] = (OP_SPAN, time.perf_counter_ns(), None, -1, op_id, False)
        return span_id

    def close_op(self, span_id: int, raised: bool = False) -> None:
        """Close the root span opened by :meth:`open_op`."""
        end = time.perf_counter_ns()
        if self._stack != [span_id]:
            raise RuntimeError(f"unbalanced spans at op end: {self._stack}")
        self._stack.pop()
        name, start, _, parent, op_id, _ = self.spans[span_id]
        self.spans[span_id] = (name, start, end, parent, op_id, raised)

    # -- analysis ---------------------------------------------------------

    def op_profiles(self) -> dict[int, dict]:
        """Per op: per-name call count, self time (ns), errors, span time (ns).

        A span's self time is its duration minus the part of its interval
        that its child spans cover.  The returned ``sum_check`` is whether
        the self times of all spans of the op add up exactly to its root
        span's duration, which holds only if every span nests properly.
        """
        children: dict[int, list[int]] = defaultdict(list)
        for span_id, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(span_id)
        profiles: dict[int, dict] = {}
        for span_id, (name, start, end, parent, op_id, raised) in enumerate(self.spans):
            prof = profiles.setdefault(
                op_id,
                {"calls": defaultdict(int), "self_ns": defaultdict(int), "errors": defaultdict(int),
                 "span_ns": defaultdict(int), "root_ns": 0, "self_total_ns": 0},
            )
            covered = _covered(start, end, [self.spans[c][1:3] for c in children.get(span_id, ())])
            self_ns = end - start - covered
            prof["calls"][name] += 1
            prof["self_ns"][name] += self_ns
            prof["span_ns"][name] += end - start
            prof["errors"][name] += int(raised)
            prof["self_total_ns"] += self_ns
            if parent < 0:
                prof["root_ns"] += end - start
        for prof in profiles.values():
            prof["sum_check"] = prof["self_total_ns"] == prof["root_ns"]
        return profiles

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, name, start/end ns, parent, op, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, (name, start, end, parent, op_id, raised) in enumerate(self.spans):
                fh.write(json.dumps([span_id, name, start, end, parent, op_id, raised]) + "\n")


def _covered(start: int, end: int, intervals) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
