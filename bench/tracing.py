"""Span recorder that wraps the program's public functions from outside.

Each wrapped call records one span: (id, parent id, operation id, name,
start, end, attributes). Spans stay in memory and are written out once, at
the end of the run. A function is wrapped at every module attribute that is
bound to it, because callers use the binding of the module they imported it
into (``agents`` calls its own ``g_of_q``, not ``quadrature.g_of_q``).

Code that runs in the forked ``price_mc`` workers is not seen: their spans
stay in the worker's memory. So is everything inside ``_run_chunk``
(scenario draw, step fill, transpose, step kernel, jump waves).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# layer -> public functions timed in that layer. `model` and `errors` only
# hold parameters, streams and exception types, so they get no spans.
TRACED = {
    "quadrature": ("g_of_q", "g_of_q_many", "phi2", "phi2_many",
                   "psi_double_integral", "expect_gaussian"),
    "optimize": ("maximize_bounded", "fixed_point_scalar"),
    "agents": ("solve_uninformed", "solve_timing_insider", "solve_merton",
               "solve_signal_insider", "solve_all", "q_bar_signal"),
    "simulate": ("path_integrals",),
    "pricing": ("price_mc", "closed_form_price", "truncation_bound",
                "info_value_report"),
}
MODULES = ("infoprice", "infoprice.model", "infoprice.quadrature",
           "infoprice.optimize", "infoprice.agents", "infoprice.simulate",
           "infoprice.pricing", "infoprice.cli")
OP_SPAN = "op"


class Tracer:
    """Records spans while installed; `params_label` names parameter sets."""

    def __init__(self, params_label: dict):
        self.params_label = params_label
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _begin(self) -> tuple[int, int | None]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _end(self, sid, parent, name, t0, attrs) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, self.op, name, t0, t1, attrs))

    @contextlib.contextmanager
    def operation(self, op_id: str):
        """A root span for one benchmark operation; its calls carry `op_id`."""
        self.op = op_id
        sid, parent = self._begin()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._end(sid, parent, OP_SPAN, t0, None)
            self.op = None

    def _attrs(self, name: str, args, result) -> dict | None:
        """Parameter set of a solve, iterations of an optimize result, and
        outer iterations and residual of a signal solution."""
        attrs = {}
        if name.startswith("agents.solve_"):
            label = self.params_label.get(args[0]) if args else None
            if label is not None:
                attrs["set"] = label
            if hasattr(result, "outer_trace"):
                attrs["outer_iters"] = len(result.outer_trace) - 1
                attrs["max_residual"] = float(result.residuals.max())
        elif hasattr(result, "iterations"):                 # optimize.SolveResult
            attrs["iters"] = int(result.iterations)
        return attrs or None

    def _wrap(self, name: str, fn):
        tracer = self
        with_attrs = name.startswith(("agents.solve_", "optimize."))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._begin()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._end(sid, parent, name, t0,
                            tracer._attrs(name, args, result) if with_attrs else None)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every traced function with a wrapper."""
        if self._patches:
            return
        mods = [sys.modules[m] for m in MODULES if m in sys.modules]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"infoprice.{layer}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in mods:
                    if getattr(mod, fname, None) is original:
                        self._patches.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patches):
            setattr(mod, fname, original)
        self._patches = []

    def write(self, path: str) -> None:
        """Spans as JSON: one [id, parent, op, name, start, end, attrs] row each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["id", "parent", "op", "name", "start_s", '
                     '"end_s", "attrs"], "spans": [\n')
            for i, span in enumerate(self.spans):
                fh.write(("," if i else "") + json.dumps(span) + "\n")
            fh.write("]}\n")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

class SpanIndex:
    """Spans indexed by id, with each span's self time.

    A span's self time is its duration minus the time covered by its child
    spans. Calls are synchronous in one thread, so children never overlap
    and the covered time is the sum of their durations.
    """

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = {}
        for sid, parent, _, _, t0, t1, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        self.self_s = {s[0]: (s[5] - s[4]) - child_time.get(s[0], 0.0)
                       for s in spans}

    def ancestors(self, span):
        """The span's ancestors, nearest first."""
        parent = span[1]
        while parent is not None:
            up = self.by_id.get(parent)
            if up is None:
                return
            yield up
            parent = up[1]

    def ancestor_attr(self, span, key: str):
        """Value of attribute `key` on the span or its nearest ancestor having it."""
        for s in (span, *self.ancestors(span)):
            if s[6] and key in s[6]:
                return s[6][key]
        return None

    def stats(self, match) -> tuple[int, float, float, int]:
        """(calls, inclusive seconds of outermost calls, self seconds,
        summed iterations) over the spans whose name satisfies `match`."""
        calls, seconds, self_s, iters = 0, 0.0, 0.0, 0
        for span in self.spans:
            if not match(span[3]):
                continue
            calls += 1
            self_s += self.self_s[span[0]]
            if span[6]:
                iters += span[6].get("iters", 0)
            if not any(match(up[3]) for up in self.ancestors(span)):
                seconds += span[5] - span[4]
        return calls, seconds, self_s, iters
