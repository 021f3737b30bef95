"""Outside-in span tracer for the gose modules.

The tracer touches no library code.  While installed it replaces the module
attributes through which one gose module calls the next, and the methods of
CountingOracle and ObjectiveOracle, with wrappers that record one span per
call: name, start, end and parent.  Spans are kept in compact arrays in
memory; `end_solve` folds one solve's spans into per-layer numbers and
`save` writes the kept spans out when the run ends.

Layers are the modules:

    harness   run_one, build_problem
    problems  certify_second_order (ground truth)
    drivers   gose_* as reached from the harness
    solvers   run_solver, scsg_epoch
    escape    one_step_*
    ncfind    approx_nc_*, lanczos_min_eig, eigh_tridiagonal (Ritz solves)
    core      CountingOracle methods
    oracle    ObjectiveOracle methods, i.e. the user callables

A layer's self time is its spans' time minus the time of their child spans.
Oracle work units are measured on the CountingOracle at each core span and
attributed to the layer of the span that called it.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

import gose.drivers
import gose.escape
import gose.harness
import gose.ncfind
from gose.core import CountingOracle, ObjectiveOracle

LAYERS = ("harness", "problems", "drivers", "solvers", "escape", "ncfind",
          "core", "oracle")

ORACLE_METHODS = ("value", "gradient", "hvp", "component_gradient",
                  "component_gradient_batch", "component_hvp",
                  "sample_gradient", "sample_gradient_batch", "sample_hvp")

HVP_METHODS = ("hvp", "sample_hvp", "component_hvp")

# (module, attribute, layer): the calls between modules that a solve makes
FUNCTION_POINTS = [
    (gose.harness, "run_one", "harness"),
    (gose.harness, "build_problem", "harness"),
    (gose.harness, "certify_second_order", "problems"),
    (gose.harness, "gose_deterministic", "drivers"),
    (gose.harness, "gose_stochastic", "drivers"),
    (gose.harness, "gose_finite_sum", "drivers"),
    (gose.drivers, "run_solver", "solvers"),
    (gose.drivers, "scsg_epoch", "solvers"),
    (gose.drivers, "one_step_deterministic", "escape"),
    (gose.drivers, "one_step_stochastic", "escape"),
    (gose.drivers, "one_step_finite_sum", "escape"),
    (gose.escape, "approx_nc_deterministic", "ncfind"),
    (gose.escape, "approx_nc_stochastic", "ncfind"),
    (gose.escape, "approx_nc_finite_sum", "ncfind"),
    (gose.ncfind, "lanczos_min_eig", "ncfind"),
    (gose.ncfind, "eigh_tridiagonal", "ncfind"),
]

# outcome tallied per call: an escape that moved, a finder that found a direction
OUTCOMES = {"one_step": lambda r: r.escaped,
            "approx_nc": lambda r: r.is_direction}

METHOD_POINTS = ([(CountingOracle, m, "core") for m in ORACLE_METHODS]
                 + [(ObjectiveOracle, m, "oracle") for m in ORACLE_METHODS])


class ReconciliationError(AssertionError):
    """The per-layer numbers of a solve do not add up to its totals."""


class Tracer:
    """Records spans while installed (use as a context manager)."""

    def __init__(self):
        self.names: list[str] = []
        self._layer_of: list[int] = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._name = array("q")
        self._work = array("q")
        self._stack = [-1]
        self._outcomes = Counter()
        self._saved: list[dict] = []
        self._restore: list = []

    # -- installation

    def __enter__(self):
        for module, attr, layer in FUNCTION_POINTS:
            record = next((f for prefix, f in OUTCOMES.items()
                           if attr.startswith(prefix)), None)
            self._patch(module, attr, self._wrap(getattr(module, attr),
                                                 f"{layer}.{attr}", layer, record))
        for cls, attr, layer in METHOD_POINTS:
            wrap = self._wrap_counting if cls is CountingOracle else self._wrap
            self._patch(cls, attr, wrap(cls.__dict__[attr], f"{layer}.{attr}", layer))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self._layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _wrap(self, fn, name, layer, record=None):
        nid = self._name_id(name, layer)
        start, end, parent, names, work, stack = (
            self._start, self._end, self._parent, self._name, self._work, self._stack)
        outcomes = self._outcomes
        perf = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            work.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()
            if record is not None and record(out):
                outcomes[name] += 1
            return out

        return traced

    def _wrap_counting(self, fn, name, layer):
        """Like _wrap, plus the work units the call adds to its counters."""
        nid = self._name_id(name, layer)
        start, end, parent, names, work, stack = (
            self._start, self._end, self._parent, self._name, self._work, self._stack)
        perf = time.perf_counter

        def traced(oracle, *args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            work.append(0)
            end.append(0.0)
            stack.append(i)
            before = oracle.counters.work_units()
            start.append(perf())
            try:
                out = fn(oracle, *args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()
            work[i] = oracle.counters.work_units() - before
            return out

        return traced

    # -- analysis

    def discard_solve(self) -> None:
        """Drop the spans of a solve that raised."""
        for arr in (self._start, self._end, self._parent, self._name, self._work):
            del arr[:]
        self._outcomes.clear()

    def end_solve(self, solve_id: int, counters, outer_s: float,
                  keep: bool = True) -> dict:
        """Fold the spans of one traced solve into per-layer numbers.

        `counters` is the certificate's EvalCounters and `outer_s` the solve
        time measured around the traced call; `keep` keeps the spans for
        `save`.  Raises ReconciliationError if the attributed work units
        differ from counters.work_units(), or the layer self times differ from
        outer_s by more than 3%.
        """
        n = len(self._start)
        start = np.frombuffer(self._start, dtype=np.float64, count=n).copy()
        end = np.frombuffer(self._end, dtype=np.float64, count=n).copy()
        parent = np.frombuffer(self._parent, dtype=np.int64, count=n).copy()
        name = np.frombuffer(self._name, dtype=np.int64, count=n).copy()
        work = np.frombuffer(self._work, dtype=np.int64, count=n).copy()
        outcomes = dict(self._outcomes)
        self.discard_solve()
        if keep:
            self._saved.append({"solve": np.full(n, solve_id, dtype=np.int64),
                                "start": start, "end": end, "parent": parent,
                                "name": name, "work": work})

        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_s = dur - child
        layer_of = np.asarray(self._layer_of)
        layer = layer_of[name]
        parent_layer = np.where(nested, layer_of[name[np.maximum(parent, 0)]], -1)
        core = LAYERS.index("core")
        # outermost CountingOracle calls carry the work of any nested ones
        entry = (layer == core) & (parent_layer != core)

        layer_self = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        layer_work = np.bincount(parent_layer[entry], weights=work[entry],
                                 minlength=len(LAYERS)).astype(np.int64)
        per_name_self = np.bincount(name, weights=self_s, minlength=len(self.names))
        per_name_calls = np.bincount(name, minlength=len(self.names))

        def calls(prefix):
            return int(sum(c for nm, c in zip(self.names, per_name_calls)
                           if nm.startswith(prefix)))

        def total(span):
            return float(dur[name == self.names.index(span)].sum())

        def outcomes_of(prefix):
            return sum(v for k, v in outcomes.items() if k.startswith(prefix))

        def entries_from(caller, methods=ORACLE_METHODS):
            ids = [self.names.index(f"core.{m}") for m in methods]
            return int(np.count_nonzero(entry & (parent_layer == LAYERS.index(caller))
                                        & np.isin(name, ids)))

        if int(layer_work.sum()) != counters.work_units():
            raise ReconciliationError(
                f"solve {solve_id}: layers account for {int(layer_work.sum())} work "
                f"units, the certificate counts {counters.work_units()}")
        attributed = float(layer_self.sum())
        if abs(outer_s - attributed) > 0.03 * outer_s:
            raise ReconciliationError(
                f"solve {solve_id}: layer self times sum to {attributed:.6f} s, "
                f"the traced solve took {outer_s:.6f} s")

        out = {f"{lay}.self_s": float(layer_self[k]) for k, lay in enumerate(LAYERS)}
        out.update({f"{lay}.work_units": int(layer_work[k])
                    for k, lay in enumerate(LAYERS)})
        out.update({
            "harness.build_problem_s": total("harness.build_problem"),
            "problems.certify_s": total("problems.certify_second_order"),
            "drivers.fn_evals": entries_from("drivers", ("value",)),
            "solvers.calls": calls("solvers."),
            "solvers.oracle_calls": entries_from("solvers"),
            "escape.calls": calls("escape."),
            "escape.escaped": outcomes_of("escape."),
            "ncfind.calls": calls("ncfind.approx_nc_"),
            "ncfind.directions": outcomes_of("ncfind."),
            "ncfind.hvp_calls": entries_from("ncfind", HVP_METHODS),
            "ncfind.lanczos_calls": calls("ncfind.lanczos_min_eig"),
            "ncfind.ritz_solves": calls("ncfind.eigh_tridiagonal"),
            "ncfind.ritz_s": total("ncfind.eigh_tridiagonal"),
            "core.calls": calls("core."),
            "oracle.calls": calls("oracle."),
            "trace.unattributed_s": outer_s - attributed,
            "trace.spans": n,
        })
        for m in ORACLE_METHODS:
            k = self.names.index(f"oracle.{m}")
            out[f"oracle.{m}.calls"] = int(per_name_calls[k])
            out[f"oracle.{m}.self_s"] = float(per_name_self[k])
        return out

    def save(self, path) -> None:
        """Write the kept spans, one row each; `name` indexes `names`."""
        cols = {key: np.concatenate([s[key] for s in self._saved])
                if self._saved else np.zeros(0)
                for key in ("solve", "start", "end", "parent", "name", "work")}
        np.savez(path, names=np.asarray(self.names),
                 layers=np.asarray([LAYERS[k] for k in self._layer_of]), **cols)

