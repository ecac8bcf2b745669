"""Spans around the package's layer entry points, attached from outside.

Each entry point is replaced by module-global (or class attribute) name with
a wrapper that records a span (name, start, end, parent) in memory.  The
package is not edited: the wrappers sit at the call sites the package
already resolves through its module globals.  An entry point that a later
version removes or renames is reported as absent, and its layer reads 0.
"""

from __future__ import annotations

import importlib
import time

STENCIL = "geometry.stencil"
EIGH = "hermlin.eigh"
TABLE = "symfunc.table"
EVAL_STATE = "hessop.evaluate.state"
EVAL_TABLE = "hessop.evaluate.table"
LINEARIZATION = "hessop.linearization"
COEFFICIENTS = "hessop.coefficients"
MATVEC = "hessop.matvec"
KRYLOV = "solver.krylov_solve"
GMRES = "solver.gmres"
PSOLVE = "solver.psolve"
NEWTON = "solver.newton"
CONTINUITY = "solver.continuity"
COMPLEMENTARITY = "envelope.complementarity"
NORMALIZED = "inequalities.solve_normalized"

# (owner under hessianlab, attribute, span name).  envelope imported
# _newton and _continuity_solve from solver, so both call sites are listed.
ENTRY_POINTS = [
    ("hessop", "complex_hessian_array", STENCIL),
    ("hessop", "generalized_eigh", EIGH),
    ("hessop", "elementary_symmetric_table", TABLE),
    ("solver", "state_matrices", EVAL_STATE),
    ("solver", "sk_table_of_state", EVAL_TABLE),
    ("solver", "linearization", LINEARIZATION),
    ("hessop.LinearizationField", "coefficient_matrices", COEFFICIENTS),
    ("solver", "apply_linearization_array", MATVEC),
    ("solver", "krylov_solve", KRYLOV),
    ("solver", "gmres_raw", GMRES),
    ("solver", "_newton", NEWTON),
    ("envelope", "_newton", NEWTON),
    ("solver", "_continuity_solve", CONTINUITY),
    ("envelope", "_continuity_solve", CONTINUITY),
    ("envelope", "sigma_m", COMPLEMENTARITY),
    ("inequalities", "solve_normalized", NORMALIZED),
]


def _owner(path):
    """The module or class at hessianlab.<path>, or None if it is gone."""
    module, *rest = path.split(".")
    try:
        owner = importlib.import_module(f"hessianlab.{module}")
    except ImportError:
        return None
    for name in rest:
        owner = getattr(owner, name, None)
    return owner


class Tracer:
    """Records spans while attached; ``detach`` restores every entry point."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.gmres_iters = 0
        self.newton_accepted = 0
        self.absent = []
        self._open = []
        self._saved = []

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if name == GMRES:
                args, kwargs = self._wrap_psolve(args, kwargs)
            result = self._span(name, fn, args, kwargs)
            if name == GMRES:
                self.gmres_iters += result[1]  # (x, iterations, relres)
            elif name == NEWTON:
                self.newton_accepted += result[1]  # (state, iters, ok, failure)
            return result

        return traced

    def _wrap_psolve(self, args, kwargs):
        """Wrap the preconditioner handed to gmres_raw as its sixth argument."""
        def wrap(psolve):
            return lambda v: self._span(PSOLVE, psolve, (v,), {})

        if "psolve" in kwargs:
            kwargs = dict(kwargs, psolve=wrap(kwargs["psolve"]))
        elif len(args) >= 6:
            args = args[:5] + (wrap(args[5]),) + args[6:]
        return args, kwargs

    def attach(self):
        self.absent = []
        for path, attr, name in ENTRY_POINTS:
            owner = _owner(path)
            fn = getattr(owner, "__dict__", {}).get(attr)
            if not callable(fn):
                self.absent.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def detach(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.gmres_iters = 0
        self.newton_accepted = 0

    def self_times(self):
        """Per-span self time: duration minus the time its children cover.

        Children of one span never overlap (one thread, nested calls), so
        their summed durations are the covered part of the parent interval.
        """
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self, newton_steps, eps_steps=0, midpoints=0):
        """The per-layer metrics of the spans recorded since the last reset."""
        calls = {}
        self_s = {}
        for (name, *_), t in zip(self.spans, self.self_times()):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + t

        def parent_name(span):
            return self.spans[span[3]][0] if span[3] >= 0 else None

        newton_evals = sum(1 for s in self.spans
                           if s[0] == EVAL_STATE and parent_name(s) == NEWTON)
        candidates = newton_evals - calls.get(NEWTON, 0)  # minus initial iterates
        continuity_steps = sum(1 for s in self.spans
                               if s[0] == NEWTON and parent_name(s) == CONTINUITY)
        krylov_solves = calls.get(KRYLOV, 0)
        return {
            "geometry.stencil_calls": calls.get(STENCIL, 0),
            "geometry.stencil_s": self_s.get(STENCIL, 0.0),
            "hermlin.eigh_calls": calls.get(EIGH, 0),
            "hermlin.eigh_s": self_s.get(EIGH, 0.0),
            "symfunc.table_calls": calls.get(TABLE, 0),
            "symfunc.table_s": self_s.get(TABLE, 0.0),
            "hessop.evaluate_calls": calls.get(EVAL_STATE, 0),
            "hessop.evaluate_s": self_s.get(EVAL_STATE, 0.0)
            + self_s.get(EVAL_TABLE, 0.0),
            "hessop.linearization_calls": calls.get(LINEARIZATION, 0),
            "hessop.linearization_s": self_s.get(LINEARIZATION, 0.0),
            "hessop.coefficients_s": self_s.get(COEFFICIENTS, 0.0),
            "hessop.matvec_calls": calls.get(MATVEC, 0),
            "hessop.matvec_s": self_s.get(MATVEC, 0.0),
            "solver.newton_steps": newton_steps,
            "solver.linesearch_accept_ratio":
                self.newton_accepted / candidates if candidates > 0 else 0.0,
            "solver.continuity_steps": continuity_steps,
            "solver.krylov_solves": krylov_solves,
            "solver.krylov_iters": self.gmres_iters,
            "solver.krylov_iters_per_newton":
                self.gmres_iters / krylov_solves if krylov_solves else 0.0,
            "solver.precond_build_s": self_s.get(KRYLOV, 0.0),
            "solver.psolve_calls": calls.get(PSOLVE, 0),
            "solver.psolve_s": self_s.get(PSOLVE, 0.0),
            "solver.gmres_self_s": self_s.get(GMRES, 0.0),
            "envelope.eps_steps": eps_steps,
            "envelope.midpoints": midpoints,
            "envelope.complementarity_s": self_s.get(COMPLEMENTARITY, 0.0),
            "inequalities.normalized_solves": calls.get(NORMALIZED, 0),
            "inequalities.solve_s": self_s.get(NORMALIZED, 0.0),
        }
