"""Per-layer tracing for the benchmark's traced run.

The tracer replaces each traced function by a wrapper under every name its
callers use (a function imported with `from .linalg import ...` is a separate
binding in the importing module, so each binding is wrapped). A wrapper
records one span: kind, start, end, parent span, whether it returned, and a
few facts read from its arguments or result. Spans stay in memory and are
written out when the run ends. Nothing in the program is edited.

A kind none of whose names exists any more is reported absent: its metrics
are left out of the result instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

ANALYTIC_NAMES = ("bound_state_domain", "spectrum_linear", "spectrum_tan",
                  "level_energies", "full_spectrum", "degenerate_pairs",
                  "linear_epsilon", "tan_epsilon", "_admissible_n_sigma")

# kind -> (module, attribute) bindings, as the program's callers see them
TARGETS = {
    "linalg.eigvals": [("linalg", "_indexed_eigenvalues"),
                       ("dirac_solver", "_indexed_eigenvalues"),
                       ("susy_reduction", "_indexed_eigenvalues")],
    "linalg.eigvecs": [("linalg", "tridiagonal_eigenvectors"),
                       ("dirac_solver", "tridiagonal_eigenvectors"),
                       ("susy_reduction", "tridiagonal_eigenvectors")],
    "linalg.sturm": [("linalg", "sturm_count"), ("dirac_solver", "sturm_count")],
    "dirac_solver.converge": [("dirac_solver", "converge_box_full")],
    "dirac_solver.assemble": [("dirac_solver", "assemble_dirac_matrix")],
    "susy_reduction.solve": [("susy_reduction", "solve_nonlinear_level")],
    "susy_reduction.f_eval": [("susy_reduction", "schrodinger_operator")],
    "susy_reduction.reconstruct": [("susy_reduction", "reconstruct_spinor")],
    "cli.main": [("cli", "main")],
    "analytic": [("analytic", name) for name in ANALYTIC_NAMES],
    "model.eval_superpotential": [("model", "eval_superpotential"),
                                  ("dirac_solver", "eval_superpotential"),
                                  ("susy_reduction", "eval_superpotential")],
}


def _eigvals_info(args, kwargs, result):
    return {"rows": int(getattr(args[0], "n", 0))}


def _converge_info(args, kwargs, result):
    records = getattr(result, "records", ())
    conv = sum(1 for r in records if getattr(r, "converged", False))
    return {"rounds": int(getattr(result, "rounds", 0)), "converged": conv,
            "unconverged": len(records) - conv}


def _cli_info(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--output" in argv[:-1]:
        path = argv[argv.index("--output") + 1]
        if os.path.isfile(path):
            return {"bytes": os.path.getsize(path)}
    return {"bytes": 0}


INFO = {"linalg.eigvals": _eigvals_info, "dirac_solver.converge": _converge_info,
        "cli.main": _cli_info}


@dataclass
class Span:
    id: int
    kind: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    ok: bool = False
    child_s: float = 0.0
    linalg_below: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self._stack: list[Span] = []

    def install(self, package) -> None:
        for kind, targets in TARGETS.items():
            for modname, attr in targets:
                module = getattr(package, modname, None)
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self._wrap(kind, fn))
                    self.installed.add(kind)

    def _wrap(self, kind, fn):
        info_fn = INFO.get(kind)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans) + len(self._stack), kind, parent,
                        time.perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.ok = True
            if info_fn is not None:
                span.info = info_fn(args, kwargs, result)
            return result

        return traced

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        parent = span.parent
        if parent is not None:
            parent.child_s += span.duration
            if span.linalg_below or span.kind.startswith("linalg."):
                parent.linalg_below = True

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": None if s.parent is None else s.parent.id,
                    "kind": s.kind, "start": s.start, "end": s.end, "ok": s.ok,
                    **s.info}) + "\n")

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, per round of the workload except the maximum
        dimension. Kinds with no wrapped binding are left out."""
        by_kind: dict[str, list[Span]] = {kind: [] for kind in TARGETS}
        for s in self.spans:
            by_kind[s.kind].append(s)
        out: dict = {}

        def put(name, kind, value, unit, per_round=True):
            if kind in self.installed:
                out[name] = {"value": value / rounds if per_round else value,
                             "unit": unit}

        def calls_and_time(prefix, kind, secs="s", self_time=False):
            spans = by_kind[kind]
            put(f"{prefix}_calls", kind, len(spans), "count")
            put(f"{prefix}_{secs}", kind,
                sum(s.self_s if self_time else s.duration for s in spans), "s")

        def hits(kind):
            return sum(1 for s in by_kind[kind] if s.ok and not s.linalg_below)

        rows = [s.info.get("rows", 0) for s in by_kind["linalg.eigvals"] if s.ok]
        calls_and_time("linalg.eigvals", "linalg.eigvals")
        put("linalg.eigvals_rows", "linalg.eigvals", sum(rows), "rows")
        put("linalg.eigvals_max_dim", "linalg.eigvals", max(rows, default=0), "rows",
            per_round=False)
        calls_and_time("linalg.eigvecs", "linalg.eigvecs")
        calls_and_time("linalg.sturm", "linalg.sturm")

        conv = by_kind["dirac_solver.converge"]
        computed = [s for s in conv if s.ok and s.linalg_below]
        calls_and_time("dirac_solver.converge", "dirac_solver.converge",
                       secs="self_s", self_time=True)
        for key, name in (("rounds", "rounds"), ("converged", "levels_converged"),
                          ("unconverged", "levels_unconverged")):
            put(f"dirac_solver.{name}", "dirac_solver.converge",
                sum(s.info.get(key, 0) for s in computed), "count")
        put("dirac_solver.cache_hits", "dirac_solver.converge",
            hits("dirac_solver.converge"), "count")
        calls_and_time("dirac_solver.assemble", "dirac_solver.assemble")

        calls_and_time("susy_reduction.solve", "susy_reduction.solve",
                       secs="self_s", self_time=True)
        put("susy_reduction.f_evals", "susy_reduction.f_eval",
            len(by_kind["susy_reduction.f_eval"]), "count")
        calls_and_time("susy_reduction.reconstruct", "susy_reduction.reconstruct")
        put("susy_reduction.cache_hits", "susy_reduction.solve",
            hits("susy_reduction.solve"), "count")

        cli = by_kind["cli.main"]
        put("cli.commands", "cli.main", len(cli), "count")
        put("cli.self_s", "cli.main", sum(s.self_s for s in cli), "s")
        put("cli.output_bytes", "cli.main", sum(s.info.get("bytes", 0) for s in cli),
            "bytes")

        outer = [s for s in by_kind["analytic"]
                 if s.parent is None or s.parent.kind != "analytic"]
        put("analytic.calls", "analytic", len(outer), "count")
        put("analytic.s", "analytic", sum(s.duration for s in outer), "s")
        put("model.eval_superpotential_calls", "model.eval_superpotential",
            len(by_kind["model.eval_superpotential"]), "count")
        return out
