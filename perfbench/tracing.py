"""Span tracing for the traced run, installed from the benchmark's side.

:class:`Tracer` replaces the layer functions and methods listed in
:data:`TARGETS` with wrappers, in every ``defekt`` module that binds them,
and restores the originals afterwards.  Each wrapper keeps a stack frame
so that self time (a span's duration minus the time its wrapped children
took) is exact even for nested and recursive calls.  Coarse spans are kept
in memory as (request, name, start, end, parent) and written out at the
end; the hot inner calls (matrix products, eliminations, algebra products)
only add to per-name counters, which keeps memory flat over a long run.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (owner, attribute, span name, keep spans).  ``owner`` is a module name
# or "module.Class" under defekt; a span name starts with its layer.
TARGETS = (
    ("exactla.Matrix", "rref", "exactla.rref", False),
    ("exactla.Matrix", "__mul__", "exactla.matmul", False),
    ("series.LinearRepresentation", "value", "series.value", False),
    ("series.CircularRepresentation", "value", "series.value", False),
    ("universal", "theory_from_json", "universal.ingest", True),
    ("universal", "minimize", "universal.minimize", True),
    ("universal.PairAlgebra", "__init__", "universal.pair_algebra", True),
    ("universal", "frobenius_of_K", "universal.frobenius_of_K", True),
    ("universal.PairAlgebra", "mul", "universal.pair_mul", False),
    ("universal", "idempotent_report", "universal.idempotents", True),
    ("onevar", "analyze", "onevar.analyze", True),
    ("onevar", "analysis_to_json", "onevar.serialize", True),
    ("frobenius", "frobenius_from_json", "frobenius.ingest", True),
    ("frobenius", "surface_from_json", "frobenius.ingest", True),
    ("frobenius", "verify", "frobenius.verify", True),
    ("frobenius.FrobeniusAlgebra", "mul", "frobenius.mul", False),
    ("frobenius", "dual_bases", "frobenius.dual_bases", False),
    ("frobenius", "eval_surface", "frobenius.surface", True),
    ("frobenius", "beta_map", "frobenius.beta", True),
    ("frobenius", "embedding_obstruction", "frobenius.obstruction", True),
    ("diagrams", "diagram_from_json", "diagrams.ingest", True),
    ("diagrams", "compose", "diagrams.compose", True),
    ("diagrams", "mirror", "diagrams.compose", True),
    ("diagrams", "tensor", "diagrams.compose", True),
    ("diagrams", "evaluate_closed", "diagrams.evaluate", True),
    ("diagrams", "state_space_dim", "diagrams.dim", True),
    ("diagrams", "hom_dim", "diagrams.dim", True),
    ("openclosed", "check_knowledgeable", "openclosed.check", True),
    ("openclosed", "state_space_circle", "openclosed.circle_dim", True),
    ("openclosed", "eval_oc_closed", "openclosed.eval", True),
)
LAYERS = ("exactla", "series", "universal", "onevar", "frobenius", "diagrams",
          "openclosed")

# Per-layer metrics reported per traced request: "calls" and "self_s" come
# from the span statistics, "failed" counts calls that raised, and the
# other counters are filled by the hooks at the end of this module.
PER_REQUEST = (
    "exactla.rref.calls", "exactla.rref.self_s", "exactla.rref.entries",
    "exactla.matmul.calls", "exactla.matmul.self_s",
    "series.value.calls", "series.value.self_s",
    "universal.ingest.self_s", "universal.minimize.self_s",
    "universal.pair_algebra.self_s", "universal.pair_algebra.dim_sum",
    "universal.frobenius_of_K.self_s", "universal.pair_mul.calls",
    "universal.pair_mul.self_s", "universal.idempotents.self_s",
    "onevar.analyze.self_s", "onevar.serialize.self_s", "onevar.serialize.failed",
    "frobenius.ingest.self_s", "frobenius.verify.self_s", "frobenius.mul.calls",
    "frobenius.mul.self_s", "frobenius.dual_bases.calls", "frobenius.surface.self_s",
    "frobenius.beta.self_s", "frobenius.obstruction.self_s",
    "diagrams.ingest.self_s", "diagrams.compose.self_s", "diagrams.evaluate.self_s",
    "diagrams.dim.self_s", "diagrams.gram_entries",
    "openclosed.check.self_s", "openclosed.circle_dim.self_s",
    "openclosed.eval.self_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s/req"
    if metric.endswith(".calls"):
        return "calls/req"
    return "count/req"


def _resolve(path: str):
    mod, _, cls = path.partition(".")
    module = sys.modules[f"defekt.{mod}"]
    return getattr(module, cls) if cls else module


class Tracer:
    """Wraps the layer functions while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.stats: dict = {}
        self.counts: dict = {}
        self.request = -1
        self._stack: list = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        idx = None
        if keep:
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None),
                          None)
            idx = len(self.spans)
            self.spans.append([self.request, name, 0.0, 0.0, parent])
        frame = [perf_counter(), 0.0, idx]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, failed: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        st = self.stats.setdefault(name, [0, 0.0, 0])
        st[0] += 1
        st[1] += dur - frame[1]
        st[2] += failed
        if self._stack:
            self._stack[-1][1] += dur
        if frame[2] is not None:
            self.spans[frame[2]][2:4] = [frame[0], end]

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (the request root)."""
        frame = self._enter(name, True)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(name, frame, failed)

    def _wrap(self, fn, name: str, keep: bool, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, keep)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._exit(name, frame, failed)
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, counter: str, value) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "defekt" or n.startswith("defekt.")]
        for owner_path, attr, name, keep in TARGETS:
            owner = _resolve(owner_path)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(orig, name, keep, HOOKS.get((owner_path, attr)))
            bindings = [(owner, attr)]
            if "." not in owner_path:
                bindings += [(m, n) for m in modules for n, v in vars(m).items()
                             if v is orig and (m, n) != (owner, attr)]
            for obj, n in bindings:
                setattr(obj, n, wrapper)
                self._undo.append((obj, n, orig))

    def uninstall(self) -> None:
        for obj, n, orig in reversed(self._undo):
            setattr(obj, n, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------------

    def metrics(self, requests: int, scale: float) -> dict:
        """Per-layer metrics averaged over the traced requests; times are
        multiplied by ``scale`` to bring them to the reference speed."""
        out = {}
        for metric in PER_REQUEST:
            name, _, field = metric.rpartition(".")
            st = self.stats.get(name, [0, 0.0, 0])
            if field == "calls":
                total = st[0]
            elif field == "self_s":
                total = st[1] * scale
            elif field == "failed":
                total = st[2]
            else:
                total = self.counts.get(metric, 0)
            out[metric] = {"value": total / requests, "unit": unit_of(metric)}
        attempted = self.counts.get("diagrams.spanning_size", 0)
        out["diagrams.rank_yield"] = {
            "value": self.counts.get("diagrams.dim_sum", 0) / attempted if attempted else 0.0,
            "unit": "ratio"}
        for layer in LAYERS:
            total = scale * sum(st[1] for n, st in self.stats.items()
                                if n.startswith(layer + "."))
            out[f"{layer}.self_s"] = {"value": total / requests, "unit": "s/req"}
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for req, name, start, end, parent in self.spans:
                fh.write(json.dumps({"request": req, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# -- counter hooks ------------------------------------------------------------------


def _rref_entries(tracer, args, result):
    tracer.add("exactla.rref.entries", args[0].rows * args[0].cols)


def _pair_dim(tracer, args, result):
    tracer.add("universal.pair_algebra.dim_sum", args[0].dim)


def _gram(tracer, args, result):
    """Spanning-set sizes of a dimension request, read from the library's
    per-theory cache of spanning records (filled by the call just made)."""
    from defekt import diagrams

    t = args[0]
    eps = args[1] if len(args) == 2 else diagrams.mirror_signs(args[1]) + args[2]
    records = diagrams._context(t)._records
    nx = len(records.get(eps, ()))
    ny = len(records.get(diagrams.mirror_signs(eps), ()))
    tracer.add("diagrams.gram_entries", nx * ny)
    tracer.add("diagrams.spanning_size", nx)
    tracer.add("diagrams.dim_sum", result)


HOOKS = {
    ("exactla.Matrix", "rref"): _rref_entries,
    ("universal.PairAlgebra", "__init__"): _pair_dim,
    ("diagrams", "state_space_dim"): _gram,
    ("diagrams", "hom_dim"): _gram,
}
