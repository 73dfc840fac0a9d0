"""Spans and work counts at abelweb's module boundaries, from outside.

The tracer wraps the library's public functions in place and restores
them afterwards; a run without tracing never calls :meth:`Tracer.install`,
so it executes the library untouched.  A function is patched in every
module that holds a binding to it (``abelian.substitute`` and
``grassmann.substitute`` are separate names for ``multilinear.substitute``),
because a call through an unpatched alias would be timed as part of its
caller.

A span is ``[layer, start, end, parent, job]``; spans stay in memory
until the run ends.  A layer's self time is the sum over its spans of the
span's duration minus the durations of its direct children.  Work that
the tracer itself does after a call (counting non-zeros) is recorded as a
``trace.count`` span, so it is charged to no layer of the library.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (layer, module, attribute): module-level functions patched wherever bound
FUNCTIONS = [
    ("cli.parser", "abelweb.cli", "_build_parser"),
    ("cli.load", "abelweb.cli", "_load_json"),
    ("cli.emit", "abelweb.cli", "_emit"),
    ("webcore.check_pg", "abelweb.webcore", "check_pg"),
    ("webcore.generator_normal", "abelweb.webcore", "generator_normal"),
    ("multilinear.wedge", "abelweb.multilinear", "wedge"),
    ("multilinear.substitute", "abelweb.multilinear", "substitute"),
    ("abelian.relation_matrix", "abelweb.abelian", "relation_matrix"),
    ("abelian.verify", "abelweb.abelian", "_verify_relation"),
    ("grassmann.recover", "abelweb.grassmann", "recover_normal_form"),
    ("grassmann.castelnuovo", "abelweb.grassmann", "castelnuovo_rnc_test"),
    ("grassmann.fit_rnc", "abelweb.grassmann", "fit_rnc"),
    ("canonical.canonical_data", "abelweb.canonical", "canonical_data"),
    ("incidence.tangent_web", "abelweb.incidence", "tangent_incidence_web"),
]

# (layer, module, class, attribute): methods patched on the class
METHODS = [
    ("exactalg.rank", "abelweb.exactalg", "Matrix", "rank"),
    ("exactalg.rref", "abelweb.exactalg", "Matrix", "rref"),
    ("exactalg.det", "abelweb.exactalg", "Matrix", "det"),
    ("webcore.from_json", "abelweb.webcore", "ConstantWeb", "from_json"),
]

LAYERS = [entry[0] for entry in FUNCTIONS + METHODS]
JOB = "job"
COUNTING = "trace.count"


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = None
        self._patches: list[tuple[object, str, object]] = []
        self.cells: Counter = Counter()
        self.degrees: list[dict] = []
        self._last_matrix = None

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "abelweb" or name.startswith("abelweb.")]
        for layer, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)
        for layer, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(layer, original.__func__))
            else:
                wrapped = self._wrap(layer, original)
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapped) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapped)

    def _wrap(self, layer, fn):
        count = {
            "exactalg.rank": self._count_rank,
            "exactalg.rref": self._count_rref,
            "abelian.relation_matrix": self._count_relation_matrix,
        }.get(layer)

        def wrapper(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                counting = self._open(COUNTING)
                count(span, args, result)
                self._close(counting)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ----------------------------------------------------------

    def _open(self, layer) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [layer, 0.0, 0.0, parent, self._job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def begin_job(self, job_id) -> list:
        self._job = job_id
        return self._open(JOB)

    def end_job(self, span) -> None:
        self._close(span)
        self._job = None

    # -- exact work counts ----------------------------------------------

    def _count_rank(self, span, args, result) -> None:
        matrix = args[0]
        self.cells["exactalg.rank_cells"] += matrix.rows * matrix.cols
        if matrix is self._last_matrix:
            self.degrees[-1]["rank_s"] = span[2] - span[1]
            self._last_matrix = None

    def _count_rref(self, span, args, result) -> None:
        self.cells["exactalg.rref_cells"] += args[0].rows * args[0].cols

    def _count_relation_matrix(self, span, args, result) -> None:
        web, h = args[0], args[1]
        nnz = sum(1 for row in result.entries for x in row if x)
        self.cells["abelian.matrix_cells"] += result.rows * result.cols
        self.cells["abelian.matrix_nnz"] += nnz
        self.degrees.append({
            "job": span[4], "r": web.r, "n": web.n, "d": web.d, "h": h,
            "rows": result.rows, "cols": result.cols, "nnz": nnz,
            "build_s": span[2] - span[1], "rank_s": None,
        })
        self._last_matrix = result

    # -- summaries ------------------------------------------------------

    def layer_summary(self) -> dict[str, dict]:
        """Per layer: ``self_s`` (self time) and ``calls``."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        summary: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            entry = summary[layer]
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
        return dict(summary)

    def counts(self) -> dict:
        """Every exact count: calls per layer, cells, non-zeros, shapes."""
        calls = Counter(span[0] for span in self.spans)
        result = {f"{layer}_calls": calls[layer] for layer in LAYERS}
        result.update({key: self.cells[key] for key in (
            "exactalg.rank_cells", "exactalg.rref_cells",
            "abelian.matrix_cells", "abelian.matrix_nnz")})
        result["degrees"] = [
            {k: v for k, v in row.items() if not k.endswith("_s")}
            for row in self.degrees
        ]
        return result


def closed_form_shape(r: int, n: int, d: int, h: int) -> tuple[int, int]:
    """Rows and columns of the degree-h relation matrix of a (r, n, d) web."""
    rn = r * n
    return (math.comb(rn + h - 1, h) * math.comb(rn, r),
            d * math.comb(r - 1 + h, h))
