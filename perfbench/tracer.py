"""Outside-in tracer: spans and counts around the public functions of each
mmmcoh layer, installed by the benchmark and never by the package itself.

A function is wrapped at every name binding its callers look up.  ``modules``
and ``stable`` bind ``rank``, ``rref`` and ``_kernel_with_free_columns`` by
from-import, and the package root re-exports most names, so wrapping only
``mmmcoh.linalg.rank`` would miss most calls; the tracer therefore replaces
the original object in every ``mmmcoh`` module that holds it.  Methods are
wrapped once, on their class.  ``forms.verify_exactness`` imports ``rank``
when it runs, which finds the wrapped ``mmmcoh.linalg.rank``.

Spans are kept in memory as ``(id, parent id, name, start, end, counts)``
and written as JSON lines by :meth:`Tracer.write`.  Pool workers forked
while the tracer is installed inherit the wrappers; each worker drops the
spans it inherited and appends its own to ``spans-<pid>.jsonl`` whenever
its outermost span closes, so their work is counted too.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def _count_apply(args, result):
    return {"nnz_indexed": len(args[0].entries)}


def _count_rank(args, result):
    m = args[0]
    return {"nnz_in": len(m.entries), "cells_in": m.rows * m.cols, "pivots": result}


def _count_rref(args, result):
    return {"nnz_in": len(args[0].entries), "nnz_out": sum(len(r) for r in result[1])}


def _count_koszul(args, result):
    return {"nnz_out": len(result.entries)}


def _count_kernel_module(args, result):
    return {"dims_out": sum(result[0].dims.values())}


_STABLE_METHODS = (
    "__init__",
    "twisted_module",
    "ring_module",
    "twisted_as_vector",
    "delta_contravariant",
    "delta_covariant",
    "covariant_kernel",
    "tilde_module",
    "verify_injectivity",
    "verify_surjectivity",
    "stable_cohomology_tilde_dual",
    "stable_cohomology_tilde",
    "stable_cohomology_ring",
    "stable_cohomology_twisted",
    "verify_contraction_table",
    "verify_generators",
    "verify_tor",
    "exact_sequence_audit",
    "kernel_cross_check",
)

# (module, attribute path, span name, counter); the span name is the layer
# metric prefix the span's self time and counts are summed under.  Spans
# that feed no metric (kernel read-off, solves, the pool's entry points)
# keep that work out of their callers' self time.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("mmmcoh.linalg", "SparseMatrix.apply", "linalg.apply", _count_apply),
    ("mmmcoh.linalg", "SparseMatrix.__matmul__", "linalg.matmul", None),
    ("mmmcoh.linalg", "rank", "linalg.rank", _count_rank),
    ("mmmcoh.linalg", "rref", "linalg.rref", _count_rref),
    ("mmmcoh.linalg", "_kernel_with_free_columns", "linalg.kernel", None),
    ("mmmcoh.linalg", "kernel_basis", "linalg.kernel", None),
    ("mmmcoh.linalg", "column_space_basis", "linalg.column_space", None),
    ("mmmcoh.linalg", "solve_many", "linalg.solve", None),
    ("mmmcoh.algebra", "PolynomialAlgebra.monomial_basis", "algebra", None),
    ("mmmcoh.algebra", "PolynomialAlgebra.hilbert_function", "algebra", None),
    ("mmmcoh.algebra", "PolynomialAlgebra.basis_index", "algebra", None),
    ("mmmcoh.algebra", "PolynomialAlgebra.as_vector", "algebra", None),
    ("mmmcoh.algebra", "PolynomialAlgebra.from_vector", "algebra", None),
    ("mmmcoh.algebra", "exterior_basis", "algebra", None),
    ("mmmcoh.algebra", "exterior_dim", "algebra", None),
    ("mmmcoh.forms", "DifferentialForms.exterior_derivative", "forms.operators", None),
    ("mmmcoh.forms", "DifferentialForms.interior_product", "forms.operators", None),
    ("mmmcoh.forms", "DifferentialForms.lie_derivative", "forms.lie_derivative", None),
    ("mmmcoh.forms", "DifferentialForms.verify_cartan", "forms.verify_cartan", None),
    ("mmmcoh.forms", "DifferentialForms.verify_exactness", "forms.verify_exactness", None),
    ("mmmcoh.modules", "free_module", "modules.free_module", None),
    ("mmmcoh.modules", "direct_sum", "modules.direct_sum", None),
    ("mmmcoh.modules", "kernel_module", "modules.kernel_module", _count_kernel_module),
    ("mmmcoh.modules", "minimal_generators", "modules.minimal_generators", None),
    ("mmmcoh.modules", "koszul_differential", "modules.koszul_differential", _count_koszul),
    ("mmmcoh.modules", "tor_dimension", "modules.tor_dimension", None),
    ("mmmcoh.modules", "tor_table", "modules.tor_table", None),
    ("mmmcoh.modules", "GradedModuleMap.check_equivariance", "modules.equivariance", None),
    ("mmmcoh.modules", "GradedModule.check_action_commutativity", "modules.equivariance", None),
    *(("mmmcoh.stable", f"StableCohomology.{m}", "stable", None) for m in _STABLE_METHODS),
    ("mmmcoh.stable", "contraction_pairing", "stable", None),
    ("mmmcoh.stable", "kernel_generator", "stable", None),
    ("mmmcoh.groupcoh", "h1_certificate", "groupcoh.h1_certificate", None),
    ("mmmcoh.verify", "run_verification", "verify.run_verification", None),
    ("mmmcoh.verify", "VerificationReport.to_json", "verify.to_json", None),
    ("mmmcoh.verify", "_pool_init", "verify.pool_init", None),
    ("mmmcoh.verify", "_tor_degree_worker", "verify.pool_task", None),
    ("mmmcoh.verify", "_exactness_degree_worker", "verify.pool_task", None),
    ("mmmcoh.cli", "main", "cli", None),
    ("mmmcoh.cli", "cmd_verify_all", "cli", None),
    ("mmmcoh.cli", "cmd_hilbert", "cli", None),
    ("mmmcoh.cli", "cmd_tor", "cli", None),
    ("mmmcoh.cli", "cmd_generators", "cli", None),
    ("mmmcoh.cli", "cmd_exactness", "cli", None),
    ("mmmcoh.cli", "cmd_h1", "cli", None),
)

_MARK = "__perfbench_span__"


class Tracer:
    """Installs the wrappers, records spans, and restores every original."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.next_id = self.pid << 32
        self._restore: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mmmcoh" or name.startswith("mmmcoh."))
        ]
        for module_name, path, name, count in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                # a later version of the package may drop a function; its
                # metrics then read 0 instead of breaking the benchmark
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, name, count)
            if outer:
                self._bind(owner, attr, wrapper)
            else:
                for module in modules:
                    for alias, value in list(module.__dict__.items()):
                        if value is original:
                            self._bind(module, alias, wrapper)

    def _bind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- recording -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        tracer = self
        getpid = os.getpid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getpid() != tracer.pid:
                tracer._forked()
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                counts = count(args, result) if count is not None and result is not None else None
                tracer.spans.append((sid, parent, name, t0, t1, counts))
                if not stack and tracer.pid != tracer.owner:
                    tracer.write()

        setattr(wrapper, _MARK, name)
        return wrapper

    def _forked(self) -> None:
        # a pool worker: the inherited spans and open stack are the parent's
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = self.pid << 32

    def write(self) -> None:
        """Append the spans held in memory to this process's file."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def installed_wrappers() -> List[str]:
    """Names still bound to a tracer wrapper in any mmmcoh module or class."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "mmmcoh" or mod_name.startswith("mmmcoh.")):
            continue
        for attr, value in list(module.__dict__.items()):
            if hasattr(value, _MARK):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                found.extend(
                    f"{mod_name}.{attr}.{m}"
                    for m, v in vars(value).items()
                    if hasattr(v, _MARK)
                )
    return found


# ---------------------------------------------------------------------------
# aggregation


def read_spans(out_dir: Path) -> List[tuple]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(tuple(json.loads(line)) for line in fh)
    return spans


def summarize(spans: Iterable[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self_s (duration minus child spans) and the
    summed counts."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for sid, parent, name, t0, t1, counts in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out: Dict[str, Dict[str, float]] = {}
    for sid, parent, name, t0, t1, counts in spans:
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        for key, value in (counts or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out
