"""The full verification suite: one check per structural statement.

Each check runs exact computations through the library and produces a
CheckResult with per-degree data; `run_verification` collects them into a
VerificationReport.  Reports serialize to canonical JSON: fixed key order,
no timestamps, and timings kept out of the default serialization so that
identical inputs give byte-identical bytes (timings are available as an
explicitly non-deterministic sidecar).

Checks run one after another in this process, each a view over the
library routine that computes its statement, or that routine itself as a
`methodcaller`; tor-dimensions reads `StableCohomology.verify_tor`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from operator import methodcaller
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .groupcoh import h1_certificate, load_bundled_b3
from .stable import FalsificationError, StableCohomology


@dataclass
class CheckResult:
    check_id: str
    statement: str
    status: str  # "pass" | "fail"
    per_degree_data: List[Dict[str, object]]
    elapsed_ms: float
    failure: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "check_id": self.check_id,
            "statement": self.statement,
            "status": self.status,
            "per_degree_data": self.per_degree_data,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


@dataclass
class VerificationReport:
    artifact_version: str
    degree_bound: int
    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timings: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "artifact_version": self.artifact_version,
            "degree_bound": self.degree_bound,
            "all_passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        if include_timings:
            # wall-clock times are the one non-deterministic field; callers
            # asking for them opt out of byte-identical reports
            out["timings_ms"] = {c.check_id: round(c.elapsed_ms, 3) for c in self.checks}
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2)


# ---------------------------------------------------------------------------
# the individual checks; each returns per-degree rows or raises


def _check_injectivity(ctx: StableCohomology) -> List[Dict[str, object]]:
    # verify_injectivity raises unless every degree embeds with the
    # expected cokernel, so every row it returns is ok
    rows = ctx.verify_injectivity()
    table = ctx.stable_cohomology_tilde_dual()
    # parity sanity on the verified table
    if any(c % 2 == 0 and n for c, n in table.dims.items()):
        raise FalsificationError("dual table has even-degree classes")
    return [{"degree": d, **row, "ok": 1} for d, row in sorted(rows.items())]


def _check_surjectivity(ctx: StableCohomology) -> List[Dict[str, object]]:
    rows = ctx.verify_surjectivity()
    # the even part of Htilde is the cokernel of the contraction: theta in
    # degree 0 (the twisted module starts at degree 2) and dim_target - rank
    # in each positive even degree
    even = {0: 1}
    for d, row in rows.items():
        if row["dim_target"] != row["rank"]:
            even[d] = row["dim_target"] - row["rank"]
    if even != {0: 1}:
        raise FalsificationError(f"even part should be one theta line, got {even}")
    return [{"degree": d, **row} for d, row in sorted(rows.items())]


def _check_generators(ctx: StableCohomology) -> List[Dict[str, object]]:
    report = ctx.verify_generators()
    rows: List[Dict[str, object]] = [dict(r) for r in report.per_degree]
    rows.append(
        {
            "syzygies_checked": report.syzygies_checked,
            "minimal_generator_counts": {
                str(d): n for d, n in sorted(report.minimal_counts.items())
            },
        }
    )
    return rows


def _walk_cartan(ctx: StableCohomology) -> None:
    # the forms certificate with its Cartan half, per degree: the exactness
    # identities on the down forms of the matching, and d p + p d = L by a
    # slot test over whole lists of d (on the pattern of p) and p.  It fills
    # the exactness memo that verify_tor and the exactness rows read, so a
    # run of both checks builds each p_n once
    for d in range(1, ctx.degree_bound + 1):
        ctx.forms.verify_cartan(d)


def _check_tor(ctx: StableCohomology) -> List[Dict[str, object]]:
    _walk_cartan(ctx)
    # verify_tor raises on any (j, d) where the dimension differs from
    # Lambda^j + Lambda^(j+2), so each row's expected value is its got value
    report = ctx.verify_tor(j_max=4)
    rows: List[Dict[str, object]] = [
        {"j": t.j, "degree": d, "got": t.dim(d), "expected": t.dim(d)}
        for d in range(0, ctx.degree_bound + 1)
        for t in report.results
        if t.dim(d)
    ]
    if report.nonfreeness_witness != 1:
        raise FalsificationError("missing non-freeness witness at Tor_1, degree 2")
    return rows


def _check_exactness(ctx: StableCohomology) -> List[Dict[str, object]]:
    # verify_cartan raises ValueError unless d p + p d is the diagonal of
    # positive weights (cartan, diagonal), and unless the matched unit
    # minors of p and p^2 = 0 certify exactness; exactness is checked on
    # the down forms, which settle the up forms, the Cartan identity by its
    # slot test on every column, and a failure is named by a full walk
    _walk_cartan(ctx)
    rows: List[Dict[str, object]] = []
    for d in range(1, ctx.degree_bound + 1):
        report = ctx.forms.verify_exactness(d)
        rows.append(
            {
                "degree": d,
                "all_exact": report.all_exact,
                "cartan": True,
                "diagonal": True,
                "spots": [s.to_dict() for s in report.spots],
            }
        )
        if not report.all_exact:
            raise FalsificationError(f"forms complex fails at degree {d}", rows)
    return rows


def _check_h1(ctx: StableCohomology) -> List[Dict[str, object]]:
    cert = h1_certificate(*load_bundled_b3())
    if (cert.z1_dim, cert.b1_dim, cert.h1_dim) != (2, 2, 0):
        raise FalsificationError(
            f"expected Z1=2, B1=2, H1=0; got {cert.z1_dim}, {cert.b1_dim}, {cert.h1_dim}"
        )
    return [
        {
            "group": "three-strand braid group on the torus homology lattice",
            "z1_dim": cert.z1_dim,
            "b1_dim": cert.b1_dim,
            "h1_dim": cert.h1_dim,
        }
    ]


CHECKS: List[Tuple[str, str, Callable]] = [
    (
        "contraction-identity",
        "the pairing of twisted classes satisfies mu(m_l, m_l') = -e_(l+l'-1) "
        "for every pair of indices inside the degree bound",
        methodcaller("verify_contraction_table"),
    ),
    (
        "dual-injectivity",
        "cup product with the degree-1 twisted class embeds the coefficient "
        "ring into the twisted module in every degree, with cokernel the free "
        "module on the twisted classes of index at least 2",
        _check_injectivity,
    ),
    (
        "covariant-surjectivity",
        "contraction against the degree-1 twisted class maps the twisted "
        "module onto every positive degree of the coefficient ring, leaving "
        "only the degree-0 fiber class in even degrees",
        _check_surjectivity,
    ),
    (
        "kernel-generators",
        "the classes M(i,j) = e_i m_j - e_j m_i span the contraction kernel "
        "degreewise, satisfy the cyclic syzygies exactly, and minimally "
        "generate with multiplicities dim Lambda^2 E",
        _check_generators,
    ),
    (
        "tor-dimensions",
        "Koszul homology of the verified cohomology module has dimensions "
        "dim Lambda^j E + dim Lambda^(j+2) E in every bidegree, and Tor_1 is "
        "nonzero, so the module is not free",
        _check_tor,
    ),
    (
        "resolution-exactness",
        "the contraction sequence of differential forms is exact in every "
        "positive internal degree, and d p + p d acts diagonally with weight "
        "(generator factors + form degree)",
        _check_exactness,
    ),
    (
        "torus-h1",
        "first cohomology of the once-bordered torus mapping class group "
        "with lattice coefficients vanishes: cocycles and coboundaries both "
        "have dimension 2",
        _check_h1,
    ),
    (
        "kernel-cross-check",
        "the twisted-class contraction and the Euler contraction on 1-forms "
        "are the same matrices up to one global sign, with equal kernel "
        "dimensions in every degree",
        methodcaller("kernel_cross_check"),
    ),
    (
        "sequence-audit",
        "the alternating dimension sum of 0 -> kernel -> twisted module -> "
        "coefficient ring -> Q -> 0 vanishes in every degree block",
        methodcaller("exact_sequence_audit"),
    ),
]


def run_verification(
    degree_bound: int = 24,
    jobs: int = 1,
    check_ids: Optional[Sequence[str]] = None,
) -> VerificationReport:
    """Run every check, or those named in ``check_ids``, and collect the
    report.

    A selection that names an id not in `CHECKS`, or no id at all, raises
    ValueError: a misspelt id would drop its check, and a report with no
    check passes having certified nothing.

    ``jobs`` accepts only 1: the degree-level process pool was removed
    because it was no faster than the serial run and used more CPU time
    and memory.  It stays because ``perfbench/unit.py`` passes ``jobs=``
    in every certify unit: removing it would fail every benchmark run.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs}: the process pool was removed; only jobs=1 is accepted")
    known = [check_id for check_id, _, _ in CHECKS]
    wanted = set(known if check_ids is None else check_ids)
    unknown = sorted(wanted.difference(known))
    if unknown:
        raise ValueError(f"unknown check ids {unknown}; the checks are {known}")
    if not wanted:
        raise ValueError("no check selected")
    ctx = StableCohomology(degree_bound)
    results: List[CheckResult] = []
    for check_id, statement, runner in CHECKS:
        if check_id not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            rows = runner(ctx)
            status, failure = "pass", None
        except (FalsificationError, ValueError) as exc:
            # a ValueError is a broken premise (a map that is not
            # equivariant, a kernel not preserved, a degree out of range):
            # it fails this check, and the remaining checks still run
            rows = []
            status, failure = "fail", str(exc)
        elapsed = (time.perf_counter() - t0) * 1000.0
        results.append(
            CheckResult(
                check_id=check_id,
                statement=statement,
                status=status,
                per_degree_data=rows,
                elapsed_ms=elapsed,
                failure=failure,
            )
        )
    return VerificationReport(
        artifact_version=__version__,
        degree_bound=degree_bound,
        checks=results,
    )
