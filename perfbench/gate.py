"""Correctness gate for benchmark outputs, independent of mmmcoh.

Every output a unit produces is checked two ways:

* its sha256 must equal the digest pinned in ``pins.json`` (taken from the
  seed code, so a later change that alters one byte of a certificate fails);
* the dimensions it reports must equal closed forms computed here from
  first principles, without importing mmmcoh: partition counts for the ring
  A and the twisted module H, ``#{i<j : i+j = d/2}`` for the minimal
  generators, and ``Lambda^j + Lambda^(j+2)`` for the Tor table.

Each check function returns a list of problems; an empty list means pass.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from typing import Dict, List

CHECK_IDS = (
    "contraction-identity",
    "dual-injectivity",
    "covariant-surjectivity",
    "kernel-generators",
    "tor-dimensions",
    "resolution-exactness",
    "torus-h1",
    "kernel-cross-check",
    "sequence-audit",
)

TOR_J_MAX = 4


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# closed forms (internal degree d; the generator e_i sits in degree 2i)


@lru_cache(maxsize=None)
def partitions(n: int) -> int:
    """p(n), the number of partitions of n."""
    if n < 0:
        return 0
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            p[s] += p[s - part]
    return p[n]


def ring_dim(d: int) -> int:
    """dim A_d: monomials in e_1, e_2, ... of degree d."""
    return partitions(d // 2) if d >= 0 and d % 2 == 0 else 0


def twisted_dim(d: int) -> int:
    """dim of the free module on m_l (internal degree 2l) at degree d."""
    if d < 0 or d % 2:
        return 0
    return sum(partitions(d // 2 - l) for l in range(1, d // 2 + 1))


@lru_cache(maxsize=None)
def exterior_dim(j: int, d: int) -> int:
    """dim (Lambda^j E)_d: sets of j distinct generators of total degree d."""
    if j < 0 or d < 0 or d % 2:
        return 0
    n = d // 2
    # ways[k][s]: sets of k distinct positive integers summing to s
    ways = [[0] * (n + 1) for _ in range(j + 1)]
    ways[0][0] = 1
    for part in range(1, n + 1):
        for k in range(j, 0, -1):
            for s in range(n, part - 1, -1):
                ways[k][s] += ways[k - 1][s - part]
    return ways[j][n]


def minimal_generator_count(d: int) -> int:
    """#{i < j : i + j = d/2}, the number of M(i,j) in degree d."""
    if d < 0 or d % 2:
        return 0
    half = d // 2
    return sum(1 for i in range(1, half) if i < half - i)


def tor_dim(j: int, d: int) -> int:
    return exterior_dim(j, d) + exterior_dim(j + 2, d)


def kernel_dim(d: int) -> int:
    """dim of the contraction kernel at internal degree d >= 2."""
    return twisted_dim(d) - ring_dim(d)


# ---------------------------------------------------------------------------
# checks


def _expect(problems: List[str], what: str, got, expected) -> None:
    if got != expected:
        problems.append(f"{what}: got {got!r}, expected {expected!r}")


def check_digest(label: str, text: str, pin: str) -> List[str]:
    got = sha256(text)
    return [] if got == pin else [f"{label}: sha256 {got} differs from pinned {pin}"]


def check_report(text: str, bound: int) -> List[str]:
    """Closed-form checks on a verify-all report (canonical JSON)."""
    problems: List[str] = []
    doc = json.loads(text)
    _expect(problems, "degree_bound", doc.get("degree_bound"), bound)
    _expect(problems, "all_passed", doc.get("all_passed"), True)
    checks = {c["check_id"]: c for c in doc.get("checks", [])}
    _expect(problems, "check ids", tuple(checks), CHECK_IDS)
    if problems:
        return problems
    for cid, c in checks.items():
        _expect(problems, f"{cid} status", c["status"], "pass")
    even = range(0, bound + 1, 2)

    audit = checks["sequence-audit"]["per_degree_data"]
    _expect(problems, "sequence-audit degrees", [r["internal_degree"] for r in audit], list(even))
    for r in audit:
        d = r["internal_degree"]
        _expect(problems, f"ring dim at {d}", r["ring"], ring_dim(d))
        _expect(problems, f"twisted dim at {d}", r["twisted"], twisted_dim(d))
        _expect(problems, f"kernel dim at {d}", r["kernel"], twisted_dim(d) - ring_dim(d) + (d == 0))

    for r in checks["dual-injectivity"]["per_degree_data"]:
        d = r["degree"]
        _expect(problems, f"injectivity source at {d}", r["dim_source"], ring_dim(d))
        _expect(problems, f"cokernel at {d}", r["cokernel"], twisted_dim(d + 2) - ring_dim(d))

    for r in checks["covariant-surjectivity"]["per_degree_data"]:
        d = r["degree"]
        _expect(problems, f"surjectivity target at {d}", r["dim_target"], ring_dim(d))
        _expect(problems, f"surjectivity kernel at {d}", r["kernel"], kernel_dim(d))

    gens = checks["kernel-generators"]["per_degree_data"]
    for r in gens[:-1]:
        d = r["degree"]
        _expect(problems, f"generators kernel at {d}", r["kernel_dim"], kernel_dim(d))
        _expect(problems, f"generators span at {d}", r["span_rank"], kernel_dim(d))
    _expect(
        problems,
        "minimal generator counts",
        gens[-1]["minimal_generator_counts"],
        _min_gen_table(bound),
    )

    tor = {(r["j"], r["degree"]): r["got"] for r in checks["tor-dimensions"]["per_degree_data"]}
    _expect(problems, "Tor table", tor, _tor_table(bound, even))

    exact = checks["resolution-exactness"]["per_degree_data"]
    _expect(problems, "exactness degrees", [r["degree"] for r in exact], list(range(1, bound + 1)))
    for r in exact:
        if not (r["all_exact"] and r["cartan"] and r["diagonal"]):
            problems.append(f"forms complex not certified at degree {r['degree']}")

    h1 = checks["torus-h1"]["per_degree_data"][0]
    _expect(problems, "torus H1", (h1["z1_dim"], h1["b1_dim"], h1["h1_dim"]), (2, 2, 0))
    return problems


def _min_gen_table(bound: int) -> Dict[str, int]:
    return {
        str(d): minimal_generator_count(d)
        for d in range(2, bound + 1, 2)
        if minimal_generator_count(d)
    }


def _tor_table(bound: int, degrees) -> Dict[tuple, int]:
    return {
        (j, d): tor_dim(j, d)
        for d in degrees
        for j in range(TOR_J_MAX + 1)
        if tor_dim(j, d)
    }


def check_query(name: str, text: str, bound: int) -> List[str]:
    """Closed-form checks on one CLI query's JSON output."""
    problems: List[str] = []
    doc = json.loads(text)
    if name == "hilbert-htilde":
        dims = [1] + [kernel_dim(c + 1) if c % 2 else 0 for c in range(1, bound + 1)]
        _expect(problems, "Htilde dims", doc["dims"], dims)
        counts = {c: len(v) for c, v in doc["generators"].items() if c != "0"}
        expected = {str(int(d) - 1): n for d, n in _min_gen_table(bound).items()}
        _expect(problems, "Htilde generator labels", counts, expected)
    elif name == "tor":
        got = {
            (t["j"], int(d)): n for t in doc["tables"] for d, n in t["dims"].items()
        }
        _expect(problems, "Tor table", got, _tor_table(bound, range(bound + 1)))
        _expect(problems, "non-freeness witness", doc["nonfreeness_witness_tor1_degree2"], 1)
    elif name == "generators":
        for r in doc["per_degree"]:
            d = r["degree"]
            _expect(problems, f"generators kernel at {d}", r["kernel_dim"], kernel_dim(d))
            _expect(problems, f"generators span at {d}", r["span_rank"], kernel_dim(d))
        _expect(problems, "minimal generator counts", doc["minimal_generator_counts"], _min_gen_table(bound))
    elif name == "exactness":
        _expect(problems, "all_exact", doc["all_exact"], True)
        _expect(problems, "exactness degrees", [r["degree"] for r in doc["degrees"]], list(range(1, bound + 1)))
    else:
        problems.append(f"unknown query {name!r}")
    return problems
