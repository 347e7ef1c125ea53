"""Command-line front end.

    mmmcoh verify-all  [--max-degree N] [--timings] [--format F] [--out PATH]
    mmmcoh hilbert COEFFS [--max-degree N] ...     (Q | H | Htilde | HtildeDual)
    mmmcoh tor        [--j-max J] [--max-degree N] ...
    mmmcoh generators [--max-degree N] ...
    mmmcoh exactness  [--max-degree N] ...
    mmmcoh h1 INPUT   [--certify] ...              (a JSON file, or "b3")

The degree bound defaults to 24 and must be a positive even integer; the
environment variable MMM_DEGREE_BOUND overrides the default.  Exit status
is 0 only if every requested check passes.  A statement that fails by
raising (a `FalsificationError`, or a `ValueError` from a broken premise)
writes `mmmcoh: <message>` to stderr, nothing to stdout (an --out file is
left empty), and exits 1.
Malformed usage (a bad bound also for `h1`, which does not use it), a
malformed `h1` input and an unwritable --out path exit 2, the last before
any computation.

Each subcommand returns one `View` (JSON document, CSV header and rows,
text lines, pass flag); `_render` writes every format from it, and `main`
makes the one write and picks the exit code from the pass flag.

JSON output is canonical: running the same command twice produces the
same bytes (pass --timings to verify-all to append wall-clock times, which
are excluded from that guarantee).  `tor` and verify-all's tor-dimensions
check both read StableCohomology.verify_tor.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import List, NamedTuple, Optional

from . import __version__
from .groupcoh import h1_certificate, load_bundled_b3, load_group_file
from .stable import FalsificationError, StableCohomology
from .verify import run_verification

EXIT_OK = 0
EXIT_FAIL = 1

# `hilbert COEFFS`: the name of the StableCohomology method that builds
# each table, looked up on the instance when the command runs
_HILBERT_TABLES = {
    "Q": "stable_cohomology_ring",
    "H": "stable_cohomology_twisted",
    "Htilde": "stable_cohomology_tilde",
    "HtildeDual": "stable_cohomology_tilde_dual",
}


class View(NamedTuple):
    """One subcommand's result, ready for any output format."""

    doc: object
    header: List[str]
    rows: List[List[object]]
    lines: List[str]
    ok: bool = True


def _degree_bound(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``--max-degree``, else MMM_DEGREE_BOUND, else 24; bad values are usage errors."""
    value = args.max_degree
    if value is None:
        raw = os.environ.get("MMM_DEGREE_BOUND", "24")
        try:
            value = int(raw)
        except ValueError:
            parser.error(f"MMM_DEGREE_BOUND={raw!r} is not an integer")
    if value <= 0 or value % 2:
        parser.error(f"--max-degree must be a positive even integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmmcoh",
        description="exact verification of stable mapping-class-group cohomology",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.set_defaults(handler=cmd_verify_all)
    p.add_argument(
        "--timings",
        action="store_true",
        help="append wall-clock times (not byte-deterministic)",
    )

    p = sub.add_parser("hilbert", help="dimension table of a stable cohomology module")
    p.set_defaults(handler=cmd_hilbert)
    p.add_argument("coefficients", choices=tuple(_HILBERT_TABLES))
    p.add_argument(
        "--up-to",
        type=int,
        help="highest cohomological degree to print (any parity; default: the bound)",
    )

    p = sub.add_parser("tor", help="Koszul homology dimensions of the Htilde module")
    p.set_defaults(handler=cmd_tor)
    p.add_argument("--j-max", type=int, default=4)

    p = sub.add_parser("generators", help="kernel generators and syzygy check")
    p.set_defaults(handler=cmd_generators)

    p = sub.add_parser("exactness", help="exactness audit of the forms complex")
    p.set_defaults(handler=cmd_exactness)

    p = sub.add_parser("h1", help="H^1 of a presented group from a JSON file")
    p.set_defaults(handler=cmd_h1)
    p.add_argument("input", help='path to a JSON description, or "b3" for the bundled example')
    p.add_argument("--certify", action="store_true", help="print the cocycle/coboundary bases")

    for p in sub.choices.values():
        p.add_argument(
            "--max-degree",
            type=int,
            help="even degree bound (default 24, or MMM_DEGREE_BOUND)",
        )
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default="text",
            help="output format (default text)",
        )
        p.add_argument("--out", help="write output to a file instead of stdout")
    return parser


def _render(view: View, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(view.doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([view.header, *view.rows])
        return buf.getvalue()
    return "\n".join(view.lines) + "\n"


# -- verify-all --------------------------------------------------------------


def cmd_verify_all(args, parser) -> View:
    report = run_verification(_degree_bound(parser, args))
    lines = [f"degree bound {report.degree_bound}, artifact {report.artifact_version}"]
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(f"[{mark}] {c.check_id} ({c.elapsed_ms:.0f} ms): {c.statement}")
        if c.failure:
            lines.append(f"       {c.failure}")
    lines.append("all checks passed" if report.passed else "FAILURES PRESENT")
    return View(
        doc=report.to_dict(include_timings=args.timings),
        header=["check_id", "status", "per_degree_data"],
        rows=[
            [c.check_id, c.status, json.dumps(c.per_degree_data, sort_keys=True)]
            for c in report.checks
        ],
        lines=lines,
        ok=report.passed,
    )


# -- hilbert -----------------------------------------------------------------


def cmd_hilbert(args, parser) -> View:
    bound = _degree_bound(parser, args)
    up_to = args.up_to if args.up_to is not None else bound
    if not 0 <= up_to <= bound:
        parser.error(f"--up-to must lie in 0..{bound}, got {up_to}")
    label = args.coefficients
    table = getattr(StableCohomology(bound), _HILBERT_TABLES[label])()
    dims = table.as_list(up_to)
    gens = table.generator_report or {}
    doc = {"coefficients": label, "max_degree": up_to, "dims": dims}
    if gens:
        doc["generators"] = {str(c): list(g) for c, g in sorted(gens.items()) if c <= up_to}
    lines = [f"stable cohomology with {label} coefficients, degrees 0..{up_to}"]
    for c, n in enumerate(dims):
        labels = "   " + " ".join(gens[c]) if c in gens else ""
        lines.append(f"{c:3d}  {n}{labels}")
    return View(doc, ["degree", "dimension"], [[c, n] for c, n in enumerate(dims)], lines)


# -- tor ---------------------------------------------------------------------


def cmd_tor(args, parser) -> View:
    bound = _degree_bound(parser, args)
    if args.j_max < 0:
        parser.error("--j-max must be >= 0")
    report = StableCohomology(bound).verify_tor(j_max=args.j_max)
    witness = report.nonfreeness_witness
    doc = {
        "max_degree": bound,
        "j_max": args.j_max,
        "nonfreeness_witness_tor1_degree2": witness,
        "tables": [
            {"j": t.j, "dims": {str(d): n for d, n in sorted(t.dims.items())}}
            for t in report.results
        ],
    }
    rows = [[t.j, d, n] for t in report.results for d, n in sorted(t.dims.items())]
    lines = [f"Tor_j(Q, Htilde module), degrees 0..{bound}"]
    for t in report.results:
        dims = " ".join(f"{d}:{n}" for d, n in sorted(t.dims.items()))
        lines.append(f"j={t.j}  {dims if dims else '(zero)'}")
    lines.append(f"non-freeness witness: dim Tor_1 at degree 2 = {witness}")
    return View(doc, ["j", "degree", "dimension"], rows, lines)


# -- generators ----------------------------------------------------------------


def cmd_generators(args, parser) -> View:
    bound = _degree_bound(parser, args)
    report = StableCohomology(bound).verify_generators()
    counts = sorted(report.minimal_counts.items())
    doc = {
        "max_degree": bound,
        "per_degree": list(report.per_degree),
        "syzygies_checked": report.syzygies_checked,
        "minimal_generator_counts": {str(d): n for d, n in counts},
    }
    header = ["degree", "kernel_dim", "span_rank", "spanning_vectors"]
    rows = [[r[k] for k in header] for r in report.per_degree]
    lines = ["contraction kernel: span and minimal generators by degree"]
    for r in report.per_degree:
        lines.append(
            f"degree {r['degree']:3d}: kernel {r['kernel_dim']}, "
            f"span rank {r['span_rank']} from {r['spanning_vectors']} vectors"
        )
    lines.append(f"cyclic syzygies checked: {report.syzygies_checked}")
    lines.append("minimal generators " + " ".join(f"{d}:{n}" for d, n in counts))
    return View(doc, header, rows, lines)


# -- exactness -----------------------------------------------------------------


def cmd_exactness(args, parser) -> View:
    bound = _degree_bound(parser, args)
    ctx = StableCohomology(bound)
    reports = [ctx.forms.verify_exactness(d) for d in range(1, bound + 1)]
    ok = all(r.all_exact for r in reports)
    doc = {"max_degree": bound, "all_exact": ok, "degrees": [r.to_dict() for r in reports]}
    rows = [
        [r.degree, s.form_degree, s.dim, s.rank_out, s.rank_in, s.exact]
        for r in reports
        for s in r.spots
    ]
    lines = ["forms-complex exactness by internal degree"]
    for r in reports:
        spots = " ".join(f"n={s.form_degree}:{'ok' if s.exact else 'FAIL'}" for s in r.spots)
        lines.append(f"degree {r.degree:3d}: {spots}")
    lines.append("all degrees exact" if ok else "EXACTNESS FAILURES")
    header = ["degree", "form_degree", "dim", "rank_out", "rank_in", "exact"]
    return View(doc, header, rows, lines, ok)


# -- h1 --------------------------------------------------------------------------


def _dense_columns(basis) -> List[List[str]]:
    """The basis vectors, the columns of ``basis``, as lists of values."""
    rows = basis.to_lists()
    return [[str(row[c]) for row in rows] for c in range(basis.cols)]


def cmd_h1(args, parser) -> View:
    _degree_bound(parser, args)  # h1 has no bound, but a bad one is still a usage error
    if args.input == "b3" and not os.path.exists(args.input):
        pres, rep = load_bundled_b3()
        label = "bundled b3"
    else:
        try:
            pres, rep = load_group_file(args.input)
        except OSError as exc:
            parser.error(f"cannot read input file {args.input}: {exc.strerror}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # a wrongly shaped document fails in the loader with its first bad field's error
            parser.error(f"malformed group description: {exc}")
        label = args.input
    cert = h1_certificate(pres, rep)
    dims = [cert.z1_dim, cert.b1_dim, cert.h1_dim]
    doc = {"input": label, "z1_dim": dims[0], "b1_dim": dims[1], "h1_dim": dims[2]}
    lines = [f"H^1 for {label}"] + [
        f"dim {name} = {n}" for name, n in zip(("Z^1", "B^1", "H^1"), dims)
    ]
    if args.certify:
        z1, b1 = _dense_columns(cert.z1_basis), _dense_columns(cert.b1_basis)
        doc.update(z1_basis=z1, b1_basis=b1)
        lines += ["Z^1 basis:", *(f"  {v}" for v in z1), "B^1 basis:", *(f"  {v}" for v in b1)]
    return View(doc, ["z1_dim", "b1_dim", "h1_dim"], [dims], lines)


def _write(parser: argparse.ArgumentParser, path: str, mode: str, text: str) -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out:
        # fail before the computation, not after it; append mode creates
        # a missing file and leaves an existing one as it is
        _write(parser, args.out, "a", "")
    try:
        view = args.handler(args, parser)
    except (FalsificationError, ValueError) as exc:
        # a failed statement or a broken premise, as in run_verification
        sys.stderr.write(f"mmmcoh: {exc}\n")
        if args.out:
            _write(parser, args.out, "w", "")
        return EXIT_FAIL
    text = _render(view, args.format)
    if args.out:
        _write(parser, args.out, "w", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if view.ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
