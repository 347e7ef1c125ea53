"""Command-line front end.

    mmmcoh verify-all  [--max-degree N] [--timings] [--format F] [--out PATH]
    mmmcoh hilbert COEFFS [--max-degree N] ...     (Q | H | Htilde | HtildeDual)
    mmmcoh tor        [--j-max J] [--max-degree N] ...
    mmmcoh generators [--max-degree N] ...
    mmmcoh exactness  [--max-degree N] ...
    mmmcoh h1 INPUT   [--certify] ...              (a JSON file, or "b3")

The degree bound defaults to 24 and must be a positive even integer; the
environment variable MMM_DEGREE_BOUND overrides the default.  Exit status
is 0 only if every requested check passes; malformed usage exits 2.

JSON output is canonical: running the same command twice produces the
same bytes (pass --timings to verify-all to append wall-clock times, which
are excluded from that guarantee).  Every subcommand runs in this one
process; `tor` and verify-all's tor-dimensions check both read
StableCohomology.verify_tor.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import List, Optional

from . import __version__
from .groupcoh import h1_certificate, load_bundled_b3, load_group_file
from .stable import StableCohomology
from .verify import run_verification

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# `hilbert COEFFS`: the name of the StableCohomology method that builds
# each table, looked up on the instance when the command runs
_HILBERT_TABLES = {
    "Q": "stable_cohomology_ring",
    "H": "stable_cohomology_twisted",
    "Htilde": "stable_cohomology_tilde",
    "HtildeDual": "stable_cohomology_tilde_dual",
}


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="even degree bound (default 24, or MMM_DEGREE_BOUND)",
    )
    p.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="text",
        help="output format (default text)",
    )
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmmcoh",
        description="exact verification of stable mapping-class-group cohomology",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    _add_common(p)
    p.add_argument(
        "--timings",
        action="store_true",
        help="append wall-clock times (not byte-deterministic)",
    )

    p = sub.add_parser("hilbert", help="dimension table of a stable cohomology module")
    p.add_argument("coefficients", choices=tuple(_HILBERT_TABLES))
    p.add_argument(
        "--up-to",
        type=int,
        default=None,
        help="highest cohomological degree to print (any parity; default: the bound)",
    )
    _add_common(p)

    p = sub.add_parser("tor", help="Koszul homology dimensions of the Htilde module")
    p.add_argument("--j-max", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("generators", help="kernel generators and syzygy check")
    _add_common(p)

    p = sub.add_parser("exactness", help="exactness audit of the forms complex")
    _add_common(p)

    p = sub.add_parser("h1", help="H^1 of a presented group from a JSON file")
    p.add_argument("input", help='path to a JSON description, or "b3" for the bundled example')
    p.add_argument("--certify", action="store_true", help="print the cocycle/coboundary bases")
    _add_common(p)

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_escape(x: object) -> str:
    s = str(x)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _rows_to_csv(header: List[str], rows: List[List[object]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_csv_escape(x) for x in row) + "\n")
    return buf.getvalue()


# -- verify-all --------------------------------------------------------------


def cmd_verify_all(args, parser) -> int:
    bound = _degree_bound(parser, args)
    report = run_verification(bound)
    if args.format == "json":
        text = report.to_json(include_timings=args.timings) + "\n"
    elif args.format == "csv":
        rows = [
            [c.check_id, c.status, json.dumps(c.per_degree_data, sort_keys=True)]
            for c in report.checks
        ]
        text = _rows_to_csv(["check_id", "status", "per_degree_data"], rows)
    else:
        lines = [f"degree bound {report.degree_bound}, artifact {report.artifact_version}"]
        for c in report.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.check_id} ({c.elapsed_ms:.0f} ms): {c.statement}")
            if c.failure:
                lines.append(f"       {c.failure}")
        lines.append("all checks passed" if report.passed else "FAILURES PRESENT")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


# -- hilbert -----------------------------------------------------------------


def cmd_hilbert(args, parser) -> int:
    bound = _degree_bound(parser, args)
    up_to = args.up_to if args.up_to is not None else bound
    if not 0 <= up_to <= bound:
        parser.error(f"--up-to must lie in 0..{bound}, got {up_to}")
    ctx = StableCohomology(bound)
    label = args.coefficients
    table = getattr(ctx, _HILBERT_TABLES[label])()
    dims = table.as_list(up_to)
    if args.format == "json":
        doc = {
            "coefficients": label,
            "max_degree": up_to,
            "dims": dims,
        }
        if table.generator_report:
            doc["generators"] = {
                str(c): list(labels)
                for c, labels in sorted(table.generator_report.items())
                if c <= up_to
            }
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        text = _rows_to_csv(
            ["degree", "dimension"], [[c, n] for c, n in enumerate(dims)]
        )
    else:
        lines = [f"stable cohomology with {label} coefficients, degrees 0..{up_to}"]
        for c, n in enumerate(dims):
            gens = ""
            if table.generator_report and c in table.generator_report:
                gens = "   " + " ".join(table.generator_report[c])
            lines.append(f"{c:3d}  {n}{gens}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# -- tor ---------------------------------------------------------------------


def cmd_tor(args, parser) -> int:
    bound = _degree_bound(parser, args)
    if args.j_max < 0:
        parser.error("--j-max must be >= 0")
    ctx = StableCohomology(bound)
    report = ctx.verify_tor(j_max=args.j_max)
    if args.format == "json":
        doc = {
            "max_degree": bound,
            "j_max": args.j_max,
            "nonfreeness_witness_tor1_degree2": report.nonfreeness_witness,
            "tables": [
                {"j": t.j, "dims": {str(d): n for d, n in sorted(t.dims.items())}}
                for t in report.results
            ],
        }
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        rows = []
        for t in report.results:
            for d, n in sorted(t.dims.items()):
                rows.append([t.j, d, n])
        text = _rows_to_csv(["j", "degree", "dimension"], rows)
    else:
        lines = [f"Tor_j(Q, Htilde module), degrees 0..{bound}"]
        for t in report.results:
            dims = " ".join(f"{d}:{n}" for d, n in sorted(t.dims.items()))
            lines.append(f"j={t.j}  {dims if dims else '(zero)'}")
        lines.append(
            f"non-freeness witness: dim Tor_1 at degree 2 = {report.nonfreeness_witness}"
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# -- generators ----------------------------------------------------------------


def cmd_generators(args, parser) -> int:
    bound = _degree_bound(parser, args)
    ctx = StableCohomology(bound)
    report = ctx.verify_generators()
    if args.format == "json":
        doc = {
            "max_degree": bound,
            "per_degree": list(report.per_degree),
            "syzygies_checked": report.syzygies_checked,
            "minimal_generator_counts": {
                str(d): n for d, n in sorted(report.minimal_counts.items())
            },
        }
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        rows = [
            [r["degree"], r["kernel_dim"], r["span_rank"], r["spanning_vectors"]]
            for r in report.per_degree
        ]
        text = _rows_to_csv(["degree", "kernel_dim", "span_rank", "spanning_vectors"], rows)
    else:
        lines = ["contraction kernel: span and minimal generators by degree"]
        for r in report.per_degree:
            lines.append(
                f"degree {r['degree']:3d}: kernel {r['kernel_dim']}, "
                f"span rank {r['span_rank']} from {r['spanning_vectors']} vectors"
            )
        lines.append(f"cyclic syzygies checked: {report.syzygies_checked}")
        counts = " ".join(f"{d}:{n}" for d, n in sorted(report.minimal_counts.items()))
        lines.append(f"minimal generators {counts}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# -- exactness -----------------------------------------------------------------


def cmd_exactness(args, parser) -> int:
    bound = _degree_bound(parser, args)
    ctx = StableCohomology(bound)
    reports = [ctx.forms.verify_exactness(d) for d in range(1, bound + 1)]
    ok = all(r.all_exact for r in reports)
    if args.format == "json":
        doc = {
            "max_degree": bound,
            "all_exact": ok,
            "degrees": [r.to_dict() for r in reports],
        }
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        rows = []
        for r in reports:
            for s in r.spots:
                rows.append(
                    [r.degree, s.form_degree, s.dim, s.rank_out, s.rank_in, s.exact]
                )
        text = _rows_to_csv(
            ["degree", "form_degree", "dim", "rank_out", "rank_in", "exact"], rows
        )
    else:
        lines = ["forms-complex exactness by internal degree"]
        for r in reports:
            spots = " ".join(
                f"n={s.form_degree}:{'ok' if s.exact else 'FAIL'}" for s in r.spots
            )
            lines.append(f"degree {r.degree:3d}: {spots}")
        lines.append("all degrees exact" if ok else "EXACTNESS FAILURES")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# -- h1 --------------------------------------------------------------------------


def cmd_h1(args, parser) -> int:
    if args.input == "b3" and not os.path.exists(args.input):
        pres, rep = load_bundled_b3()
        label = "bundled b3"
    else:
        try:
            pres, rep = load_group_file(args.input)
        except FileNotFoundError:
            parser.error(f"no such input file: {args.input}")
        except (KeyError, ValueError) as exc:
            parser.error(f"malformed group description: {exc}")
        label = args.input
    cert = h1_certificate(pres, rep)
    if args.format == "json":
        doc = {
            "input": label,
            "z1_dim": cert.z1_dim,
            "b1_dim": cert.b1_dim,
            "h1_dim": cert.h1_dim,
        }
        if args.certify:
            doc["z1_basis"] = [[str(x) for x in v.to_list()] for v in cert.z1_basis]
            doc["b1_basis"] = [[str(x) for x in v.to_list()] for v in cert.b1_basis]
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        text = _rows_to_csv(
            ["z1_dim", "b1_dim", "h1_dim"], [[cert.z1_dim, cert.b1_dim, cert.h1_dim]]
        )
    else:
        lines = [
            f"H^1 for {label}",
            f"dim Z^1 = {cert.z1_dim}",
            f"dim B^1 = {cert.b1_dim}",
            f"dim H^1 = {cert.h1_dim}",
        ]
        if args.certify:
            lines.append("Z^1 basis:")
            lines.extend(f"  {[str(x) for x in v.to_list()]}" for v in cert.z1_basis)
            lines.append("B^1 basis:")
            lines.extend(f"  {[str(x) for x in v.to_list()]}" for v in cert.b1_basis)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify-all": cmd_verify_all,
        "hilbert": cmd_hilbert,
        "tor": cmd_tor,
        "generators": cmd_generators,
        "exactness": cmd_exactness,
        "h1": cmd_h1,
    }
    return handlers[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
