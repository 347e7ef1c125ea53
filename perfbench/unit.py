"""One unit of benchmark work, run by ``run.py`` in a fresh process.

    python3 perfbench/unit.py '<json spec>'

The spec names the kind of unit (``setup``, ``certify`` or ``queries``), the
degree bound, the worker count, the query order, whether to trace, and the
directory to write into.  Set-up (importing mmmcoh and constructing a
``StableCohomology``) is timed apart from the unit of work.  The unit writes
``result.json`` with its timings and one file per output it produced; the
parent checks the outputs, so no checking happens inside the measured
process.  A failure writes ``result.json`` with an ``error`` and exits 1.
"""

from time import perf_counter

_T0 = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# the matching verify-all check for each CLI query, so that the certify
# workloads report the same per-statement metrics as queries-36
STATEMENT_CHECKS = {
    "hilbert-htilde": "covariant-surjectivity",
    "tor": "tor-dimensions",
    "generators": "kernel-generators",
    "exactness": "resolution-exactness",
}

QUERY_ARGV = {
    "hilbert-htilde": ["hilbert", "Htilde"],
    "tor": ["tor"],
    "generators": ["generators"],
    "exactness": ["exactness"],
}


def _certify(spec):
    from mmmcoh import verify

    report = verify.run_verification(spec["bound"], jobs=spec["jobs"])
    text = report.to_json()
    check_ms = {c.check_id: c.elapsed_ms for c in report.checks}
    statement_s = {q: check_ms[c] / 1000.0 for q, c in STATEMENT_CHECKS.items()}
    return {"report": text}, statement_s, check_ms


def _queries(spec):
    from mmmcoh import cli

    outputs, statement_s = {}, {}
    for name in spec["order"]:
        argv = QUERY_ARGV[name] + ["--max-degree", str(spec["bound"]), "--format", "json"]
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        statement_s[name] = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"mmmcoh {' '.join(argv)} exited with {code}")
        outputs[name] = buf.getvalue()
    return outputs, statement_s, {}


KINDS = {"certify": _certify, "queries": _queries}


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    """This process's own peak RSS.  ``ru_maxrss`` would also count the
    parent's RSS at the fork that started this process, which the exec
    carries over."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec) -> int:
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    result = {}
    try:
        import mmmcoh.cli  # noqa: F401  (the whole package, as the CLI loads it)
        from mmmcoh.stable import StableCohomology

        StableCohomology(spec["bound"])
        t_setup = perf_counter()
        result["setup_s"] = t_setup - _T0
        # absolute CLOCK_MONOTONIC stamps, for the parent's host-speed scaling
        result["setup_at"] = [_T0, t_setup]
        if spec["kind"] != "setup":
            tracer = None
            if spec["trace"]:
                from tracer import Tracer

                tracer = Tracer(out)
                tracer.install()
            self0 = resource.getrusage(resource.RUSAGE_SELF)
            kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = perf_counter()
            try:
                outputs, statement_s, check_ms = KINDS[spec["kind"]](spec)
            finally:
                wall = perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
                    tracer.write()
            self1 = resource.getrusage(resource.RUSAGE_SELF)
            kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            # getrusage keeps only the largest child's peak; each worker
            # of the pool is counted at that peak
            workers = spec["jobs"] if kids1.ru_maxrss else 0
            result.update(
                wall_s=wall,
                wall_at=[t0, t0 + wall],
                cpu_s=_cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
                peak_rss_mb=(_peak_rss_kb() + workers * kids1.ru_maxrss) / 1024.0,
                statement_s=statement_s,
                check_ms=check_ms,
                outputs=sorted(outputs),
            )
            for name, text in outputs.items():
                (out / f"{name}.out").write_text(text, encoding="utf-8")
    except Exception:  # reported to the parent, which counts the unit failed
        result["error"] = traceback.format_exc()
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
