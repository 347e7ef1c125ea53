"""The mmmcoh benchmark: time to certificate, end to end and per layer.

    python3 perfbench/run.py --workload certify-40 --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Every unit of work runs in a fresh child process (``unit.py``), one at a
time, because every CLI user pays the cold caches of ``StableCohomology``.
Units repeat while the next one should end within ``--seconds`` (at least
one runs).  Each unit's outputs are checked against pinned sha256 digests
and against closed forms (``gate.py``); a mismatch, a nonzero exit or an
exception counts the unit as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  Serial workloads run on one core under the
host-speed probe of ``hostspeed.py``, which gives every time in reference
seconds: the time on a core of fixed speed, so that a shared host's
changing speed does not show as a change of the program.  A time is the
median over the run's units; ``setup_s`` is the median over several
set-up-only children and the units.  With ``--trace 1`` untraced and traced
units alternate, unprobed; the metrics are the per-layer ones of the
fastest traced unit, plus ``trace.overhead_s``, the fastest traced minus
the fastest untraced ``wall_s``.  Spans of the traced units stay in
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import gate
import hostspeed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

QUERIES = ("hilbert-htilde", "tor", "generators", "exactness")

# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "certify-40": {"kind": "certify", "bound": 40, "jobs": 1, "pin": "certify-40"},
    "queries-36": {"kind": "queries", "bound": 36, "jobs": 1, "pin": "queries-36"},
    # not in BENCHMARK.json: run by hand to weigh the process pool against
    # a serial run at bound 36, whose bytes it must give
    "certify-36": {"kind": "certify", "bound": 36, "jobs": 1, "pin": "certify-36"},
    "certify-36-jobs2": {"kind": "certify", "bound": 36, "jobs": 2, "pin": "certify-36"},
}

SETUP_PROBES = 9
PR_SET_PDEATHSIG = 1
RUN_LIMIT_S = 170.0  # every run must end within 180 s

STATEMENT_METRICS = {
    "hilbert-htilde": "hilbert_htilde_s",
    "tor": "tor_s",
    "generators": "generators_s",
    "exactness": "exactness_s",
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_frac": "frac",
}

# per-layer metrics read from the spans as <span name>.<field>, the field
# summed over every span of that name
SPAN_METRICS = (
    "linalg.apply.calls",
    "linalg.apply.self_s",
    "linalg.apply.nnz_indexed",
    "linalg.rank.calls",
    "linalg.rank.self_s",
    "linalg.rank.nnz_in",
    "linalg.rank.cells_in",
    "linalg.rank.pivots",
    "linalg.rref.calls",
    "linalg.rref.self_s",
    "linalg.rref.nnz_in",
    "linalg.rref.nnz_out",
    "linalg.matmul.calls",
    "linalg.matmul.self_s",
    "modules.kernel_module.self_s",
    "modules.kernel_module.dims_out",
    "modules.minimal_generators.self_s",
    "modules.koszul_differential.calls",
    "modules.koszul_differential.self_s",
    "modules.koszul_differential.nnz_out",
    "modules.tor_dimension.calls",
    "modules.tor_dimension.self_s",
    "modules.equivariance.self_s",
    "modules.free_module.self_s",
    "forms.operators.calls",
    "forms.operators.self_s",
    "forms.lie_derivative.self_s",
    "forms.verify_exactness.self_s",
    "forms.verify_cartan.self_s",
    "stable.self_s",
    "algebra.self_s",
    "groupcoh.h1_certificate.self_s",
    "cli.self_s",
    "verify.to_json.self_s",
)


def per_layer_units() -> Dict[str, str]:
    units = {name: "s" if name.endswith(".self_s") else "count" for name in SPAN_METRICS}
    units["linalg.rref.fill_ratio"] = "ratio"
    for metric in STATEMENT_METRICS.values():
        units[metric] = "s"
    for check_id in gate.CHECK_IDS:
        units[f"verify.check.{check_id}_ms"] = "ms"
    units["trace.overhead_s"] = "s"
    units["failed_frac"] = "frac"
    return units


# ---------------------------------------------------------------------------
# running units


class Unit:
    """One child process's spec, result and verdict."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.out = Path(spec["out"])
        self.result: dict = {}
        self.problems: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.problems


def _die_with_parent() -> None:
    """In the child before exec: ask for SIGKILL when the parent dies, so
    that a child the probe has stopped cannot outlive a killed parent."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def run_unit(spec: dict, timeout: float, pins: Optional[dict],
             supervisor: Optional[hostspeed.Supervisor] = None) -> Unit:
    """Run one child and check its outputs; never raises for a bad unit.
    With a ``supervisor`` the child runs under its probes."""
    unit = Unit(spec)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    with open(unit.out.parent / f"{unit.out.name}.stderr", "w") as err:
        deadline = perf_counter() + max(timeout, 1.0)
        proc = None

        def popen():
            nonlocal proc
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "unit.py"), json.dumps(spec)],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=err,
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
            return proc

        try:
            if supervisor is not None:
                code, timed_out = supervisor.run(popen, deadline)
            else:
                try:
                    code, timed_out = popen().wait(timeout=deadline - perf_counter()), False
                except subprocess.TimeoutExpired:
                    # pool workers share the child's session; stop them all
                    os.killpg(proc.pid, signal.SIGKILL)
                    code, timed_out = proc.wait(), True
        finally:
            if proc is not None and proc.returncode is None:
                # interrupted; a child left running, or left stopped, never ends
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if timed_out:
            unit.problems.append(f"timed out after {timeout:.0f} s")
            return unit
    try:
        unit.result = json.loads((unit.out / "result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        unit.problems.append(f"exit code {code}, no result: {exc}")
        return unit
    if "error" in unit.result or code != 0:
        unit.problems.append(f"exit code {code}: {unit.result.get('error', '')}")
        return unit
    if spec["kind"] != "setup":
        unit.problems.extend(check_outputs(unit, pins))
    return unit


def rescale(result: dict, supervisor: hostspeed.Supervisor) -> None:
    """Replace the child's own times by reference seconds; keep the
    running times before scaling as ``raw_*``."""
    if "setup_at" not in result:
        return
    raw, result["setup_s"] = supervisor.seconds(*result["setup_at"])
    result["raw_setup_s"] = raw
    if "wall_at" not in result:
        return
    raw, ref = supervisor.seconds(*result["wall_at"])
    result["raw_wall_s"], result["wall_s"] = raw, ref
    result["raw_cpu_s"] = result["cpu_s"]
    result["cpu_s"] *= ref / raw


def check_outputs(unit: Unit, pins: dict) -> List[str]:
    spec, problems = unit.spec, []
    try:
        for name in unit.result["outputs"]:
            text = (unit.out / f"{name}.out").read_text(encoding="utf-8")
            if spec["kind"] == "certify":
                problems += gate.check_digest(name, text, pins[spec["pin"]])
                problems += gate.check_report(text, spec["bound"])
            else:
                problems += gate.check_digest(name, text, pins[spec["pin"]][name])
                problems += gate.check_query(name, text, spec["bound"])
        expected = ["report"] if spec["kind"] == "certify" else sorted(QUERIES)
        if sorted(unit.result["outputs"]) != expected:
            problems.append(f"outputs {unit.result['outputs']} != {expected}")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def unit_specs(workload: str, seed: int, out_dir: Path):
    """An endless sequence of unit specs; the query order comes from the seed."""
    base = WORKLOADS[workload]
    rng = random.Random(seed)
    n = 0
    while True:
        spec = dict(base, out=str(out_dir / f"unit-{n}"), trace=False, order=[])
        if base["kind"] == "queries":
            spec["order"] = rng.sample(QUERIES, len(QUERIES))
        yield spec
        n += 1


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
            supervisor: Optional[hostspeed.Supervisor]):
    """Run units for ``seconds``, at least one of each kind asked for;
    with ``trace`` untraced and traced units alternate.  Returns
    (untraced units, traced units)."""
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    specs = unit_specs(workload, seed, OUT / workload)
    plain: List[Unit] = []
    traced: List[Unit] = []
    done = traced if trace else plain
    start = perf_counter()
    last = 0.0
    # start a unit only if it should end within ``seconds``
    while not done or perf_counter() - start + last <= seconds:
        if perf_counter() + 1.2 * last > deadline:
            break
        t0 = perf_counter()
        spec = next(specs)
        spec["trace"] = trace and len(plain) > len(traced)
        unit = run_unit(spec, deadline - perf_counter(), pins, supervisor)
        (traced if spec["trace"] else plain).append(unit)
        last = perf_counter() - t0
    return plain, traced


def setup_probes(workload: str, deadline: float,
                 supervisor: Optional[hostspeed.Supervisor]) -> List[Unit]:
    probes = []
    for k in range(SETUP_PROBES):
        spec = dict(WORKLOADS[workload], kind="setup", trace=False, order=[],
                    out=str(OUT / workload / "setup" / f"probe-{k}"))
        probes.append(run_unit(spec, deadline - perf_counter(), None, supervisor))
    return probes


# ---------------------------------------------------------------------------
# metrics


def _timed(units: List[Unit]) -> List[Unit]:
    """The units that passed, or failing that every unit with timings."""
    return [u for u in units if u.ok] or [u for u in units if "wall_s" in u.result]


def end_to_end_metrics(units: List[Unit], probes: List[Unit]) -> Dict[str, float]:
    good = _timed(units)
    setups = [u.result["setup_s"] for u in probes + units if "setup_s" in u.result]
    metrics = {
        "wall_s": statistics.median(u.result["wall_s"] for u in good),
        "cpu_s": statistics.median(u.result["cpu_s"] for u in good),
        "peak_rss_mb": statistics.median(u.result["peak_rss_mb"] for u in good),
        "setup_s": statistics.median(setups),
        "success_frac": sum(u.ok for u in units) / len(units),
    }
    return metrics


def per_layer_metrics(traced: List[Unit], plain: List[Unit]) -> Dict[str, float]:
    fastest = min(_timed(traced), key=lambda u: u.result["wall_s"])
    agg = tracer.summarize(tracer.read_spans(fastest.out))
    metrics = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        metrics[name] = agg.get(span, {}).get(field, 0)
    rref = agg.get("linalg.rref", {})
    metrics["linalg.rref.fill_ratio"] = rref.get("nnz_out", 0) / max(rref.get("nnz_in", 0), 1)
    for query, metric in STATEMENT_METRICS.items():
        metrics[metric] = fastest.result["statement_s"][query]
    check_ms = fastest.result.get("check_ms", {})
    for check_id in gate.CHECK_IDS:
        metrics[f"verify.check.{check_id}_ms"] = check_ms.get(check_id, 0.0)
    base = _timed(plain)
    metrics["trace.overhead_s"] = (
        fastest.result["wall_s"] - min(u.result["wall_s"] for u in base) if base else 0.0
    )
    units = traced + plain
    metrics["failed_frac"] = sum(not u.ok for u in units) / len(units)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # let SIGTERM unwind, so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "mmmcoh" / "__init__.py").is_file():
        print(f"no mmmcoh package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    (OUT / args.workload / "setup").mkdir(parents=True)
    # the pool needs both cores, and traced units report raw times
    supervisor = None
    if not args.trace and WORKLOADS[args.workload]["jobs"] == 1:
        hostspeed.pin_to_one_cpu()
        supervisor = hostspeed.Supervisor()
    probes = [] if args.trace else setup_probes(args.workload, deadline, supervisor)
    if probes and not any(p.ok for p in probes):
        print("set-up failed: " + "; ".join(probes[0].problems), file=sys.stderr)
        return 1
    plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline,
                            supervisor)
    units = plain + traced
    if supervisor is not None:
        for unit in probes + units:
            rescale(unit.result, supervisor)
    for unit in units:
        for problem in unit.problems:
            print(f"{unit.out.name}: {problem}", file=sys.stderr)
    timed = traced if args.trace else plain
    if not any("wall_s" in u.result for u in timed):
        print("no unit produced timings", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units_of = per_layer_metrics(traced, plain), per_layer_units()
    else:
        metrics, units_of = end_to_end_metrics(plain, probes), END_TO_END
    orders = [u.spec["order"] for u in units if u.spec["order"]]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "query_orders": orders,
                      "elapsed_s": perf_counter() - started,
                      "unit_wall_s": [u.result.get("wall_s") for u in units],
                      "unit_raw_wall_s": [u.result.get("raw_wall_s") for u in units]}))
    failed = sum(not u.ok for u in units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
