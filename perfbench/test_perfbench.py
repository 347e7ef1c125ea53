"""Self-tests of the benchmark at a small bound.

    python3 -m pytest perfbench -q

They check that tracing changes no output byte, that counts repeat exactly,
that self times add up to no more than the wall time, that every wrapper is
removed again, that the gate rejects a wrong report, and that host-speed
scaling converts only the time a child ran.
"""

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from mmmcoh import cli, linalg, modules, stable, verify  # noqa: E402

BOUND = 12


def _query(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv + ["--max-degree", str(BOUND), "--format", "json"]) == 0
    return buf.getvalue()


def _pins():
    return {"certify-small": gate.sha256(verify.run_verification(BOUND).to_json())}


def _traced_unit(tmp_path, name, jobs=1):
    spec = {"kind": "certify", "bound": BOUND, "jobs": jobs, "pin": "certify-small",
            "trace": True, "order": [], "out": str(tmp_path / name)}
    unit = run.run_unit(spec, 120.0, _pins())
    assert unit.ok, unit.problems
    return unit, tracer.summarize(tracer.read_spans(unit.out))


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    plain = [verify.run_verification(BOUND).to_json(), _query(["tor"]), _query(["exactness"])]
    t = tracer.Tracer(tmp_path)
    t.install()
    try:
        assert modules.rank is linalg.rank and getattr(stable.rank, "__perfbench_span__", None)
        traced = [verify.run_verification(BOUND).to_json(), _query(["tor"]), _query(["exactness"])]
    finally:
        t.uninstall()
    assert traced == plain
    assert tracer.installed_wrappers() == []
    names = {span[2] for span in t.spans}
    assert {"linalg.rank", "linalg.rref", "linalg.apply", "modules.kernel_module", "cli"} <= names


def test_every_wrapper_is_removed(tmp_path):
    t = tracer.Tracer(tmp_path)
    t.install()
    try:
        assert tracer.installed_wrappers()
        assert not t.missing
    finally:
        t.uninstall()
    assert tracer.installed_wrappers() == []


def test_two_traced_runs_give_identical_counts(tmp_path):
    first, a = _traced_unit(tmp_path, "first")
    _, b = _traced_unit(tmp_path, "second")

    def counts(agg):
        return {(name, k): v for name, f in agg.items() for k, v in f.items() if k != "self_s"}

    assert counts(a) == counts(b)
    assert a["linalg.rank"]["calls"] > 0 and a["linalg.apply"]["nnz_indexed"] > 0
    # self times partition the covered time, so they cannot exceed the wall
    assert sum(f["self_s"] for f in a.values()) <= first.result["wall_s"]


def test_pool_workers_are_traced_and_match_serial(tmp_path):
    unit, agg = _traced_unit(tmp_path, "pooled", jobs=2)
    assert agg["verify.pool_task"]["calls"] == len(range(0, BOUND + 1, 2)) + BOUND
    assert len(list(unit.out.glob("spans-*.jsonl"))) >= 2


def test_gate_rejects_a_wrong_report():
    text = verify.run_verification(BOUND).to_json()
    assert gate.check_report(text, BOUND) == []
    wrong = text.replace('"kernel": 2', '"kernel": 3', 1)
    assert wrong != text and gate.check_report(wrong, BOUND)
    assert gate.check_digest("report", wrong, gate.sha256(text))


def test_closed_forms_match_the_package():
    from mmmcoh.algebra import PolynomialAlgebra, exterior_dim

    algebra = PolynomialAlgebra(40)
    assert [gate.ring_dim(d) for d in range(41)] == [algebra.hilbert_function(d) for d in range(41)]
    assert all(gate.exterior_dim(j, d) == exterior_dim(j, d) for j in range(7) for d in range(41))


def test_reference_seconds_follow_the_probes():
    supervisor = hostspeed.Supervisor()
    ref = hostspeed.REF_PROBE_S
    supervisor.probes = [(0.0, ref), (1.0, ref), (10.0, 2 * ref), (11.0, 2 * ref)]
    supervisor.stretches = [(0.0, 1.0), (10.0, 11.0)]
    assert supervisor.seconds(0.0, 11.0) == (2.0, 1.5)
    # the gap between the stretches, when the child was stopped, is left out
    assert supervisor.seconds(0.5, 10.5) == (1.0, 0.75)


def test_probed_unit_is_stopped_and_scaled(tmp_path, monkeypatch):
    # stop often, so that a small unit is stopped and resumed many times
    monkeypatch.setattr(hostspeed, "PERIOD_S", 0.01)
    spec = {"kind": "certify", "bound": BOUND, "jobs": 1, "pin": "certify-small",
            "trace": False, "order": [], "out": str(tmp_path / "probed")}
    supervisor = hostspeed.Supervisor()
    unit = run.run_unit(spec, 120.0, _pins(), supervisor)
    assert unit.ok, unit.problems
    start, end = unit.result["wall_at"]
    run.rescale(unit.result, supervisor)
    assert len(supervisor.stretches) > 2
    assert len(supervisor.probes) == len(supervisor.stretches) + 1
    assert 0 < unit.result["raw_wall_s"] <= end - start
    assert unit.result["wall_s"] > 0 and unit.result["setup_s"] > 0
