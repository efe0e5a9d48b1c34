"""Self-tests of the benchmark's own code: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, layer, start, end, counts=None, name=None):
    return {"id": sid, "parent": parent, "command": "c", "layer": layer,
            "name": name or layer, "start": start, "end": end,
            "counts": counts}


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = [
        _span(1, None, "cli.self", 0.0, 10.0, name="cli.main"),
        _span(2, 1, "spectral.report", 1.0, 4.0),
        _span(3, 1, "diffraction.autocorr", 5.0, 9.0),
        _span(4, 3, "points.codes", 6.0, 7.0,
              {"point": 1, "start": 0, "samples": 10}),
        _span(5, 3, "points.codes", 7.0, 7.5,
              {"point": 1, "start": 5, "samples": 10}),
    ]
    own = tracer.self_times(spans)
    assert own[("c", 1)] == pytest.approx(3.0)
    assert own[("c", 2)] == pytest.approx(3.0)
    assert own[("c", 3)] == pytest.approx(2.5)
    metrics = tracer.summarize(spans)
    assert metrics["trace.root_s"] == pytest.approx(10.0)
    assert metrics["trace.attributed_share"] == pytest.approx(1.0)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["points.codes_s"] == pytest.approx(1.5)
    assert metrics["points.codes_calls"] == 2
    assert metrics["points.samples"] == 20
    assert metrics["points.resample_ratio"] == pytest.approx(20 / 15)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # Children run on worker threads can overlap; they cover 1..5 once.
    spans = [_span(1, None, "cli.self", 0.0, 10.0),
             _span(2, 1, "almost.other", 1.0, 4.0),
             _span(3, 1, "almost.other", 2.0, 5.0)]
    assert tracer.self_times(spans)[("c", 1)] == pytest.approx(6.0)


def _bindings():
    """Every callable the tracer may patch, by where it is bound."""
    found = {}
    for name, module in sys.modules.items():
        if name == "apspectra" or name.startswith("apspectra."):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(name, attr)] = value
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        found[(name, attr, meth)] = fn
    from apspectra import cli
    found.update({("handlers", k): v for k, v in cli._HANDLERS.items()})
    return found


def test_install_patches_every_binding_and_uninstall_restores_them():
    from apspectra import cli, points, spectral
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert points.observable_track is not before[("apspectra.points", "observable_track")]
        assert spectral.observable_track is points.observable_track
        assert cli.build_point is not before[("apspectra.cli", "build_point")]
        assert points.SturmianPoint.codes is not before[
            ("apspectra.points", "SturmianPoint", "codes")]
        assert cli._HANDLERS["spectrum"] is not before[("handlers", "spectrum")]
        with pytest.raises(RuntimeError):
            t.install()
        points.SturmianPoint(0.3).codes(0, 5)
        assert [s["layer"] for s in t.spans] == ["points.codes"]
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_csv_and_json_checks_reject_non_finite_values():
    with pytest.raises(checks.CheckFailed):
        checks.strict_json('{"a": NaN}')
    with pytest.raises(checks.CheckFailed):
        checks.check_csv("# h\nx,y\n1,inf\n")
    checks.check_csv("x,weyl_value\n1,nan\n", frozenset({"weyl_value"}))
    with pytest.raises(checks.CheckFailed):
        checks.check_csv("x,weyl_value\n1,0.5\n", frozenset({"weyl_value"}))


def test_theta_comparison_is_circular_and_one_to_one():
    ref = {"thetas": [0.999999999999943, 0.25]}
    assert checks.compare({"thetas": [0.25, 1e-12]}, ref, 1e-6) == []
    assert checks.compare({"thetas": [0.25, 0.25]}, ref, 1e-6) != []


def test_default_seed_reproduces_the_acceptance_configs():
    sys.path.insert(0, str(ROOT / "tests"))
    acceptance = pytest.importorskip("test_acceptance")
    ours = workloads.configs_for_seed(workloads.DEFAULT_SEED)
    theirs = acceptance.DETERMINISM_CONFIGS
    assert [(c, json.dumps(cfg)) for c, cfg in ours] == \
        [(c, json.dumps(cfg)) for c, cfg in theirs]
    assert sorted(i for ix in workloads.WORKLOADS.values() for i in ix) == \
        list(range(len(theirs)))


def test_other_seeds_change_only_the_seeded_configs():
    base = workloads.configs_for_seed(workloads.DEFAULT_SEED)
    moved = workloads.configs_for_seed(12345)
    assert moved == workloads.configs_for_seed(12345)
    for i, (a, b) in enumerate(zip(base, moved)):
        assert (a != b) == (i in workloads.SEEDED_CONFIGS)
    assert sorted(workloads.SEED_INVARIANT_FIELDS) == \
        sorted(workloads.SEEDED_CONFIGS)


def test_benchmark_declares_every_metric_it_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["pass_s", "cpu_s", "setup_s", "peak_rss_mb"]
    layer_names = {m["name"] for m in spec["per_layer"]}
    computed = set(tracer.summarize([])) | {"trace.gap_s", "trace.overhead_s"}
    assert layer_names == computed


def test_tracer_leaves_artifacts_byte_identical():
    # The runner compares every repetition's artifacts with the first one's
    # hashes, so a traced pass after an untraced one fails on any byte.
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        runner = run.Runner((0, 1, 11), 0, work, run.load_reference())
        plain = runner.run_pass(0, traced=False)
        traced = runner.run_pass(1, traced=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    assert [r.error for r in plain.runs + traced.runs] == [None] * 6
    assert traced.layers["trace.spans"] > 0
    assert traced.layers["trace.attributed_share"] == pytest.approx(1.0)
    assert all(0 < r.root < r.wall for r in traced.runs)
