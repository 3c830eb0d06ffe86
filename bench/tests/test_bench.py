"""Tests of the benchmark itself: the tracer, the traced metrics, the output
checks at tiny size, and the contract between BENCHMARK.json and run.py.

    python -m pytest bench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracer as tracing
import workloads
from frobcat import algebra_repr, axiom_suite, homological, rigid_model

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
BATTERIES = ("pa2-battery", "a4f2-battery")


def _bindings():
    """Every binding the tracer may rebind: attributes of frobcat modules and
    of their classes, and function defaults."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("frobcat"):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
                    out[(name, attr, cattr, "defaults")] = getattr(cvalue, "__defaults__", None)
            out[(name, attr, "defaults")] = getattr(value, "__defaults__", None)
    return out


def test_tracer_restores_every_original():
    before = _bindings()
    original_hom_basis = algebra_repr.hom_basis
    with tracing.Tracer():
        during = _bindings()
        assert homological.hom_basis is algebra_repr.hom_basis
        assert algebra_repr.hom_basis is not original_hom_basis
        assert axiom_suite.PredicateSet().weq is rigid_model.is_weak_equivalence
    after = _bindings()
    assert any(during[k] is not before[k] for k in before)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_tracer_restores_after_an_error():
    original = algebra_repr.Morphism.__init__
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert algebra_repr.Morphism.__init__ is not original
            1 / 0
    assert algebra_repr.Morphism.__init__ is original


def test_self_time_excludes_children():
    trace = tracing.Tracer()
    with trace:
        alg = algebra_repr.preprojective(2, workloads.prime_field(5))
        algebra_repr.hom_basis(alg.projective("1"), alg.projective("2"))
    summary = trace.summary()
    hom = summary["algebra_repr.hom_basis"]
    kernel = summary["exact_linalg.kernel"]
    assert hom["calls"] == 1 and kernel["calls"] >= 1
    assert hom["self_s"] <= hom["total_s"] - kernel["total_s"] + 1e-9
    assert trace.counters["algebra_repr.hom_basis.misses"] == 1


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run(name, golden, tmp_path):
    wl = workloads.WORKLOADS[name]
    project = tmp_path / "project"
    wl.write_project(project)
    tally, trace, result = harness.traced_run(wl, project, golden[name], tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics.keys() == harness.per_layer_units().keys()
    traced_wall = tally.raw_setup_s[-1] + tally.raw_work_s[-1]
    assert sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) <= traced_wall
    assert metrics["rigid_model.build_context.calls"] >= 1
    if name in BATTERIES:
        assert metrics["axiom_suite.rlp_holds.calls"] > 0
    else:
        assert metrics["axiom_suite.rlp_holds.calls"] == 0


def test_timed_run_reports_end_to_end_metrics(golden, tmp_path):
    wl = workloads.WORKLOADS["pa2-battery"]
    project = tmp_path / "project"
    wl.write_project(project)
    # the repetition count follows from the workload's rep_s, not the clock:
    # tiny repetitions take far less than rep_s, and still only two are made
    tally, result = harness.timed_run(wl, project, 2 * wl.rep_s, golden[wl.name], tiny=True)
    assert result["correct"] and len(tally.work_s) == 2
    assert len(tally.setup_s) >= harness.MIN_SETUPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_rescaling_divides_each_stretch_by_the_probe_before_it():
    speed = harness.SpeedProbe()
    ref = harness.REF_PROBE_S
    # probes at 0, 1 and 2 s, each taking 2 * ref (a core at half speed)
    # except the middle one, which the median of three neighbours outvotes
    speed.samples.extend((0.0, 2 * ref, 1.0, 9 * ref, 2.0, 2 * ref))
    # [0.5, 2.5] holds 2 s less the time of the two probes inside it
    assert speed.scaled(0.5, 2.5) == pytest.approx((2.0 - 11 * ref) / 2)


def test_speed_probe_samples_while_it_runs():
    with harness.SpeedProbe() as speed:
        c0 = harness.CPU_CLOCK()
        while harness.CPU_CLOCK() - c0 < 0.2:
            pass
        c1 = harness.CPU_CLOCK()
    assert len(speed.samples) >= 2 * 4
    assert 0 < speed.scaled(c0, c1) < 1


def test_wrong_output_counts_as_failed(golden, tmp_path):
    wl = workloads.WORKLOADS["a3q-dlverify"]
    project = tmp_path / "project"
    wl.write_project(project)
    bad = json.loads(json.dumps(golden[wl.name]))
    bad["pairs"]["S1->S1"]["checksum"] = "0" * 16
    with harness.SpeedProbe() as speed:
        tally = harness.Tally(speed)
        tally.rep(wl, project, bad, tiny=True)
    assert (tally.attempted, tally.failed) == (9, 1)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pa2-battery", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
