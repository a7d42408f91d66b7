"""Tests of the benchmark's layer table and of its tracing.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import cProfile
import pstats
import signal
import time

import pytest

import cells
import layers
from repro.bench.harness import ModuleMemo
from repro.memsim.cost_model import CostModel
from repro.workloads import make_workload
from repro.workloads.trace import ScenarioSpec


def test_every_repro_module_maps_to_one_layer():
    modules = layers.repro_modules()
    assert modules
    unmapped = [m for m in modules if layers.layer_of_module(m) == layers.OTHER]
    assert unmapped == [], "add these modules to LAYER_TABLE"


def test_layer_table_entries_are_unique_and_live():
    entries = [e for es in layers.LAYER_TABLE.values() for e in es]
    assert len(entries) == len(set(entries)), "an entry is in two layers"
    modules = layers.repro_modules()
    for entry in entries:
        if entry.endswith("/*"):
            live = any(m.startswith(entry[:-1]) for m in modules)
        else:
            live = entry in modules
        assert live, f"table entry {entry!r} matches no module"


@pytest.mark.parametrize("filename, layer", [
    ("<repro-codegen:main>", "runtime"),
    (str(layers.REPRO_ROOT / "memsim" / "clock.py"), "memsim.clock"),
    (str(layers.REPRO_ROOT / "memsim" / "pool.py"), "memsim"),
    (str(layers.REPRO_ROOT / "workloads" / "trace" / "generators.py"),
     "workloads.trace.generators"),
    (str(layers.REPRO_ROOT / "workloads" / "trace" / "replay.py"),
     "workloads.trace.replay"),
    (str(layers.REPRO_ROOT / "workloads" / "graph.py"), "workloads"),
    ("~", None),
    ("/usr/lib/python3/random.py", None),
])
def test_layer_of_file(filename, layer):
    assert layers.layer_of_file(filename) == layer


def test_builtin_self_time_is_charged_to_the_calling_layer():
    clock = (str(layers.REPRO_ROOT / "memsim" / "clock.py"), 1, "advance")
    builtin = ("~", 0, "<built-in method builtins.max>")
    stats = {
        clock: (2, 2, 0.5, 0.8, {}),
        builtin: (4, 4, 0.3, 0.3, {clock: (4, 4, 0.3, 0.3)}),
    }
    calls, self_s = layers.fold_profile(stats)
    assert calls["memsim.clock"] == 2
    assert self_s["memsim.clock"] == pytest.approx(0.8)
    assert self_s[layers.OTHER] == 0.0


def _small_run(p: cells.Pass) -> None:
    workload = make_workload("array_sum", num_elems=2048, seed=5)
    memo = ModuleMemo(workload)
    built = [(workload, memo, CostModel())]
    cells.run_mira(built, p)
    cells.run_swap(built, p)
    spec = ScenarioSpec("tiny", "zipf", {"num_pages": 64, "num_events": 3000},
                        seed=5)
    cells.run_trace([(spec, spec.digest())], p)


def test_tracing_leaves_fingerprints_and_calls_unchanged():
    probe = cells.Probe()
    with probe.installed():
        with cells.Sampler() as sampler:
            untraced = cells.Pass(probe, sampler=sampler)
            _small_run(untraced)
        traced = []
        for _ in range(2):
            profile = cProfile.Profile()
            p = cells.Pass(probe, profile=profile)
            _small_run(p)
            traced.append((p, layers.fold_profile(pstats.Stats(profile).stats)[0]))
    assert all(o.error is None for _, o in untraced.cells)
    names = [name for name, _ in untraced.cells]
    assert "array_sum/mira" in names and "tiny/mira-set" in names
    for p, _calls in traced:
        assert [o.fingerprint for _, o in p.cells] == [
            o.fingerprint for _, o in untraced.cells]
    (_, calls_a), (_, calls_b) = traced
    assert calls_a == calls_b
    assert calls_a["cache.sections"] > 0 and calls_a["runtime"] > 0
    assert calls_a["obs"] == 0 and calls_a["faults"] == 0


def test_sampler_runs_during_cells_and_is_not_timed():
    def busy(seconds: float) -> cells.Outcome:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return cells.Outcome()

    probe = cells.Probe()
    previous = signal.getsignal(signal.SIGALRM)
    with cells.Sampler() as sampler:
        p = cells.Pass(probe, sampler=sampler)
        p.cell("busy", lambda: busy(0.3))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    (count, sampled_s), = p.sampled
    assert count >= 0.3 / cells.SAMPLE_INTERVAL_S / 2 and sampled_s > 0
    assert p.cell_s[0] < 0.3  # the handler's time is taken out
    assert len(p.cal_s) == 2 and len(p.ref_s) == 1 and p.ref_s[0] > 0


def test_reference_seconds_scale_with_the_calibration():
    steps = 2 * cells.CALIBRATION_STEPS
    quiet = steps * cells.STEP_REF_S
    assert cells.reference_s(1.5, steps, quiet) == pytest.approx(1.5)
    # a host twice as slow takes twice as long for both
    assert cells.reference_s(3.0, steps, 2 * quiet) == pytest.approx(1.5)


def test_probe_restores_the_harness():
    from repro.bench import harness
    from repro.workloads.trace import replay

    before = (harness.run_plan, harness.run_on_baseline,
              harness.MiraController, replay.make_system)
    with cells.Probe().installed():
        assert harness.run_plan is not before[0]
    assert (harness.run_plan, harness.run_on_baseline,
            harness.MiraController, replay.make_system) == before


def test_benchmark_json_matches_the_benchmark():
    import json

    import run

    doc = json.loads((layers.REPRO_ROOT.parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in cells.WORKLOADS.values()}
    for w in cells.WORKLOADS.values():
        assert set(w.busiest + w.no_move) <= set(layers.LAYER_TABLE), w.name
        assert not set(w.busiest) & set(w.no_move), w.name
    names = {m["name"] for m in doc["per_layer"]}
    expected = {f"{layer}.self_s" for layer in layers.LAYERS}
    expected |= {f"{layer}.calls" for layer in layers.LAYER_TABLE}
    expected |= {f"{phase}.{k}" for phase in run.PHASES for k in ("count", "s")}
    expected |= {f"sim.{bucket}_ms" for bucket in run.BUCKETS}
    assert expected <= names
