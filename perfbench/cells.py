"""The benchmark's workloads, cells and passes.

A *cell* is one public call that yields one simulated result: a native
reference run, a Mira point, a baseline point or a trace replay.  A
*pass* runs every cell of a workload once, in a fixed order.  The
workloads are built only from public entry points:
``repro.bench.harness.mira_point``, ``system_point`` and
``native_time_ns``, and ``repro.workloads.trace.run_scenario``.

:class:`Probe` wraps the harness's calls into each phase (controller,
final run, baseline run, replay) with spans and keeps the result each
call returns, so a cell's clock breakdown and section and network
counters can be read without changing any code under ``src/``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.baselines import NativeMemory
from repro.bench import harness
from repro.memsim.cost_model import CostModel
from repro.workloads import make_workload
from repro.workloads.trace import ScenarioSpec, replay, run_scenario

#: local memory as a share of each IR program's footprint
IR_RATIO = 0.2
#: local memory as a share of each trace stream's footprint
TRACE_RATIO = 0.25

#: the five IR programs, scaled so that no cell takes much over a second
#: and a run holds several passes; gpt2 has no seed parameter
IR_PROGRAMS: tuple[tuple[str, dict], ...] = (
    ("graph_traversal", {"num_edges": 3000, "num_nodes": 1000}),
    ("array_sum", {"num_elems": 16384}),
    ("dataframe", {"num_rows": 4096}),
    ("mcf", {"num_nodes": 2048, "num_arcs": 2048}),
    ("gpt2", {"layers": 2}),
)
SWAP_SYSTEMS = ("fastswap", "leap", "aifm")
TRACE_SYSTEMS = ("fastswap", "leap", "mira-direct", "mira-set", "mira-full",
                 "hybrid")
TRACE_EVENTS = 30_000


def trace_streams(seed: int) -> tuple[ScenarioSpec, ...]:
    """The three replayed streams: read-mostly, write-heavy, prefetch-hostile."""
    return (
        ScenarioSpec("zipf_read", "zipf",
                     {"num_pages": 1024, "num_events": TRACE_EVENTS,
                      "alpha": 1.1, "read_ratio": 0.9}, seed=seed),
        ScenarioSpec("scan_write", "sequential",
                     {"num_bytes": 1 << 20, "num_events": TRACE_EVENTS,
                      "stride": 64, "read_ratio": 0.3}, seed=seed),
        ScenarioSpec("chase", "pointer_chase",
                     {"num_pages": 1024, "num_events": TRACE_EVENTS},
                     seed=seed),
    )


@dataclass
class Workload:
    """One benchmark workload and the reasons it is in the benchmark."""

    name: str
    #: why it was chosen (one line; copied into BENCHMARK.json)
    why: str
    #: the layers that do most of its work
    busiest: tuple[str, ...]
    #: layers whose changes are predicted to show no move here
    no_move: tuple[str, ...]
    #: seed -> built inputs; timed as ``setup_s``
    setup: Callable[[int], object]
    #: (built inputs, pass) -> None; runs every cell once
    run: Callable[[object, "Pass"], None]


# -- cell outcomes -------------------------------------------------------------


@dataclass
class Outcome:
    """What one cell produced: exact simulated values and its fingerprint."""

    virtual_ns: float = 0.0
    #: native virtual time / system virtual time; None for native cells
    #: and for modelled allocation failures
    norm: float | None = None
    alloc_failure: bool = False
    sections: dict = field(default_factory=dict)
    breakdown: dict = field(default_factory=dict)
    net: dict = field(default_factory=dict)
    #: SHA-256 of the replayed address stream; empty for IR cells
    inputs: str = ""
    error: str | None = None

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the cell's virtual time, clock breakdown, section
        and network counters and input stream."""
        doc = {
            "virtual_ns": self.virtual_ns,
            "alloc_failure": self.alloc_failure,
            "sections": self.sections,
            "breakdown": self.breakdown,
            "net": self.net,
            "inputs": self.inputs,
        }
        blob = json.dumps(doc, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


def _net_counters(memsys) -> dict:
    network = getattr(memsys, "network", None)
    if network is None:
        return {}
    s = network.stats
    return {
        "bytes_read": s.bytes_read,
        "bytes_written": s.bytes_written,
        "messages": s.messages,
        "by_kind": {k.value: v for k, v in s.by_kind.items()},
    }


def _sections(memsys) -> dict:
    collect = getattr(memsys, "collect_section_stats", None)
    return collect() if collect is not None else {}


def _from_run(result, virtual_ns: float, norm: float | None) -> Outcome:
    memsys = result.memsys
    return Outcome(
        virtual_ns=virtual_ns,
        norm=norm,
        sections=_sections(memsys),
        breakdown={"total_ns": result.elapsed_ns, **result.breakdown},
        net=_net_counters(memsys),
    )


# -- probe ---------------------------------------------------------------------


class Probe:
    """Phase spans and result capture around the harness's public calls.

    While installed, ``repro.bench.harness``'s ``run_plan``,
    ``run_on_baseline`` and ``MiraController`` and ``replay.make_system``
    are replaced by wrappers that time each call into ``spans`` and keep
    the latest run result (or built trace system) in ``captured``.
    """

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.captured = None

    def span(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            s = self.spans.setdefault(name, [0, 0.0])
            s[0] += 1
            s[1] += time.perf_counter() - t0

    def take(self):
        captured, self.captured = self.captured, None
        return captured

    @contextmanager
    def installed(self):
        probe = self
        run_plan = harness.run_plan
        run_on_baseline = harness.run_on_baseline
        controller = harness.MiraController
        make_system = replay.make_system

        def traced_run_plan(*args, **kwargs):
            probe.captured = probe.span("phase.final_run", run_plan,
                                        *args, **kwargs)
            return probe.captured

        def traced_run_on_baseline(module, system, *args, **kwargs):
            if isinstance(system, NativeMemory):  # inside phase.native
                result = run_on_baseline(module, system, *args, **kwargs)
            else:
                result = probe.span("phase.baseline", run_on_baseline,
                                    module, system, *args, **kwargs)
            probe.captured = result
            return result

        class SpannedController(controller):
            def optimize(self, *args, **kwargs):
                return probe.span("phase.controller", super().optimize,
                                  *args, **kwargs)

        def capturing_make_system(*args, **kwargs):
            probe.captured = make_system(*args, **kwargs)
            return probe.captured

        harness.run_plan = traced_run_plan
        harness.run_on_baseline = traced_run_on_baseline
        harness.MiraController = SpannedController
        replay.make_system = capturing_make_system
        try:
            yield self
        finally:
            harness.run_plan = run_plan
            harness.run_on_baseline = run_on_baseline
            harness.MiraController = controller
            replay.make_system = make_system


# -- host-speed calibration ----------------------------------------------------

#: host seconds one calibration step takes on a quiet host; host times are
#: reported in reference seconds, which a quiet host reads as seconds
STEP_REF_S = 0.2e-6
#: steps in the calibration slice run before and after every cell
CALIBRATION_STEPS = 50_000
#: steps in the slice the sampler runs every ``SAMPLE_INTERVAL_S`` while a
#: cell runs
SAMPLE_STEPS = 5_000
SAMPLE_INTERVAL_S = 0.025


class _Slice:
    """Fixed plain-Python work that runs no ``repro`` code: attribute
    updates, float and int arithmetic and a dict, as in the simulator's
    inner loops.  It allocates no containers, so running it inside a cell
    does not move that cell's garbage collections."""

    __slots__ = ("count", "total", "table")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.table = dict.fromkeys(range(512), 0)

    def step(self, i: int) -> None:
        self.count += 1
        self.total = self.total * 0.5 + i
        k = i & 511
        self.table[k] = (self.table.get(k, 0) + i) & 0xFFFF

    def run(self, steps: int) -> float:
        """Host seconds to run ``steps`` steps."""
        t0 = time.perf_counter()
        step = self.step
        for i in range(steps):
            step(i)
        return time.perf_counter() - t0


_SLICE = _Slice()


def calibration_s() -> float:
    """Host seconds of one calibration slice of ``CALIBRATION_STEPS``.

    The host this benchmark runs on is shared, and its speed swings by up
    to half within seconds and between minutes.  The simulator's time and
    the slice's time swing together, so a time divided by the slices run
    around it is steady while a raw time is not.
    """
    return _SLICE.run(CALIBRATION_STEPS)


def reference_s(host_s: float, steps: int, slices_s: float) -> float:
    """``host_s`` in reference seconds, given that ``steps`` calibration
    steps run around and during it took ``slices_s`` host seconds."""
    return host_s * steps * STEP_REF_S / slices_s


class Sampler:
    """Calibration slices run from a timer signal while a cell runs.

    A cell of a second or more outlasts the host's swings, so the slices
    at its ends do not say how fast the host was during it; these do.  The
    time spent in the handler is taken out of the cell's time.  Use it as
    a context manager, which installs the handler and restores the old one.
    """

    def __init__(self) -> None:
        self.count = 0
        self.slices_s = 0.0
        self.handler_s = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.slices_s += _SLICE.run(SAMPLE_STEPS)
        self.count += 1
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self.count, self.slices_s, self.handler_s = 0, 0.0, 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)


# -- passes --------------------------------------------------------------------


class Pass:
    """One run of every cell of a workload.

    Each cell is timed on its own (``cell_s``, in cell order); garbage is
    collected after each cell, outside the timed region, and the objects
    freed are summed.  A calibration slice runs before the first cell and
    after each cell's collection (``cal_s``), also outside the timed
    region, and with a ``sampler`` more slices run during each cell
    (``sampled``: their count and host seconds).  With a ``profile`` (a
    ``cProfile.Profile``) the profiler is on only while a cell runs.
    """

    def __init__(self, probe: Probe, profile=None,
                 sampler: Sampler | None = None) -> None:
        self.probe = probe
        self.profile = profile
        self.sampler = sampler
        self.cells: list[tuple[str, Outcome]] = []
        self.cell_s: list[float] = []
        self.sampled: list[tuple[int, float]] = []
        self.gc_freed = 0
        probe.spans = self.spans = {}
        self.cal_s = [calibration_s()]

    def cell(self, name: str, fn: Callable[[], Outcome]) -> Outcome:
        profile, sampler = self.profile, self.sampler
        if profile is not None:
            profile.enable()
        t0 = time.perf_counter()
        if sampler is not None:
            sampler.start()
        try:
            outcome = fn()
        # a failing cell is counted in failed_frac; the pass goes on
        except Exception as exc:  # noqa: BLE001
            outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
        finally:
            if sampler is not None:
                sampler.stop()
            host_s = time.perf_counter() - t0
            if profile is not None:
                profile.disable()
        if sampler is not None:
            host_s -= sampler.handler_s
            self.sampled.append((sampler.count, sampler.slices_s))
        else:
            self.sampled.append((0, 0.0))
        self.cell_s.append(host_s)
        self.probe.captured = None
        self.cells.append((name, outcome))
        self.gc_freed += gc.collect()
        self.cal_s.append(calibration_s())
        return outcome

    @property
    def wall_s(self) -> float:
        """Host seconds of the pass's cells."""
        return sum(self.cell_s)

    @property
    def ref_s(self) -> list[float]:
        """Each cell's time in reference seconds, calibrated by the slices
        just before and after it and those sampled during it."""
        return [
            reference_s(t, 2 * CALIBRATION_STEPS + n * SAMPLE_STEPS,
                        before + after + sampled_s)
            for t, before, after, (n, sampled_s)
            in zip(self.cell_s, self.cal_s, self.cal_s[1:], self.sampled)
        ]

    @property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name, outcome in self.cells:
            h.update(f"{name} {outcome.fingerprint}\n".encode())
        return h.hexdigest()


# -- IR workloads --------------------------------------------------------------


def build_ir(seed: int) -> list[tuple]:
    cost = CostModel()
    built = []
    for name, params in IR_PROGRAMS:
        if name != "gpt2":
            params = {**params, "seed": seed}
        workload = make_workload(name, **params)
        memo = harness.ModuleMemo(workload)
        memo.footprint_bytes  # builds the module
        built.append((workload, memo, cost))
    return built


def _native_cell(p: Pass, workload, memo, cost) -> float:
    def run() -> Outcome:
        ns = p.probe.span("phase.native", harness.native_time_ns,
                          workload, cost, memo=memo)
        return _from_run(p.probe.take(), ns, None)

    return p.cell(f"{workload.name}/native", run).virtual_ns


def _point_outcome(probe: Probe, point) -> Outcome:
    result = probe.take()
    if point.failed:
        return Outcome(alloc_failure=True)
    return _from_run(result, point.elapsed_ns, point.normalized_perf)


def run_mira(built: list[tuple], p: Pass) -> None:
    for workload, memo, cost in built:
        native_ns = _native_cell(p, workload, memo, cost)
        p.cell(f"{workload.name}/mira", lambda: _point_outcome(
            p.probe,
            harness.mira_point(workload, cost, IR_RATIO, native_ns,
                               memo=memo)[0],
        ))


def run_swap(built: list[tuple], p: Pass) -> None:
    for workload, memo, cost in built:
        native_ns = _native_cell(p, workload, memo, cost)
        for system in SWAP_SYSTEMS:
            p.cell(f"{workload.name}/{system}", lambda: _point_outcome(
                p.probe,
                harness.system_point(workload, system, cost, IR_RATIO,
                                     native_ns, memo=memo),
            ))


# -- trace workload ------------------------------------------------------------


def build_trace(seed: int) -> list[tuple[ScenarioSpec, str]]:
    """The streams and their digests; generating each stream once here
    is the workload's data generation."""
    return [(spec, spec.digest()) for spec in trace_streams(seed)]


def _replay_cell(p: Pass, spec: ScenarioSpec, digest: str, system: str,
                 native_ns: float | None) -> Outcome:
    def run() -> Outcome:
        res = p.probe.span("phase.replay", run_scenario, spec, system,
                           TRACE_RATIO)
        if res.num_ops != spec.params["num_events"]:
            raise AssertionError(
                f"replayed {res.num_ops} of {spec.params['num_events']} ops")
        return Outcome(
            virtual_ns=res.elapsed_ns,
            norm=None if native_ns is None else native_ns / res.elapsed_ns,
            sections=res.sections,
            breakdown=res.breakdown,
            net=_net_counters(p.probe.take()),
            inputs=digest,
        )

    return p.cell(f"{spec.name}/{system}", run)


def run_trace(streams: list[tuple[ScenarioSpec, str]], p: Pass) -> None:
    for spec, digest in streams:
        native_ns = _replay_cell(p, spec, digest, "native", None).virtual_ns
        for system in TRACE_SYSTEMS:
            _replay_cell(p, spec, digest, system, native_ns)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mira_ir",
            why="full Mira (controller + final run) on the five IR programs;"
                " cache sections and the manager do most of the work",
            busiest=("runtime", "cache.sections", "memsim.clock",
                     "cache.manager"),
            no_move=("baselines", "prefetch", "workloads.trace.replay",
                     "workloads.trace.generators", "obs", "faults"),
            setup=build_ir,
            run=run_mira,
        ),
        Workload(
            "swap_ir",
            why="the same programs on fastswap, leap and aifm with no"
                " controller; swap, baselines, prefetch and the IR engine"
                " work, cache sections do not",
            busiest=("runtime", "memsim.clock", "baselines", "cache.swap",
                     "prefetch"),
            no_move=("cache.sections", "cache.manager", "core", "transforms",
                     "analysis", "workloads.trace.replay",
                     "workloads.trace.generators", "obs", "faults"),
            setup=build_ir,
            run=run_swap,
        ),
        Workload(
            "trace_rw",
            why="seeded zipf, write-heavy scan and pointer-chase streams"
                " replayed on six systems; no IR engine, dirty evictions on"
                " every section structure",
            busiest=("memsim.clock", "cache.sections",
                     "workloads.trace.generators", "workloads.trace.replay",
                     "cache.manager"),
            no_move=("runtime", "core", "transforms", "analysis", "ir",
                     "obs", "faults"),
            setup=build_trace,
            run=run_trace,
        ),
    )
}


def sim_counters(cells: list[tuple[str, Outcome]]) -> tuple[dict, dict]:
    """Section and network totals (``sim.*``), and clock-breakdown totals
    per bucket in ns, over a pass's cells."""
    keys = ("accesses", "misses", "evictions", "writebacks",
            "prefetches_issued", "prefetch_wasted")
    tot = dict.fromkeys(keys, 0)
    net = {"bytes_read": 0, "bytes_written": 0, "messages": 0}
    buckets: dict[str, float] = {}
    alloc_failures = 0
    for _name, o in cells:
        alloc_failures += o.alloc_failure
        for stats in o.sections.values():
            for k in keys:
                tot[k] += stats.get(k, 0)
        for k in net:
            net[k] += o.net.get(k, 0)
        for bucket, ns in o.breakdown.items():
            if bucket != "total_ns":
                buckets[bucket] = buckets.get(bucket, 0.0) + ns
    out = {f"sim.{k}": v for k, v in tot.items()}
    out["sim.miss_rate"] = tot["misses"] / tot["accesses"] if tot["accesses"] else 0.0
    out["sim.prefetch_waste_ratio"] = (
        tot["prefetch_wasted"] / tot["prefetches_issued"]
        if tot["prefetches_issued"] else 0.0
    )
    out.update({f"sim.net_{k}": v for k, v in net.items()})
    out["sim.alloc_failures"] = alloc_failures
    return out, buckets


def norm_geomean(cells: list[tuple[str, Outcome]]) -> float:
    """Geometric mean of the completed cells' normalized performance; 0
    when none completed (a failed native run leaves its cells at 0)."""
    norms = [o.norm for _, o in cells if o.norm]
    if not norms:
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in norms) / len(norms))
