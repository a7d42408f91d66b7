"""The repository benchmark: simulator host time, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mira_ir --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: whole
passes over the workload's cells run until ``--seconds`` have passed,
each after three set-ups, and host times are medians in reference
seconds (see ``cells.calibration_s``): ``setup_s`` over the set-ups,
``wall_s`` summed over the cells' medians.  ``--trace 1`` runs two untraced
passes and then one pass under ``cProfile``, and reports per-layer call
counts and self time, the benchmark's phase spans, the simulated
counters and the tracing overhead.  Every pass must reproduce the first
pass's per-cell fingerprints bit for bit, traced or not; a cell that
raises, fails its output check or differs counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: environment knobs that change what is measured; removed so the
#: benchmark measures the default configuration
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_PREFETCH")

#: before each pass the workload is set up this often; ``setup_s`` is the
#: median over all set-ups of the run
SETUP_TRIES = 3
#: a run holds at least this many passes, however short ``--seconds`` is
MIN_PASSES = 3
PHASES = ("phase.native", "phase.controller", "phase.final_run",
          "phase.baseline", "phase.replay")
#: clock-breakdown buckets reported as ``sim.<bucket>_ms``; any other
#: bucket is summed into ``sim.unlisted_ms``
BUCKETS = ("compute", "dram", "dram_stream", "hit_overhead", "insert_overhead",
           "evict_overhead", "eviction", "net_read", "net_write", "net_issue",
           "net_wait", "net_timeout", "net_backoff", "miss_wait", "page_fault",
           "prefetch_wait", "rpc", "aifm_deref", "aifm_miss", "lock_hold",
           "lock_wait", "path_switch", "profiling", "other")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _failures(reference, passes) -> int:
    """Cells that raised, plus cells whose fingerprint differs from the
    reference pass's."""
    ref = [o.fingerprint for _, o in reference.cells]
    failed = 0
    for p in passes:
        for i, (_, o) in enumerate(p.cells):
            failed += o.error is not None or o.fingerprint != ref[i]
    return failed


def _setup_round(cells, workload, seed: int, setup_s: list) -> object:
    """Set the workload up ``SETUP_TRIES`` times, each time between two
    calibration slices; append the times in reference seconds to
    ``setup_s`` and return the last inputs built."""
    before = cells.calibration_s()
    for _ in range(SETUP_TRIES):
        t0 = time.perf_counter()
        built = workload.setup(seed)
        host_s = time.perf_counter() - t0
        gc.collect()
        after = cells.calibration_s()
        setup_s.append(cells.reference_s(
            host_s, 2 * cells.CALIBRATION_STEPS, before + after))
        before = after
    return built


def _end_to_end(cells, workload, args) -> tuple[dict, list]:
    setup_s = []
    built = None
    probe = cells.Probe()
    passes = []
    with probe.installed(), cells.Sampler() as sampler:
        t0 = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
            fresh = _setup_round(cells, workload, args.seed, setup_s)
            # every pass runs on the first inputs, whose memos are warm
            if built is None:
                built = fresh
            del fresh
            p = cells.Pass(probe, sampler=sampler)
            workload.run(built, p)
            passes.append(p)
    ref = passes[0]
    accesses = cells.sim_counters(ref.cells)[0]["sim.accesses"]
    wall_s = sum(statistics.median(times)
                 for times in zip(*(p.ref_s for p in passes)))
    metrics = {
        "wall_s": _metric(wall_s, "s"),
        "accesses_per_s": _metric(accesses / wall_s, "1/s"),
        "norm_perf_geomean": _metric(cells.norm_geomean(ref.cells), "ratio"),
        "virtual_ms": _metric(
            sum(o.virtual_ns for _, o in ref.cells) / 1e6, "ms"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"passes: {len(passes)} host_s: "
          + " ".join(f"{p.wall_s:.4f}" for p in passes))
    print("reference_s: " + " ".join(f"{sum(p.ref_s):.4f}" for p in passes))
    print("setup_s: " + " ".join(f"{s:.4f}" for s in setup_s))
    return metrics, passes


def _per_layer(cells, layers, workload, args) -> tuple[dict, list]:
    import cProfile
    import pstats

    built = workload.setup(args.seed)
    probe = cells.Probe()
    with probe.installed():
        passes = []
        for _ in range(2):
            p = cells.Pass(probe)
            workload.run(built, p)
            passes.append(p)
        profile = cProfile.Profile()
        traced = cells.Pass(probe, profile=profile)
        workload.run(built, traced)
    untraced = passes[1]
    calls, self_s = layers.fold_profile(pstats.Stats(profile).stats)
    metrics = {}
    for layer in layers.LAYERS:
        if layer != layers.OTHER:  # only repro functions are counted
            metrics[f"{layer}.calls"] = _metric(calls[layer], "count")
        metrics[f"{layer}.self_s"] = _metric(self_s[layer], "s")
    for phase in PHASES:
        count, seconds = untraced.spans.get(phase, (0, 0.0))
        metrics[f"{phase}.count"] = _metric(count, "count")
        metrics[f"{phase}.s"] = _metric(seconds, "s")
    sim, buckets = cells.sim_counters(passes[0].cells)
    for key, value in sim.items():
        unit = "ratio" if key.endswith(("_rate", "_ratio")) else (
            "B" if "bytes" in key else "count")
        metrics[key] = _metric(value, unit)
    for bucket in BUCKETS:
        metrics[f"sim.{bucket}_ms"] = _metric(buckets.pop(bucket, 0.0) / 1e6,
                                              "ms")
    metrics["sim.unlisted_ms"] = _metric(sum(buckets.values()) / 1e6, "ms")
    metrics["bench.trace_overhead"] = _metric(
        traced.wall_s / untraced.wall_s, "ratio")
    metrics["host.gc_cyclic_objects"] = _metric(untraced.gc_freed, "count")
    return metrics, passes + [traced]


def main(argv=None) -> int:
    args = _parse(argv)
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cells
    import layers
    from repro.runtime.engine import engine_from_env

    workload = cells.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(cells.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload: {workload.name} seed: {args.seed} "
          f"engine: {engine_from_env()}")
    if args.trace:
        metrics, passes = _per_layer(cells, layers, workload, args)
    else:
        metrics, passes = _end_to_end(cells, workload, args)
    ref = passes[0]
    attempted = sum(len(p.cells) for p in passes)
    failed = _failures(ref, passes)
    if args.trace:
        metrics["failed_frac"] = _metric(failed / attempted, "share")
    else:
        # end-to-end metrics must never read 0, so the complement is reported
        metrics["ok_frac"] = _metric(1 - failed / attempted, "share")
    for name, o in ref.cells:
        if o.error is not None:
            print(f"failed cell {name}: {o.error}")
    print(f"fingerprint: {workload.name} {ref.fingerprint}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
