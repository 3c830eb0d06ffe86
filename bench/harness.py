"""Timed and traced runs of one workload, and the metrics they report.

A repetition sets the workload up afresh (project load plus context build)
and then makes its work call once. The timed run makes a fixed number of
repetitions per workload; the traced run makes two untraced repetitions and
one traced one.
"""
from __future__ import annotations

import contextlib
import gc
import os
import platform
import resource
import signal
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import tracer as tracing
import workloads
from frobcat import axiom_suite

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 15
# the most rescaled time a timed run may take, as a multiple of its --seconds
MAX_STRETCH = 1.4

END_TO_END = {"work_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# cache ratios: metric -> (tracer miss counter, True when the metric counts hits)
RATIOS = {
    "algebra_repr.hom_basis.miss_ratio": ("algebra_repr.hom_basis.misses", False),
    "rigid_model.cofibrant_replacement.hit_ratio":
        ("rigid_model.cofibrant_replacement.misses", True),
    "localization.ho_hom.hit_ratio": ("localization.ho_hom.misses", True),
}
CHECK_GROUP = "axiom_suite.check"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for group in tracing.groups():
        if group == CHECK_GROUP:
            for name in axiom_suite.registered_checks():
                units[f"{CHECK_GROUP}.{name}.wall_s"] = "s"
            continue
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_s"] = "s"
        if group == "exact_linalg.rref":
            units["exact_linalg.rref.cells"] = "count"
        for ratio, (counter, _) in RATIOS.items():
            if counter.startswith(group + "."):
                units[ratio] = "ratio"
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


CPUS = sorted(os.sched_getaffinity(0))

# Rescaled times are measured on this process's CPU-time clock, which leaves
# out the time the process waits for its CPU, to other processes or to the
# host (steal); only the speed of the CPU while it runs remains to correct.
CPU_CLOCK = time.process_time
PROBE_STEPS = 4000
PROBE_EVERY_S = 0.025
# CPU seconds the probe loop takes on an uncontended core of the 2-CPU x86_64
# host where the benchmark was defined; scaled times are seconds of that core
REF_PROBE_S = 0.25e-3


def _probe() -> float:
    c0 = CPU_CLOCK()
    sum(i * i % 7 for i in range(PROBE_STEPS))
    return CPU_CLOCK() - c0


def pin_fastest_cpu() -> None:
    """Move this process to the CPU that runs the probe loop fastest now.

    On a shared host, outside load slows one CPU at a time for seconds at a
    stretch, so a repetition started on the faster CPU needs less rescaling.
    """
    if len(CPUS) < 2:
        return
    times = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = min(_probe() for _ in range(3))
    os.sched_setaffinity(0, {min(times, key=times.get)})


class SpeedProbe:
    """Times the probe loop every PROBE_EVERY_S seconds, from a timer signal,
    so that any stretch of the run can be rescaled to an uncontended core.
    (A CPU-time timer would not do: while one is set, Linux updates the
    process's CPU-time clock only at scheduler ticks.)

    Outside load on a shared host slows a core by up to 1.6x for seconds or
    minutes at a time, through the core's other hardware thread, and that
    slows the process's CPU time as much as its wall time. The probe loop
    slows with it, so its time, sampled 40 times a second on the same core
    as the work, says how fast the core runs at each moment.
    """

    def __init__(self):
        # (start, took) pairs, added by one extend() so that a signal can
        # never come between the two
        self.samples = array("d")
        self._handler = None

    def sample(self, *_) -> None:
        c0 = CPU_CLOCK()
        took = _probe()
        self.samples.extend((c0, took))

    def __enter__(self) -> "SpeedProbe":
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scaled(self, a: float, b: float) -> float:
        """The CPU seconds from CPU_CLOCK() a to b, less the probes' own time,
        rescaled to an uncontended core. Each stretch between two probes is
        scaled by REF_PROBE_S over the median time of the probe before it
        and its two neighbours."""
        # a copy: a signal arriving while the array's buffer is exported
        # would make the handler's extend fail
        start, took = np.array(self.samples).reshape(-1, 2).T
        n = len(start)
        speed = took.copy()
        if n >= 3:
            speed[1:-1] = np.median([took[:-2], took[1:-1], took[2:]], axis=0)
        lo, hi = np.searchsorted(start, [a, b])
        begins = np.concatenate(([a], start[lo:hi] + took[lo:hi]))
        ends = np.concatenate((start[lo:hi], [b]))
        before = speed[np.clip(np.arange(lo - 1, hi), 0, n - 1)]
        return float(np.sum((ends - begins) * REF_PROBE_S / before))


@dataclass
class Tally:
    speed: SpeedProbe
    attempted: int = 0
    failed: int = 0
    # rescaled by the speed probe
    setup_s: List[float] = field(default_factory=list)
    work_s: List[float] = field(default_factory=list)
    # as the wall clock read them
    raw_setup_s: List[float] = field(default_factory=list)
    raw_work_s: List[float] = field(default_factory=list)

    def pin(self) -> None:
        gc.collect()
        pin_fastest_cpu()
        self.speed.sample()

    def rep(self, wl, project_dir: Path, golden: dict, tiny: bool,
            trace: Optional[tracing.Tracer] = None) -> None:
        """One repetition; its items count as failed when it raises."""
        self.pin()
        try:
            with trace if trace is not None else contextlib.nullcontext():
                c0, t0 = CPU_CLOCK(), time.perf_counter()
                project, ctx = workloads.setup(project_dir)
                c1, t1 = CPU_CLOCK(), time.perf_counter()
                out = wl.work(project, ctx, tiny)
                c2, t2 = CPU_CLOCK(), time.perf_counter()
            attempted, failed = wl.check(out, golden)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted = failed = workloads.expected_items(golden)
        else:
            self.setup_s.append(self.speed.scaled(c0, c1))
            self.work_s.append(self.speed.scaled(c1, c2))
            self.raw_setup_s.append(t1 - t0)
            self.raw_work_s.append(t2 - t1)
        self.attempted += attempted
        self.failed += failed

    def result(self, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted > 0 else 1,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def timed_run(wl, project_dir: Path, seconds: float, golden: dict, tiny: bool = False):
    """Repeat the workload about `seconds` long; report the end-to-end metrics.

    The repetition count is round(seconds / wl.rep_s), fixed per workload
    rather than by the clock, so a slower commit makes as many repetitions
    as a faster one. Only a run whose rescaled time would pass
    MAX_STRETCH * seconds, on a much slower commit, stops early. work_s is
    the median rescaled time of the work call, setup_s the median rescaled
    set-up.
    """
    with SpeedProbe() as speed:
        tally = Tally(speed)
        budget = MAX_STRETCH * seconds
        for _ in range(max(1, round(seconds / wl.rep_s))):
            tally.rep(wl, project_dir, golden, tiny)
            # a much slower commit stops early rather than run on
            spent = sum(tally.setup_s) + sum(tally.work_s)
            if spent + min(tally.work_s, default=0.0) > budget:
                break
        while tally.work_s and len(tally.setup_s) < MIN_SETUPS:
            tally.pin()
            c0 = CPU_CLOCK()
            workloads.setup(project_dir)
            tally.setup_s.append(speed.scaled(c0, CPU_CLOCK()))
    metrics = {}
    if tally.work_s:
        metrics = {
            "work_s": float(np.median(tally.work_s)),
            "setup_s": float(np.median(tally.setup_s)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return tally, tally.result(metrics, END_TO_END)


def layer_metrics(trace: tracing.Tracer, overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics from one traced repetition's spans and counters."""
    summary = trace.summary()
    units = per_layer_units()
    out = {name: 0.0 if unit != "count" else 0 for name, unit in units.items()}
    for span, s in summary.items():
        if span.startswith(CHECK_GROUP + "."):
            out[f"{span}.wall_s"] = s["total_s"]
        else:
            out[f"{span}.calls"] = s["calls"]
            out[f"{span}.self_s"] = s["self_s"]
        layer = span.split(".")[0]
        out[f"{layer}.self_s"] += s["self_s"]
    out["exact_linalg.rref.cells"] = trace.counters.get("exact_linalg.rref.cells", 0)
    for ratio, (counter, as_hits) in RATIOS.items():
        calls = out[counter.rsplit(".", 1)[0] + ".calls"]
        misses = trace.counters.get(counter, 0)
        if calls:
            out[ratio] = (calls - misses) / calls if as_hits else misses / calls
    out["trace.overhead_s"] = overhead_s
    return {k: out[k] for k in units}


def traced_run(wl, project_dir: Path, golden: dict, tiny: bool = False,
               spans_path: Optional[Path] = None):
    """Two untraced repetitions, then one traced repetition.

    trace.overhead_s is the traced repetition's rescaled time minus the
    faster untraced one's; the first repetition also warms the process up.
    Span times are as the clock read them.
    """
    with SpeedProbe() as speed:
        tally = Tally(speed)
        for _ in range(2):
            tally.rep(wl, project_dir, golden, tiny)
        trace = tracing.Tracer()
        tally.rep(wl, project_dir, golden, tiny, trace)
    if spans_path is not None:
        trace.write(spans_path)
    metrics = {}
    if len(tally.work_s) == 3:
        totals = [s + w for s, w in zip(tally.setup_s, tally.work_s)]
        metrics = layer_metrics(trace, totals[2] - min(totals[:2]))
    return tally, trace, tally.result(metrics, per_layer_units())


# -- environment ---------------------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }
