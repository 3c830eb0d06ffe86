"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pa2-battery [--seed 42] [--seconds 15] [--trace 0|1]

Every workload runs fixed inputs, so --seed is accepted but changes nothing
(see README.md). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it holds
the environment. Exits 2 without a result when the frobcat sources are not
beside bench/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42, help="accepted; inputs are fixed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "frobcat" / "__init__.py").is_file():
        print(f"error: no frobcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    golden = workloads.load_golden()[wl.name]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        project_dir = Path(tmp) / "project"
        wl.write_project(project_dir)
        if args.trace:
            spans = OUT / f"spans-{wl.name}.npz"
            tally, trace, result = harness.traced_run(wl, project_dir, golden,
                                                      spans_path=spans)
            print(f"# {wl.name}: traced {len(trace.start)} spans, written to "
                  f"{spans.relative_to(ROOT)}")
        else:
            tally, result = harness.timed_run(wl, project_dir, args.seconds, golden)
            print(f"# {wl.name}: work_s is the median of {len(tally.work_s)} repetitions "
                  f"rescaled to an uncontended core: "
                  f"{', '.join(f'{t:.3f}' for t in tally.work_s)}; as the wall clock read them: "
                  f"{', '.join(f'{t:.3f}' for t in tally.raw_work_s)}")
            print(f"# setup_s is the median of {len(tally.setup_s)} rescaled set-ups: "
                  f"{', '.join(f'{t:.4f}' for t in tally.setup_s)}")
    print(f"# fail_ratio {result['failed']}/{result['attempted']}")
    print(json.dumps({"environment": harness.environment()}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
