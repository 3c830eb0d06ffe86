"""Record the golden outputs every benchmark repetition is checked against.

    python3 bench/record_golden.py

Runs each workload once at full size and rewrites golden.json.
Only rerun it in a change that means to alter the library's outputs, and
say why in that change.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main() -> None:
    golden = {}
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        for wl in workloads.WORKLOADS.values():
            project_dir = Path(tmp) / wl.name
            wl.write_project(project_dir)
            project, ctx = workloads.setup(project_dir)
            golden[wl.name] = wl.golden(wl.work(project, ctx, False))
            print(wl.name, json.dumps(golden[wl.name])[:120])
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
