"""The benchmark's workloads: inputs, the timed work call, and output checks.

Every workload is a project directory written once per process, then set up
afresh for each repetition exactly as one CLI invocation does it
(``load_project`` then ``context()``), so no frobcat cache outlives a
repetition. Library functions are reached through their modules
(``axiom_suite.run_all``), never bound by name here, so the tracer's
rebinding also covers the benchmark's own calls.

An item is one unit of checked output: one axiom check, one dl-verify pair,
or one search candidate. ``check`` compares a repetition's items with the
golden values recorded at the commit that introduced the benchmark.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from frobcat import algebra_repr, axiom_suite, cli, fixtures, homological, localization
from frobcat import rigid_model
from frobcat.exact_linalg import prime_field, rational_field

GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")

# Every workload runs fixed inputs; --seed does not change them. Battery cost
# differs too much between sampling seeds for a run to average it out: at 5
# to 20 samples the per-seed time of the pa2 battery varies with a 17-22%
# coefficient of variation, and one single A4 lifting sample took 37 s. So
# the batteries always sample with the CLI's default seed.
BATTERY_SEED = 42
# pa2 runs at the sample count of its project (200), as `frobcat axioms` does.
A4_SAMPLES = 3
# The battery samples around the simples; the generator's projectives enter
# through every replacement, and lifting_I_eq_JW is about half the time.
A4_OBJECTS = ["S1", "S2", "S3", "S4"]
A4_GENERATOR = ["P1", "P2", "P3", "P4"]
# With the projectives alone every localized hom-set over A3 is zero and each
# dl-verify checksum is that of no images; adding S1 (rigid, as in pa2's
# generator) gives a nonzero hom-set whose checksum the golden check pins.
A3Q_GENERATOR = ["P1", "P2", "P3", "S1"]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def expected_items(golden: dict) -> int:
    """Items a full repetition checks, counted failed when it raises."""
    for key in ("checks", "pairs", "verdicts"):
        if key in golden:
            return max(len(golden[key]), 1)
    return 1


# -- projects ---------------------------------------------------------------------


def _write_project(dest: Path, alg, modules: Dict[str, object], m_gen: List[str],
                   mode: str) -> None:
    dest.mkdir(parents=True)
    (dest / "algebra.json").write_text(json.dumps(alg.to_dict(), indent=2, sort_keys=True))
    for name, mod in modules.items():
        (dest / f"{name}.json").write_text(json.dumps(mod.to_dict(), indent=2, sort_keys=True))
    config = {
        "algebra": "algebra.json",
        "modules": {name: f"{name}.json" for name in modules},
        "M_gen": m_gen,
        "mode": mode,
    }
    (dest / "project.json").write_text(json.dumps(config, indent=2, sort_keys=True))


def _write_preprojective(n: int, field, names: List[str], m_gen: List[str]):
    """Project over the preprojective algebra of A_n; module names are
    S<v> (simple) or P<v> (projective)."""
    def write(dest: Path) -> None:
        alg = algebra_repr.preprojective(n, field)
        make = {"S": alg.simple, "P": alg.projective}
        modules = {name: make[name[0]](name[1:]) for name in names}
        _write_project(dest, alg, modules, m_gen, rigid_model.FROBENIUS)
    return write


def _write_fixture(tag: str):
    def write(dest: Path) -> None:
        fixtures.emit_fixture(tag, str(dest))
    return write


def setup(project_dir: Path):
    """What one CLI invocation does before its command: load, build context."""
    project = cli.load_project(str(project_dir))
    return project, project.context()


# -- axiom batteries ---------------------------------------------------------------


def _battery(samples: Optional[int] = None, objects: Optional[List[str]] = None):
    """run_all over the named project modules (all of them by default), at
    the project's sample count unless `samples` is given."""
    def work(project, ctx, tiny: bool):
        named = sorted(project.modules.items())
        if objects is not None:
            named = [(name, project.modules[name]) for name in objects]
        n = project.samples if samples is None else samples
        if tiny:
            return axiom_suite.run_all(ctx, BATTERY_SEED, min(n, 2), named[:2])
        return axiom_suite.run_all(ctx, BATTERY_SEED, n, named)
    return work


def _check_battery(report, golden: dict) -> Tuple[int, int]:
    got = {run.check_name: len(run.violations) for run in report.runs}
    want = golden["checks"]
    names = set(got) | set(want)
    failed = sum(got.get(n) != want.get(n) for n in names)
    if report.passed != golden["passed"]:
        failed = max(failed, 1)
    return len(names), failed


def battery_golden(report) -> dict:
    return {"checks": {run.check_name: len(run.violations) for run in report.runs},
            "passed": report.passed}


# -- dl-verify over A3 / Q --------------------------------------------------------------


def _dlverify_work(project, ctx, tiny: bool):
    named = axiom_suite.default_objects(ctx)
    if tiny:
        named = named[:3]
    return localization.dl_verify_all(ctx, named)


def _pair_key(report) -> str:
    return f"{report.pair[0]}->{report.pair[1]}"


def dlverify_golden(reports) -> dict:
    return {"pairs": {_pair_key(r): {"passed": r.passed, "checksum": r.checksum}
                      for r in reports}}


def _check_dlverify(reports, golden: dict) -> Tuple[int, int]:
    want = golden["pairs"]
    failed = sum(1 for r in reports
                 if want.get(_pair_key(r)) != {"passed": r.passed, "checksum": r.checksum})
    return len(reports), failed


# -- the pa3 rigidity search -----------------------------------------------------------


@dataclass
class SearchResult:
    candidates: int
    # per candidate, in sorted key order: None when not rigid, else whether
    # every dl-verify pair passed and a digest of the pair checksums
    verdicts: List[object]


def _search_work(project, ctx, tiny: bool) -> SearchResult:
    alg = project.algebra
    projs = [project.modules[f"P{v}"] for v in alg.vertices]
    candidates = {}
    for p in projs:
        for _, inc in algebra_repr.enumerate_submodules(p):
            quotient, _ = algebra_repr.cokernel(inc)
            if 0 < quotient.total_dim <= 3:
                candidates[quotient.key] = quotient
    keys = sorted(candidates)
    if tiny:
        keys = keys[:2]
    verdicts = []
    for key in keys:
        n = candidates[key]
        lam_plus_n, _, _ = algebra_repr.direct_sum(projs + [n])
        if homological.ext1_dim(lam_plus_n, lam_plus_n) != 0:
            verdicts.append(None)
            continue
        sub_ctx = rigid_model.build_context(alg, projs + [n], rigid_model.FROBENIUS)
        named = ([(f"S{v}", alg.simple(v)) for v in alg.vertices]
                 + [(f"P{v}", p) for v, p in zip(alg.vertices, projs)]
                 + [("N", n)])
        reports = localization.dl_verify_all(sub_ctx, named)
        digest = hashlib.sha256("|".join(r.checksum for r in reports).encode())
        verdicts.append([all(r.passed for r in reports), digest.hexdigest()[:16]])
    return SearchResult(len(candidates), verdicts)


def search_golden(result: SearchResult) -> dict:
    return {"candidates": result.candidates,
            "rigid": sum(v is not None for v in result.verdicts),
            "verdicts": result.verdicts}


def _check_search(result: SearchResult, golden: dict) -> Tuple[int, int]:
    n = max(len(result.verdicts), 1)
    if result.candidates != golden["candidates"]:
        return n, n
    want = golden["verdicts"]
    return n, sum(got != exp for got, exp in zip(result.verdicts, want))


# -- the table ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    write_project: Callable[[Path], None]
    work: Callable
    check: Callable
    golden: Callable
    # rescaled seconds of one repetition (set-up and work) at the commit that
    # defined the benchmark; a timed run of S seconds makes round(S / rep_s)
    # repetitions on every commit
    rep_s: float


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "pa2-battery",
        _write_fixture("pa2"), _battery(),
        _check_battery, battery_golden, 8.0,
    ),
    Workload(
        "a4f2-battery",
        _write_preprojective(4, prime_field(2), A4_OBJECTS + A4_GENERATOR, A4_GENERATOR),
        _battery(A4_SAMPLES, A4_OBJECTS), _check_battery, battery_golden, 2.2,
    ),
    Workload(
        "pa3-search",
        _write_fixture("pa3"), _search_work, _check_search, search_golden, 2.0,
    ),
    Workload(
        "a3q-dlverify",
        _write_preprojective(3, rational_field(), A3Q_GENERATOR, A3Q_GENERATOR),
        _dlverify_work, _check_dlverify, dlverify_golden, 3.0,
    ),
)}
