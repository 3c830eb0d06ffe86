"""Command dispatch over the engine: project-file ingestion, fixture
emission, predicates, factorizations, homotopy hom-sets, the equivalence
verifier, and the axiom battery.

Exit codes: 0 success (and true predicates), 1 property or predicate
failure, 2 invalid input or rejected hypotheses.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from . import __version__
from .errors import HypothesisError, InputError
from .algebra_repr import (Algebra, Module, Morphism, _json_key, _json_known, _json_name,
                           _json_scalar, _json_typed, algebra_from_dict, hom_basis, zero_module)
from .homological import ext1_dim
from .rigid_model import (
    RigidContext,
    build_context,
    cofibrant_replacement,
    factorize1,
    factorize2,
    is_cofibrant,
    is_fibration,
    is_weak_equivalence,
    are_homotopic,
)
from .localization import dl_verify, dl_verify_all, ho_hom
from .axiom_suite import registered_checks, run_all, run_check
from .fixtures import FIXTURE_TAGS, emit_fixture

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


@dataclass
class ProjectConfig:
    root: Path
    algebra: Algebra
    modules: Dict[str, Module]
    m_gen_names: List[str]
    mode: str
    seed: int
    samples: int

    def context(self) -> RigidContext:
        return build_context(
            self.algebra, [self.modules[n] for n in self.m_gen_names], self.mode
        )

    def module(self, name: str) -> Module:
        if name == "0":
            return zero_module(self.algebra)
        if name not in self.modules:
            raise InputError(f"unknown module {name!r}; project has: {', '.join(self.modules)}")
        return self.modules[name]


def _load_json(path: Path, what: str, parse=lambda doc: doc):
    """parse(the JSON document in path). A file that cannot be read, is not
    UTF-8 or not JSON, or that parse refuses, is an InputError naming it."""
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, InputError) as e:  # JSON and Unicode decode errors included
        raise InputError(f"{what}: {e}") from e


def load_project(path: str) -> ProjectConfig:
    root = Path(path)
    config_file = root / "project.json"
    if not config_file.is_file():
        raise InputError(f"no project.json under {root}")
    config = _json_typed(_load_json(config_file, "project.json"), dict, "project.json")
    _json_known(config, ("algebra", "modules", "M_gen", "mode", "options"), "key", "project.json")
    files = _json_typed(config.get("modules", {}), dict, "project.json: modules")
    m_gen = config.get("M_gen", [])
    options = _json_known(_json_typed(config.get("options", {}), dict, "project.json: options"),
                          ("seed", "samples"), "key", "project.json: options")
    algebra_file = _json_key(config, "algebra", "project.json")
    if not all(isinstance(f, str) for f in [algebra_file, *files.values()]):
        raise InputError("project.json: the algebra and module files must be file names")
    if not isinstance(m_gen, list) or not all(isinstance(n, str) for n in m_gen):
        raise InputError("project.json: M_gen must be a list of module names")
    algebra = _load_json(root / algebra_file, f"algebra file {algebra_file}", algebra_from_dict)
    modules = {name: _load_json(root / fname, f"module {name} (file {fname})",
                                lambda doc: Module.from_dict(algebra, doc))
               for name, fname in files.items()}
    for name in m_gen:
        if name not in modules:
            raise InputError(f"M_gen references unknown module {name!r}")
    seed = _json_scalar(options.get("seed", 42), "project.json options: seed", int)
    samples = _json_scalar(options.get("samples", 200), "project.json options: samples", int)
    return ProjectConfig(
        root=root,
        algebra=algebra,
        modules=modules,
        m_gen_names=m_gen,
        mode=config.get("mode", "exact"),
        seed=seed,
        samples=samples,
    )


def load_morphism(project: ProjectConfig, path: str) -> Morphism:
    def parse(data):
        _json_typed(data, dict, "the morphism")
        source, target = (
            project.module(_json_name(_json_key(data, key, "the morphism"),
                                      f"{key!r} of the morphism"))
            for key in ("source", "target"))
        return Morphism.from_dict(data, source, target)
    return _load_json(Path(path), f"morphism file {path}", parse)


class Report:
    """Accumulates human-readable lines and a machine-readable document."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.lines: List[str] = []
        self.doc: dict = {"tool": f"frobcat {__version__}"}

    def say(self, line: str) -> None:
        self.lines.append(line)

    def put(self, key: str, value) -> None:
        self.doc[key] = value

    def emit(self) -> None:
        if self.as_json:
            print(json.dumps(self.doc, indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


def _bool_exit(value: bool) -> int:
    return EXIT_OK if value else EXIT_FAIL


# -- commands -------------------------------------------------------------------


def cmd_validate(args, report: Report) -> int:
    project = load_project(args.project)
    ctx = project.context()
    report.say(f"context accepted: mode={ctx.mode}")
    report.say(f"M_gen = {' + '.join(project.m_gen_names)}, dims {ctx.M_gen.dims_tuple()}")
    report.say(f"cosyzygy of M_gen: dims {ctx.mho_M_gen.dims_tuple()}")
    report.say(f"costable generator (non-injective summands): dims "
               f"{ctx.costable_gen.dims_tuple()}")
    report.say(f"class generator U: dims {ctx.U.dims_tuple()}")
    report.say(f"rigidity: Ext^1(M_gen, M_gen) = {ext1_dim(ctx.M_gen, ctx.M_gen)}")
    report.put("mode", ctx.mode)
    report.put("M_gen", project.m_gen_names)
    report.put("M_gen_dims", list(ctx.M_gen.dims_tuple()))
    report.put("mho_M_gen_dims", list(ctx.mho_M_gen.dims_tuple()))
    report.put("costable_M_gen_dims", list(ctx.costable_gen.dims_tuple()))
    report.put("U_dims", list(ctx.U.dims_tuple()))
    return EXIT_OK


def cmd_hom(args, report: Report) -> int:
    project = load_project(args.project)
    x, y = project.module(args.x), project.module(args.y)
    basis = hom_basis(x, y)
    report.say(f"dim Hom({args.x}, {args.y}) = {len(basis)}")
    report.put("dim", len(basis))
    report.put(
        "basis",
        [f.to_dict(args.x, args.y)["comps"] for f in basis],
    )
    return EXIT_OK


def cmd_ext(args, report: Report) -> int:
    project = load_project(args.project)
    x, y = project.module(args.x), project.module(args.y)
    d = ext1_dim(x, y)
    report.say(f"dim Ext^1({args.x}, {args.y}) = {d}")
    report.put("dim", d)
    return EXIT_OK


def cmd_weq(args, report: Report) -> int:
    project = load_project(args.project)
    ctx = project.context()
    f = load_morphism(project, args.morphism)
    value = is_weak_equivalence(ctx, f)
    report.say("true" if value else "false")
    report.put("weak_equivalence", value)
    return _bool_exit(value)


def cmd_fib(args, report: Report) -> int:
    project = load_project(args.project)
    ctx = project.context()
    f = load_morphism(project, args.morphism)
    value = is_fibration(ctx, f)
    report.say("true" if value else "false")
    report.put("fibration", value)
    return _bool_exit(value)


def cmd_cofibrant(args, report: Report) -> int:
    project = load_project(args.project)
    ctx = project.context()
    value = is_cofibrant(ctx, project.module(args.x))
    report.say("true" if value else "false")
    report.put("cofibrant", value)
    return _bool_exit(value)


def cmd_replace(args, report: Report) -> int:
    project = load_project(args.project)
    ctx = project.context()
    rep = cofibrant_replacement(ctx, project.module(args.x))
    report.say(f"replacement of {args.x}: dims {rep.a.dims_tuple()}")
    report.say(
        f"witness: 0 -> {rep.witness.sub.dims_tuple()} -> "
        f"{rep.witness.middle.dims_tuple()} -> {rep.a.dims_tuple()} -> 0"
    )
    report.say("replacement map verified: trivial fibration, epi")
    report.put("replacement_dims", list(rep.a.dims_tuple()))
    report.put("witness_sub_dims", list(rep.witness.sub.dims_tuple()))
    report.put("witness_middle_dims", list(rep.witness.middle.dims_tuple()))
    return EXIT_OK


def _factor_common(args, report: Report, which: int) -> int:
    project = load_project(args.project)
    ctx = project.context()
    f = load_morphism(project, args.morphism)
    fac = factorize1(ctx, f) if which == 1 else factorize2(ctx, f)
    report.say(f"flavor: {fac.flavor}")
    report.say(f"middle object dims {fac.left.target.dims_tuple()}")
    report.say("composite and class predicates verified")
    report.put("flavor", fac.flavor)
    report.put("mid_dims", list(fac.left.target.dims_tuple()))
    return EXIT_OK


def cmd_factor1(args, report: Report) -> int:
    return _factor_common(args, report, 1)


def cmd_factor2(args, report: Report) -> int:
    return _factor_common(args, report, 2)


def cmd_homotopic(args, report: Report) -> int:
    project = load_project(args.project)
    ctx = project.context()
    f = load_morphism(project, args.f)
    g = load_morphism(project, args.g)
    value = are_homotopic(ctx, f, g)
    report.say("true" if value else "false")
    report.put("homotopic", value)
    return _bool_exit(value)


def cmd_ho_hom(args, report: Report) -> int:
    project = load_project(args.project)
    ctx = project.context()
    space = ho_hom(ctx, project.module(args.x), project.module(args.y))
    report.say(f"dim Ho({args.x}, {args.y}) = {space.dim}")
    report.put("dim", space.dim)
    return EXIT_OK


def cmd_dl_verify(args, report: Report) -> int:
    project = load_project(args.project)
    ctx = project.context()
    if args.all_pairs:
        named = sorted(project.modules.items())
        reports = dl_verify_all(ctx, named)
    else:
        if not (args.x and args.y):
            raise InputError("dl-verify needs X and Y, or --all-pairs")
        reports = [
            dl_verify(ctx, project.module(args.x), project.module(args.y),
                      names=(args.x, args.y))
        ]
    ok = all(r.passed for r in reports)
    for r in reports:
        report.say(r.line())
    report.say(f"overall: {'pass' if ok else 'FAIL'}")
    report.put("pairs", [
        {"pair": list(r.pair), "dim_ho": r.dim_ho, "dim_mod": r.dim_mod,
         "well_defined": r.well_defined, "in_mod_span": r.in_mod_span,
         "injective": r.injective, "composition_ok": r.composition_ok,
         "pass": r.passed, "checksum": r.checksum}
        for r in reports
    ])
    report.put("pass", ok)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_axioms(args, report: Report) -> int:
    project = load_project(args.project)
    ctx = project.context()
    seed = args.seed if args.seed is not None else project.seed
    samples = args.samples if args.samples is not None else project.samples
    objects = sorted(project.modules.items())
    if args.check:
        run = run_check(ctx, args.check, seed, samples, objects)
        report.say(run.to_text())
        ok = run.passed
        report.put("checks", [{"name": run.check_name, "violations": len(run.violations)}])
    else:
        suite = run_all(ctx, seed, samples, objects)
        report.say(suite.to_text())
        ok = suite.passed
        report.put("checks", [
            {"name": r.check_name, "violations": len(r.violations)} for r in suite.runs
        ])
        report.put("skipped", suite.skipped)
    report.put("seed", seed)
    report.put("samples", samples)
    report.put("pass", ok)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_fixtures(args, report: Report) -> int:
    if args.action != "emit":
        raise InputError("fixtures supports: emit <tag> <dir>")
    root = emit_fixture(args.tag, args.dir)
    report.say(f"fixture {args.tag} written to {root}")
    report.put("tag", args.tag)
    report.put("dir", str(root))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobcat",
        description="homotopical structures on quiver-representation categories",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_project(p):
        p.add_argument("--project", required=True, help="project directory")
        return p

    with_project(sub.add_parser("validate", help="build and validate the rigid context"))

    p = with_project(sub.add_parser("hom", help="hom-space dimension and basis"))
    p.add_argument("x")
    p.add_argument("y")

    p = with_project(sub.add_parser("ext", help="Ext^1 dimension"))
    p.add_argument("x")
    p.add_argument("y")

    p = with_project(sub.add_parser("weq", help="weak-equivalence predicate"))
    p.add_argument("--morphism", required=True)

    p = with_project(sub.add_parser("fib", help="fibration predicate"))
    p.add_argument("--morphism", required=True)

    p = with_project(sub.add_parser("cofibrant", help="cofibrancy predicate"))
    p.add_argument("x")

    p = with_project(sub.add_parser("replace", help="cofibrant replacement"))
    p.add_argument("x")

    p = with_project(sub.add_parser("factor1", help="weq-then-fibration factorization"))
    p.add_argument("--morphism", required=True)

    p = with_project(sub.add_parser("factor2", help="cofibration-then-trivial-fibration"))
    p.add_argument("--morphism", required=True)

    p = with_project(sub.add_parser("homotopic", help="homotopy relation"))
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = with_project(sub.add_parser("ho-hom", help="homotopy-category hom dimension"))
    p.add_argument("x")
    p.add_argument("y")

    p = with_project(sub.add_parser("dl-verify", help="two-sided equivalence check"))
    p.add_argument("x", nargs="?")
    p.add_argument("y", nargs="?")
    p.add_argument("--all-pairs", action="store_true")

    p = with_project(sub.add_parser("axioms", help="run the axiom battery"))
    p.add_argument("--check", choices=registered_checks())
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("fixtures", help="emit builtin fixture projects")
    p.add_argument("action", choices=["emit"])
    p.add_argument("tag", choices=list(FIXTURE_TAGS))
    p.add_argument("dir")

    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "hom": cmd_hom,
    "ext": cmd_ext,
    "weq": cmd_weq,
    "fib": cmd_fib,
    "cofibrant": cmd_cofibrant,
    "replace": cmd_replace,
    "factor1": cmd_factor1,
    "factor2": cmd_factor2,
    "homotopic": cmd_homotopic,
    "ho-hom": cmd_ho_hom,
    "dl-verify": cmd_dl_verify,
    "axioms": cmd_axioms,
    "fixtures": cmd_fixtures,
}


def dispatch(argv: List[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    report = Report(getattr(args, "json", False))
    try:
        code = _COMMANDS[args.command](args, report)
    except HypothesisError as e:
        report.say("context rejected:")
        for v in e.violations:
            report.say(f"  {v}")
        report.put("error", "hypothesis")
        report.put("violations", e.violations)
        report.emit()
        return EXIT_INPUT
    except (InputError, FileNotFoundError, KeyError) as e:
        report.say(f"error: {e}")
        report.put("error", str(e))
        report.emit()
        return EXIT_INPUT
    report.put("exit", code)
    report.emit()
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
