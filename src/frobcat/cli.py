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
from dataclasses import asdict, dataclass
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
    if "0" in files:
        raise InputError('project.json: modules: "0" names the zero module, not a file')
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
    return ProjectConfig(algebra=algebra, modules=modules, m_gen_names=m_gen,
                         mode=config.get("mode", "exact"), seed=seed, samples=samples)


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


# -- commands -------------------------------------------------------------------


def _verdict(report: Report, key: str, value: bool) -> int:
    """Report a predicate: true or false, under key; exit 0 when it holds."""
    report.say("true" if value else "false")
    report.put(key, value)
    return EXIT_OK if value else EXIT_FAIL


def cmd_validate(args, project: ProjectConfig, report: Report) -> int:
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


def cmd_hom(args, project: ProjectConfig, report: Report) -> int:
    basis = hom_basis(project.module(args.x), project.module(args.y))
    report.say(f"dim Hom({args.x}, {args.y}) = {len(basis)}")
    report.put("dim", len(basis))
    report.put("basis", [f.to_dict(args.x, args.y)["comps"] for f in basis])
    return EXIT_OK


def cmd_ext(args, project: ProjectConfig, report: Report) -> int:
    d = ext1_dim(project.module(args.x), project.module(args.y))
    report.say(f"dim Ext^1({args.x}, {args.y}) = {d}")
    report.put("dim", d)
    return EXIT_OK


def cmd_weq(args, project: ProjectConfig, report: Report) -> int:
    return _verdict(report, "weak_equivalence", is_weak_equivalence(
        project.context(), load_morphism(project, args.morphism)))


def cmd_fib(args, project: ProjectConfig, report: Report) -> int:
    return _verdict(report, "fibration", is_fibration(
        project.context(), load_morphism(project, args.morphism)))


def cmd_cofibrant(args, project: ProjectConfig, report: Report) -> int:
    return _verdict(report, "cofibrant",
                    is_cofibrant(project.context(), project.module(args.x)))


def cmd_replace(args, project: ProjectConfig, report: Report) -> int:
    rep = cofibrant_replacement(project.context(), project.module(args.x))
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


def cmd_factor(args, project: ProjectConfig, report: Report) -> int:
    """factor1 or factor2, as args.command names."""
    factorize = factorize1 if args.command == "factor1" else factorize2
    fac = factorize(project.context(), load_morphism(project, args.morphism))
    report.say(f"flavor: {fac.flavor}")
    report.say(f"middle object dims {fac.left.target.dims_tuple()}")
    report.say("composite and class predicates verified")
    report.put("flavor", fac.flavor)
    report.put("mid_dims", list(fac.left.target.dims_tuple()))
    return EXIT_OK


def cmd_homotopic(args, project: ProjectConfig, report: Report) -> int:
    return _verdict(report, "homotopic", are_homotopic(
        project.context(), load_morphism(project, args.f), load_morphism(project, args.g)))


def cmd_ho_hom(args, project: ProjectConfig, report: Report) -> int:
    space = ho_hom(project.context(), project.module(args.x), project.module(args.y))
    report.say(f"dim Ho({args.x}, {args.y}) = {space.dim}")
    report.put("dim", space.dim)
    return EXIT_OK


def cmd_dl_verify(args, project: ProjectConfig, report: Report) -> int:
    ctx = project.context()
    if args.all_pairs:
        reports = dl_verify_all(ctx, sorted(project.modules.items()))
    elif args.x and args.y:
        reports = [dl_verify(ctx, project.module(args.x), project.module(args.y),
                             names=(args.x, args.y))]
    else:
        raise InputError("dl-verify needs X and Y, or --all-pairs")
    ok = all(r.passed for r in reports)
    for r in reports:
        report.say(r.line())
    report.say(f"overall: {'pass' if ok else 'FAIL'}")
    report.put("pairs", [{**asdict(r), "pass": r.passed} for r in reports])
    report.put("pass", ok)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_axioms(args, project: ProjectConfig, report: Report) -> int:
    ctx = project.context()
    seed = args.seed if args.seed is not None else project.seed
    samples = args.samples if args.samples is not None else project.samples
    objects = sorted(project.modules.items())
    if args.check:
        result = run_check(ctx, args.check, seed, samples, objects)
        runs = [result]
    else:
        result = run_all(ctx, seed, samples, objects)
        runs = result.runs
        report.put("skipped", result.skipped)
    report.say(result.to_text())
    ok = result.passed
    report.put("checks", [{"name": r.check_name, "violations": len(r.violations)} for r in runs])
    report.put("seed", seed)
    report.put("samples", samples)
    report.put("pass", ok)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_fixtures(args, report: Report) -> int:
    root = emit_fixture(args.tag, args.dir)
    report.say(f"fixture {args.tag} written to {root}")
    report.put("tag", args.tag)
    report.put("dir", str(root))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; each subcommand's handler is its ``run`` default,
    called as run(args, report). Every subcommand but ``fixtures`` loads its
    ``--project`` first and passes it on."""
    parser = argparse.ArgumentParser(
        prog="frobcat",
        description="homotopical structures on quiver-representation categories",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *positionals):
        """A subcommand on a project: run(args, project, report)."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=lambda args, report: run(args, load_project(args.project), report))
        p.add_argument("--project", required=True, help="project directory")
        for arg in positionals:
            p.add_argument(arg)
        return p

    command("validate", cmd_validate, "build and validate the rigid context")
    command("hom", cmd_hom, "hom-space dimension and basis", "x", "y")
    command("ext", cmd_ext, "Ext^1 dimension", "x", "y")
    command("weq", cmd_weq, "weak-equivalence predicate").add_argument(
        "--morphism", required=True)
    command("fib", cmd_fib, "fibration predicate").add_argument("--morphism", required=True)
    command("cofibrant", cmd_cofibrant, "cofibrancy predicate", "x")
    command("replace", cmd_replace, "cofibrant replacement", "x")
    command("factor1", cmd_factor, "weq-then-fibration factorization").add_argument(
        "--morphism", required=True)
    command("factor2", cmd_factor, "cofibration-then-trivial-fibration").add_argument(
        "--morphism", required=True)
    p = command("homotopic", cmd_homotopic, "homotopy relation")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    command("ho-hom", cmd_ho_hom, "homotopy-category hom dimension", "x", "y")
    p = command("dl-verify", cmd_dl_verify, "two-sided equivalence check")
    p.add_argument("x", nargs="?")
    p.add_argument("y", nargs="?")
    p.add_argument("--all-pairs", action="store_true")
    p = command("axioms", cmd_axioms, "run the axiom battery")
    p.add_argument("--check", choices=registered_checks())
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("fixtures", help="emit builtin fixture projects")
    p.set_defaults(run=cmd_fixtures)
    p.add_argument("action", choices=["emit"])
    p.add_argument("tag", choices=list(FIXTURE_TAGS))
    p.add_argument("dir")
    return parser


def dispatch(argv: List[str]) -> int:
    """Run one command line. An InputError (a HypothesisError included)
    exits 2 with its report; any other exception propagates."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    report = Report(args.json)
    try:
        code = args.run(args, report)
        report.put("exit", code)
    except HypothesisError as e:
        report.say("context rejected:")
        for v in e.violations:
            report.say(f"  {v}")
        report.put("error", "hypothesis")
        report.put("violations", e.violations)
        code = EXIT_INPUT
    except InputError as e:
        report.say(f"error: {e}")
        report.put("error", str(e))
        code = EXIT_INPUT
    report.emit()
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
