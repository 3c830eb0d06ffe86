"""Behaviour oracle: outputs recorded in ``golden_outputs.json`` must not move.

The recorded values are hom-basis digests for every ordered pair of the pa2
and pa3 fixture modules, of the A2/Q context's sample universe, of the
default objects of preprojective A3/Q with generator P1+P2+P3+S1 (the
``a3q-dlverify`` benchmark's inputs) and of the cofibrant replacements of the
simples and projectives of preprojective A4/F_2 with generator P1..P4 (the
``a4f2-battery`` context, where the widest hom spaces pass 63 columns), the
``dl-verify --all-pairs --json`` checksums of both fixtures, digests of
seeded ``random_morphism`` draws over all pa2 pairs, and the canonical
homotopy-class forms of the pa2 replacement maps. Hom-basis order feeds the
seeded sampling, so any change to it shows here.

Over Q, the preprojective A2 context with generator P1+P2+S1 pins the
rational path: ``dl_verify_all`` checksums over the sample universe
(simples, projectives and their two-fold sums), the canonical forms of the
replacement maps' classes, and digests of those of seeded random morphisms
between objects with a nonzero localized hom-set.

The ``aus2`` fixture pins exact mode on an algebra that is not
self-injective: ``dl_verify_all`` checksums over its simples, projectives and
injectives (``default_objects``), digests of seeded ``random_morphism`` draws
between them, and the canonical forms of their replacement maps' classes.

The ``cli`` key pins every subcommand on the pa2 fixture: the SHA-256 of
the exit code and stdout of each invocation in ``CLI_RUNS``, as text and
as ``--json``.

The ``violations`` key pins the battery's violation text: the SHA-256 of
``to_text()`` for ``run_all`` at seed 42 with 20 samples on the pa2 and aus2
fixtures (aus2 reports only that its U is not rigid: Ext^1(U, U) = 1), for
each corrupted-predicate run of
``test_checks_are_falsifiable``, and for ``mho_rigid`` on a context whose
cosyzygy class is not rigid.

The ``approximations`` key pins the approximations on the pa2 and aus2
fixtures and the A2/Q context, over each one's ``sample_universe``: the
SHA-256 of the ``to_dict`` of every ``right_M_approximation`` and
``mho_approximation``, source included, and that of the ``in_copr_mho``
verdicts.

The ``approximations_pa3`` key pins the same maps over pa3's
``sample_universe``, the one F_2 context, which the ``approximations`` key
does not reach.

The ``covers`` key pins the SHA-256 of the ``to_dict`` of every
``projective_cover`` and ``injective_envelope`` map, with the cover's
source and the envelope's target, over the sample universes of pa2, pa3,
aus2 and the A2/Q context.

The ``verdicts`` key pins the three verdict stores of ``run_all`` at seed 42
with 20 samples over the sorted modules of the pa2, pa2-deg and aus2
fixtures: for each of ``fibration``, ``weq`` and ``rlp``, the entry count,
the True count and the SHA-256 of the sorted (key, verdict) items. A
verdict that flips on both sides of a check leaves the report text alone
but shows here.

Rewrite the file only in a change that means to alter these outputs:

    PYTHONPATH=src python tests/test_golden_outputs.py --record
"""
import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from frobcat.algebra_repr import direct_sum, hom_basis, preprojective
from frobcat.axiom_suite import (default_objects, in_copr_mho, run_all, run_check,
                                 sample_universe)
from frobcat.cli import dispatch
from frobcat.exact_linalg import prime_field, rational_field
from frobcat.fixtures import build_fixture, emit_fixture
from frobcat.homological import injective_envelope, projective_cover
from frobcat.localization import dl_verify_all, ho_class_of
from frobcat.rigid_model import build_context, cofibrant_replacement, right_M_approximation
from helpers import mho_approximation, random_morphism
from test_axiom_suite import _corruptions

GOLDEN = Path(__file__).resolve().with_name("golden_outputs.json")
SEEDS = range(5)
HOM_BASIS_TAGS = ("pa2", "pa3", "a2q", "a3q", "a4f2")


def _digest(morphisms) -> str:
    h = hashlib.sha256()
    for f in morphisms:
        for v in f.source.algebra.vertices:
            h.update(",".join(f.comps[v].format_entries()).encode())
            h.update(b";")
        h.update(b"|")
    return h.hexdigest()[:16]


def _pairs(modules):
    return [(xn, x, yn, y) for xn, x in sorted(modules.items())
            for yn, y in sorted(modules.items())]


def hom_basis_digests(tag: str) -> dict:
    """{pair: digest of its hom basis} over a fixture's modules, a rational
    context's objects ("a2q", "a3q") or the A4/F_2 replacements ("a4f2")."""
    if tag == "a2q":
        named = _a2q_context()[1]
    elif tag == "a3q":
        named = _a3q_objects()
    elif tag == "a4f2":
        named = _a4f2_replacements()
    else:
        named = sorted(build_fixture(tag)[1].items())
    return {f"{xn}->{yn}": _digest(hom_basis(x, y)) for xn, x in named for yn, y in named}


def dl_verify_checksums(tag: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = emit_fixture(tag, str(Path(tmp) / tag))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dispatch(["--json", "dl-verify", "--all-pairs", "--project", str(root)])
    assert code == 0
    return {"->".join(p["pair"]): p["checksum"] for p in json.loads(out.getvalue())["pairs"]}


def _fixture_context(tag: str):
    alg, modules, project = build_fixture(tag)
    ctx = build_context(alg, [modules[n] for n in project["M_gen"]], project["mode"])
    return ctx, modules


def _pa2_context():
    return _fixture_context("pa2")


def random_morphism_digests() -> dict:
    ctx, modules = _pa2_context()
    return {
        f"{xn}->{yn}": [_digest([random_morphism(ctx, x, y, seed)]) for seed in SEEDS]
        for xn, x, yn, y in _pairs(modules)
    }


def _class_form(ctx, f) -> list:
    return [ctx.alg.field.format(c) for c in ho_class_of(ctx, f).canonical]


def _class_digest(ctx, f) -> str:
    return hashlib.sha256(",".join(_class_form(ctx, f)).encode()).hexdigest()[:16]


def ho_class_canonicals() -> dict:
    ctx, modules = _pa2_context()
    return {name: _class_form(ctx, cofibrant_replacement(ctx, x).phi)
            for name, x in sorted(modules.items())}


def _a2q_context():
    alg = preprojective(2, rational_field())
    ctx = build_context(alg, [alg.projective("1"), alg.projective("2"), alg.simple("1")],
                        "frobenius")
    return ctx, sample_universe(ctx, None)


def _a3q_objects():
    alg = preprojective(3, rational_field())
    gen = alg.projectives() + [alg.simple("1")]
    return default_objects(build_context(alg, gen, "frobenius"))


def _a4f2_replacements():
    """The replacement objects A of the simples and projectives of
    preprojective A4/F_2 with generator P1..P4: the pairs (P3, P3), (P3, P4),
    (P4, P3) and (P4, P4) have hom width 68 to 104, two 63-bit words."""
    alg = preprojective(4, prime_field(2))
    ctx = build_context(alg, alg.projectives(), "frobenius")
    named = [(f"{prefix}{v}", m) for prefix, mods in (("S", alg.simples()),
                                                      ("P", alg.projectives()))
             for v, m in zip(alg.vertices, mods)]
    return [(name, cofibrant_replacement(ctx, x).a) for name, x in named]


def a2q_outputs() -> dict:
    ctx, universe = _a2q_context()
    reports = dl_verify_all(ctx, universe)
    modules = dict(universe)
    nonzero = [r.pair for r in reports if r.dim_ho]
    return {
        "dl_verify": {"->".join(r.pair): r.checksum for r in reports},
        "ho_class_of_phi": {name: _class_form(ctx, cofibrant_replacement(ctx, x).phi)
                            for name, x in universe},
        "ho_class_of_random": {
            f"{xn}->{yn}": [_class_digest(ctx, random_morphism(ctx, modules[xn], modules[yn], seed))
                            for seed in SEEDS]
            for xn, yn in nonzero
        },
    }


def aus2_outputs() -> dict:
    ctx, _ = _fixture_context("aus2")
    named = default_objects(ctx)
    return {
        "dl_verify": {"->".join(r.pair): r.checksum for r in dl_verify_all(ctx, named)},
        "random_morphism": {
            f"{xn}->{yn}": [_digest([random_morphism(ctx, x, y, seed)]) for seed in SEEDS]
            for xn, x in named for yn, y in named
        },
        "ho_class_of_phi": {name: _class_form(ctx, cofibrant_replacement(ctx, x).phi)
                            for name, x in named},
    }


# the morphism files the CLI runs read, written into the emitted pa2 project
CLI_MORPHISMS = {
    "to_S2.json": {"source": "0", "target": "S2", "comps": {}},
    "top.json": {"source": "P2", "target": "S2", "comps": {"2": ["1"]}},
    "id_S2.json": {"source": "S2", "target": "S2", "comps": {"2": ["1"]}},
    "zero_S2.json": {"source": "S2", "target": "S2", "comps": {}},
}
CLI_RUNS = [
    ["validate"],
    ["hom", "P1", "P2"],
    ["ext", "S2", "S1"],
    ["weq", "--morphism", "{root}/to_S2.json"],
    ["fib", "--morphism", "{root}/to_S2.json"],
    ["cofibrant", "S2"],
    ["replace", "S1"],
    ["factor1", "--morphism", "{root}/top.json"],
    ["factor2", "--morphism", "{root}/top.json"],
    ["homotopic", "--f", "{root}/id_S2.json", "--g", "{root}/zero_S2.json"],
    ["ho-hom", "S1", "S1"],
    ["dl-verify", "S1", "S1"],
    ["dl-verify", "--all-pairs"],
    ["dl-verify"],
    ["axioms", "--check", "wic_deflation", "--samples", "5"],
    ["hom", "S1", "S9"],
]


def cli_digests() -> dict:
    """{invocation: SHA-256 of [exit code, stdout]}, with the project
    directory written as {root} in the fixtures run's output."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = emit_fixture("pa2", str(Path(tmp) / "pa2"))
        for name, doc in CLI_MORPHISMS.items():
            (root / name).write_text(json.dumps(doc))
        runs = [argv + ["--project", "{root}"] for argv in CLI_RUNS]
        runs.append(["fixtures", "emit", "pa2", "{root}/again"])
        for argv in runs:
            for flags in ([], ["--json"]):
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    code = dispatch(flags + [a.format(root=root) for a in argv])
                stdout = text.getvalue().replace(str(root), "{root}")
                out[" ".join(flags + argv)] = hashlib.sha256(
                    json.dumps([code, stdout]).encode()).hexdigest()
    return out


def _text_digest(run) -> str:
    return hashlib.sha256(run.to_text().encode()).hexdigest()


def violation_digests() -> dict:
    """{run: SHA-256 of its report text}; the falsifiability runs use the
    arguments of test_checks_are_falsifiable and test_mho_rigid_is_falsifiable."""
    battery = {}
    for tag in ("pa2", "aus2"):
        ctx, modules = _fixture_context(tag)
        battery[tag] = _text_digest(run_all(ctx, 42, 20, sorted(modules.items())))
    ctx, modules = _pa2_context()
    objects = sorted(modules.items())
    corrupted = {name: _text_digest(run_check(ctx, name, 42, 40, objects, predicates=pred))
                 for name, pred in _corruptions().items()}
    broken = copy.copy(ctx)
    broken.U, _, _ = direct_sum([modules["S1"], modules["S2"]])
    return {
        "run_all": battery,
        "corrupted": corrupted,
        "mho_rigid_not_rigid": _text_digest(run_check(broken, "mho_rigid", 42, 1, objects)),
    }


def _json_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _sample_contexts(tags) -> dict:
    """{tag: (context, its sample universe)} for fixture tags and "a2q"."""
    out = {}
    for tag in tags:
        if tag == "a2q":
            out[tag] = _a2q_context()
        else:
            ctx, modules = _fixture_context(tag)
            out[tag] = ctx, sample_universe(ctx, sorted(modules.items()))
    return out


def _approximation_maps_digest(ctx, universe) -> str:
    return _json_digest([[name, f.source.to_dict(), f.to_dict("approximation", name)]
                         for name, x in universe
                         for f in (right_M_approximation(ctx, x), mho_approximation(ctx, x))])


def approximation_digests() -> dict:
    """{context: SHA-256 of the approximations' to_dict, and of the
    in_copr_mho verdicts, over its sample universe}."""
    return {tag: {"maps": _approximation_maps_digest(ctx, universe),
                  "in_copr_mho": _json_digest([[name, in_copr_mho(ctx, x)]
                                               for name, x in universe])}
            for tag, (ctx, universe) in _sample_contexts(("pa2", "aus2", "a2q")).items()}


def pa3_approximation_digest() -> dict:
    """{"maps": SHA-256 of the approximations' to_dict over pa3's sample universe}."""
    ctx, universe = _sample_contexts(("pa3",))["pa3"]
    return {"maps": _approximation_maps_digest(ctx, universe)}


def cover_digests() -> dict:
    """{context: SHA-256 of the projective cover and injective envelope maps'
    to_dict, with the cover's source and the envelope's target, over its
    sample universe}."""
    out = {}
    for tag, (_, universe) in _sample_contexts(("pa2", "pa3", "aus2", "a2q")).items():
        maps = []
        for name, x in universe:
            p, cover = projective_cover(x)
            i, envelope = injective_envelope(x)
            maps.append([name, p.to_dict(), cover.to_dict("cover", name),
                         i.to_dict(), envelope.to_dict(name, "envelope")])
        out[tag] = _json_digest(maps)
    return out


def verdict_digests() -> dict:
    """{fixture: {store: [entries, True count, SHA-256 of the sorted items]}}
    after the battery that ``violation_digests`` runs."""
    out = {}
    for tag in ("pa2", "pa2-deg", "aus2"):
        ctx, modules = _fixture_context(tag)
        run_all(ctx, 42, 20, sorted(modules.items()))
        out[tag] = {}
        for store in ("fibration", "weq", "rlp"):
            items = sorted(ctx._caches[store].items())
            out[tag][store] = [len(items), sum(v for _, v in items),
                               hashlib.sha256(repr(items).encode()).hexdigest()]
    return out


def compute() -> dict:
    return {
        "hom_basis": {tag: hom_basis_digests(tag) for tag in HOM_BASIS_TAGS},
        "dl_verify": {tag: dl_verify_checksums(tag) for tag in ("pa2", "pa3")},
        "random_morphism": random_morphism_digests(),
        "ho_class_of_phi": ho_class_canonicals(),
        "a2q": a2q_outputs(),
        "aus2": aus2_outputs(),
        "cli": cli_digests(),
        "violations": violation_digests(),
        "approximations": approximation_digests(),
        "approximations_pa3": pa3_approximation_digest(),
        "covers": cover_digests(),
        "verdicts": verdict_digests(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("tag", HOM_BASIS_TAGS)
def test_hom_bases_unchanged(golden, tag):
    assert hom_basis_digests(tag) == golden["hom_basis"][tag]


@pytest.mark.parametrize("tag", ["pa2", "pa3"])
def test_dl_verify_checksums_unchanged(golden, tag):
    assert dl_verify_checksums(tag) == golden["dl_verify"][tag]


def test_seeded_random_morphisms_unchanged(golden):
    assert random_morphism_digests() == golden["random_morphism"]


def test_replacement_classes_unchanged(golden):
    assert ho_class_canonicals() == golden["ho_class_of_phi"]


def test_rational_context_unchanged(golden):
    assert a2q_outputs() == golden["a2q"]


def test_exact_mode_fixture_unchanged(golden):
    assert aus2_outputs() == golden["aus2"]


def test_cli_outputs_unchanged(golden):
    assert cli_digests() == golden["cli"]


def test_violation_text_unchanged(golden):
    assert violation_digests() == golden["violations"]


def test_approximations_unchanged(golden):
    assert approximation_digests() == golden["approximations"]


def test_pa3_approximations_unchanged(golden):
    assert pa3_approximation_digest() == golden["approximations_pa3"]


def test_covers_unchanged(golden):
    assert cover_digests() == golden["covers"]


def test_verdicts_unchanged(golden):
    assert verdict_digests() == golden["verdicts"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
