"""Acceptance battery: each criterion runs at its stated tolerance and
prints one pass/fail line (run with -s to see them live).

All tolerances are exact (the arithmetic is exact); the only numeric bounds
are the runtime budgets stated alongside each criterion.
"""
import itertools
import json
import random
import time

import pytest

from frobcat.cli import dispatch
from frobcat.fixtures import build_fixture, emit_fixture
from frobcat.algebra_repr import (
    Morphism,
    cokernel,
    direct_sum,
    enumerate_submodules,
    hom_basis,
    is_epi,
    is_mono,
    preprojective,
)
from frobcat.exact_linalg import prime_field, rational_field
from frobcat.homological import ext1_dim, in_add
from frobcat.rigid_model import (
    build_context,
    cofibrant_replacement,
    factorize1,
    factorize2,
    fibration_via_cone,
    is_cofibrant,
    is_fibration,
    is_trivial_fibration,
    is_weak_equivalence,
)
from frobcat.localization import dl_verify_all, ho_hom, stable_endo
from frobcat.axiom_suite import default_objects, run_all, weq_via_cones
from helpers import random_morphism


def _report(n, label, elapsed, budget):
    print(f"criterion {n}: PASS ({elapsed:.2f}s / budget {budget}s) {label}")


@pytest.fixture(scope="module")
def pa2_project(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept") / "pa2"
    emit_fixture("pa2", str(root))
    return str(root)


def test_criterion_1_equivalence_on_pa2(pa2_project, capsys):
    start = time.perf_counter()
    code = dispatch(["--json", "dl-verify", "--all-pairs", "--project", pa2_project])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    pairs = doc["pairs"]
    assert len(pairs) == 16
    for entry in pairs:
        assert entry["pass"]
        assert entry["dim_ho"] == entry["dim_mod"]
        expected = 1 if entry["pair"] == ["S1", "S1"] else 0
        assert entry["dim_ho"] == expected
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "dl-verify all 16 pairs, unique nonzero (S1,S1)=1", elapsed, 1)


def test_criterion_2_replacement_invariant(capsys):
    start = time.perf_counter()
    for tag in ("pa2", "pa3"):
        alg, mods, project = build_fixture(tag)
        ctx = build_context(alg, [mods[n] for n in project["M_gen"]], project["mode"])
        for x in mods.values():
            rep = cofibrant_replacement(ctx, x)
            assert is_fibration(ctx, rep.phi)
            assert is_weak_equivalence(ctx, rep.phi)
            assert is_epi(rep.phi)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(2, "replacement maps are epi trivial fibrations on pa2+pa3", elapsed, 1)


def test_criterion_3_axiom_battery(pa2_project, capsys):
    start = time.perf_counter()
    code = dispatch(["--json", "axioms", "--seed", "42", "--samples", "200",
                     "--project", pa2_project])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["seed"] == 42 and doc["samples"] == 200
    names = {c["name"] for c in doc["checks"]}
    assert names == {
        "two_out_of_three", "retract_stability", "pullback_fibration",
        "factorization1", "factorization2", "lifting_I_eq_JW", "sq_J_in_W",
        "weq_cone_characterization", "fib_cone_characterization", "copr_eq_pr",
        "mho_rigid", "pr_extension_closure", "homotopy_G_agreement",
        "wic_deflation",
    }
    assert all(c["violations"] == 0 for c in doc["checks"])
    assert elapsed < 30.0
    with capsys.disabled():
        _report(3, "axioms seed=42 samples=200, 14 checks, zero violations", elapsed, 30)


def test_criterion_4_degenerate_contexts(capsys):
    start = time.perf_counter()
    for tag in ("semi", "pa2-deg"):
        alg, mods, project = build_fixture(tag)
        ctx = build_context(alg, [mods[n] for n in project["M_gen"]], project["mode"])
        assert stable_endo(ctx).dim == 0
        objs = list(mods.values())
        for x, y in itertools.product(objs, repeat=2):
            for f in hom_basis(x, y):
                assert is_weak_equivalence(ctx, f)
            assert is_weak_equivalence(ctx, Morphism.zero(x, y))
            assert ho_hom(ctx, x, y).dim == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(4, "semi and pa2-deg: endos vanish, everything is a weq", elapsed, 1)


def test_criterion_5_characterization_crosschecks(capsys):
    start = time.perf_counter()
    alg, mods, project = build_fixture("pa2")
    ctx = build_context(alg, [mods[n] for n in project["M_gen"]], project["mode"])
    objs = list(mods.values())
    rng = random.Random(42)
    disagreements = 0
    for k in range(500):
        x, y = rng.choice(objs), rng.choice(objs)
        f = random_morphism(ctx, x, y, seed=1000 + k)
        if is_fibration(ctx, f) != fibration_via_cone(ctx, f):
            disagreements += 1
        if is_weak_equivalence(ctx, f) != weq_via_cones(ctx, f):
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 10.0
    with capsys.disabled():
        _report(5, "500 morphisms: both cone characterizations agree", elapsed, 10)


def test_criterion_6_factorization_contracts(capsys):
    start = time.perf_counter()
    alg, mods, project = build_fixture("pa2")
    ctx = build_context(alg, [mods[n] for n in project["M_gen"]], project["mode"])
    objs = list(mods.values())
    rng = random.Random(42)
    for k in range(100):
        x, y = rng.choice(objs), rng.choice(objs)
        f = random_morphism(ctx, x, y, seed=2000 + k)
        fac = factorize1(ctx, f)
        assert (fac.right @ fac.left) == f
        assert is_fibration(ctx, fac.right)
        assert is_weak_equivalence(ctx, fac.left)
    for x, y in itertools.product(objs, repeat=2):
        if not is_cofibrant(ctx, x):
            continue
        for f in hom_basis(x, y):
            fac = factorize2(ctx, f)
            assert (fac.right @ fac.left) == f
            assert is_trivial_fibration(ctx, fac.right)
            assert is_mono(fac.left)
            cok, _ = cokernel(fac.left)
            assert is_cofibrant(ctx, cok)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report(6, "factorization contracts on 100 random + all hom-basis maps",
                elapsed, 10)


def test_criterion_7_pa3_rigidity_search(capsys):
    start = time.perf_counter()
    alg, mods, project = build_fixture("pa3")
    projs = [alg.projective(v) for v in alg.vertices]
    candidates = {}
    for p in projs:
        for sub, inc in enumerate_submodules(p):
            quotient, _ = cokernel(inc)
            if 0 < quotient.total_dim <= 3:
                candidates[quotient.key] = quotient
    assert candidates, "the search space must be nonempty"
    rigid_found = 0
    for key in sorted(candidates):
        n = candidates[key]
        lam_plus_n, _, _ = direct_sum(projs + [n])
        if ext1_dim(lam_plus_n, lam_plus_n) != 0:
            continue
        rigid_found += 1
        ctx = build_context(alg, projs + [n], "frobenius")
        named = (
            [(f"S{v}", alg.simple(v)) for v in alg.vertices]
            + [(f"P{v}", p) for v, p in zip(alg.vertices, projs)]
            + [("N", n)]
        )
        reports = dl_verify_all(ctx, named)
        assert all(r.passed for r in reports), [r.line() for r in reports if not r.passed]
    elapsed = time.perf_counter() - start
    assert rigid_found > 0
    assert elapsed < 120.0
    with capsys.disabled():
        _report(7, f"pa3 search: {rigid_found} rigid candidates, all pairs verified",
                elapsed, 120)


def test_criterion_8_rational_battery_on_a3(capsys):
    start = time.perf_counter()
    alg = preprojective(3, rational_field())
    ctx = build_context(alg, alg.projectives(), "frobenius")
    report = run_all(ctx, 42, 5, default_objects(ctx))
    elapsed = time.perf_counter() - start
    assert report.passed, report.to_text()
    assert len(report.runs) == 14 and not report.skipped
    assert elapsed < 60.0
    with capsys.disabled():
        _report(8, "axioms on preprojective A3/Q, seed=42 samples=5, 14 checks",
                elapsed, 60)


def _greedy_maximal_rigid(alg):
    """The projectives, completed greedily by the nonzero submodules and
    quotients of projectives, in (total_dim, key) order: each one not yet in
    add(gen) is kept when the sum stays rigid."""
    gen = [alg.projective(v) for v in alg.vertices]
    candidates = {}
    for p in list(gen):
        for sub, inc in enumerate_submodules(p):
            for m in (sub, cokernel(inc)[0]):
                if not m.is_zero():
                    candidates.setdefault(m.key, m)
    for key in sorted(candidates, key=lambda k: (candidates[k].total_dim, k)):
        m = candidates[key]
        if in_add(m, direct_sum(gen)[0]):
            continue
        trial, _, _ = direct_sum(gen + [m])
        if ext1_dim(trial, trial) == 0:
            gen.append(m)
    return gen


def test_criterion_9_maximal_rigid_battery_on_a4(capsys):
    start = time.perf_counter()
    alg = preprojective(4, prime_field(2))
    gen = _greedy_maximal_rigid(alg)
    assert len(gen) == 4 * 5 // 2  # n(n+1)/2 summands: maximal rigid
    ctx = build_context(alg, gen, "frobenius")
    assert ctx.U.dims_tuple() == (8, 11, 15, 9)
    named = ([(f"S{v}", alg.simple(v)) for v in alg.vertices]
             + [(f"P{v}", alg.projective(v)) for v in alg.vertices])
    report = run_all(ctx, 42, 3, named)
    elapsed = time.perf_counter() - start
    assert report.passed, report.to_text()
    assert len(report.runs) == 14 and not report.skipped
    assert elapsed < 60.0
    with capsys.disabled():
        _report(9, "axioms on a maximal rigid generator of preprojective A4/F_2, "
                "seed=42 samples=3, 14 checks", elapsed, 60)
