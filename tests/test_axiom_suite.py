import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcat import axiom_suite
from frobcat.errors import InputError, InternalCheckError
from frobcat.exact_linalg import Matrix, RowSpan, prime_field, rational_field
from frobcat.fixtures import build_fixture
from frobcat.algebra_repr import (Morphism, cokernel, compose_basis, direct_sum, hom_basis,
                                  hom_dim, hom_matrix, kernel, preprojective, sum_module,
                                  zero_module)
from frobcat.homological import (approximation, cosyzygy, ext1_dim, ext1_dim_via_copresentation,
                                 kills_stably, projective_cover, stable_hom, through_injectives)
from frobcat.rigid_model import EXACT, RigidContext, build_context, is_weak_equivalence
from frobcat.axiom_suite import (
    CheckRun,
    PredicateSet,
    _random_hom,
    _sample_morphism,
    default_objects,
    registered_checks,
    rlp_holds,
    run_all,
    run_check,
    sample_universe,
    weq_via_cones,
)
from frobcat.localization import fraction_to_ho
from helpers import (cone_legs, draw_probe_case, random_morphism, reference_rlp_by_rank,
                     reference_tailored_lifting_elements, search_fraction_witness)

ALL_CHECKS = [
    "two_out_of_three",
    "retract_stability",
    "pullback_fibration",
    "factorization1",
    "factorization2",
    "lifting_I_eq_JW",
    "sq_J_in_W",
    "weq_cone_characterization",
    "fib_cone_characterization",
    "copr_eq_pr",
    "mho_rigid",
    "pr_extension_closure",
    "homotopy_G_agreement",
    "wic_deflation",
]


def _objects(pa2):
    alg, mods = pa2
    return sorted(mods.items())


def test_registry_is_complete():
    assert registered_checks() == ALL_CHECKS


def test_random_morphism_deterministic(pa2_ctx, pa2):
    alg, mods = pa2
    f = random_morphism(pa2_ctx, mods["P1"], mods["P2"], 99)
    g = random_morphism(pa2_ctx, mods["P1"], mods["P2"], 99)
    assert f == g
    assert random_morphism(pa2_ctx, mods["S1"], mods["S2"], 1).is_zero()  # empty hom
    h = random_morphism(pa2_ctx, mods["P1"], mods["P2"], 7)
    basis = hom_basis(mods["P1"], mods["P2"])
    assert len(basis) == 1  # any draw is a scalar multiple of the unique map
    scalars = [c for c in range(5) if basis[0].scale(c) == h]
    assert len(scalars) == 1


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_each_check_passes(pa2_ctx, pa2, name):
    run = run_check(pa2_ctx, name, 42, 15, _objects(pa2))
    assert run.passed, run.to_text()


def test_run_determinism(pa2_ctx, pa2):
    a = run_check(pa2_ctx, "two_out_of_three", 7, 25, _objects(pa2))
    b = run_check(pa2_ctx, "two_out_of_three", 7, 25, _objects(pa2))
    assert a.to_text() == b.to_text()


def test_run_all_skips_by_mode(pa2):
    alg, mods = pa2
    ctx = build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "exact")
    report = run_all(ctx, 42, 5, _objects(pa2))
    assert set(report.skipped) == {"factorization2", "fib_cone_characterization"}
    assert report.passed


def test_unknown_check_and_mode_mismatch(pa2_ctx, pa2):
    alg, mods = pa2
    with pytest.raises(InputError, match="unknown check"):
        run_check(pa2_ctx, "nonsense", 1, 1)
    ctx = build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "exact")
    with pytest.raises(InputError, match="mode"):
        run_check(ctx, "factorization2", 1, 1)


def test_empty_objects_are_rejected(pa2_ctx):
    # copr_eq_pr would pass on zero evidence, and a sampling check would draw
    # from an empty universe
    for name in ("copr_eq_pr", "two_out_of_three"):
        with pytest.raises(InputError, match="objects is empty"):
            run_check(pa2_ctx, name, 42, 5, [])
    with pytest.raises(InputError, match="objects is empty"):
        run_all(pa2_ctx, 42, 5, [])


def test_objects_from_another_algebra_are_rejected(pa2_ctx, pa3):
    _, mods3 = pa3
    with pytest.raises(InputError, match="'P3'"):
        run_check(pa2_ctx, "two_out_of_three", 1, 1, [("P3", mods3["P3"])])
    # an equal but separately built algebra is another algebra too
    other = preprojective(2, prime_field(5))
    with pytest.raises(InputError, match="'S1'"):
        run_check(pa2_ctx, "two_out_of_three", 1, 1, [("S1", other.simple("1"))])


def test_rlp_exactness(pa2_ctx, pa2):
    alg, mods = pa2
    from frobcat.algebra_repr import zero_module
    z = zero_module(alg)
    ident = Morphism.identity(mods["S1"])
    assert rlp_holds(pa2_ctx, Morphism.zero(z, mods["S1"]), ident)
    # 0 -> S1 against 0 -> S1: lifting id_{S1} is impossible through the zero map
    assert not rlp_holds(
        pa2_ctx, Morphism.zero(z, mods["S1"]), Morphism.zero(z, mods["S1"])
    )


def _reference_rlp_holds(ctx, g, f):
    """The membership form that the rank form of rlp_holds replaced, kept as
    its reference: every square (a, b), recombined from a kernel vector of
    (a, b) -> f∘a - b∘g, must lie in the span of the lifts' images (l∘g, f∘l)."""
    field = ctx.alg.field
    a_dim = sum(f.source.dims[v] * g.source.dims[v] for v in ctx.alg.vertices)
    b_dim = sum(f.target.dims[v] * g.target.dims[v] for v in ctx.alg.vertices)
    lifts = hom_basis(g.target, f.source)
    phi_span = RowSpan(field, a_dim + b_dim)
    for l in lifts:
        phi_span.add(np.concatenate([(l @ g).vec(), (f @ l).vec()]))
    homs_a = hom_basis(g.source, f.source)
    homs_b = hom_basis(g.target, f.target)
    n = len(homs_a) + len(homs_b)
    if n == 0:
        return True
    width = sum(f.target.dims[v] * g.source.dims[v] for v in ctx.alg.vertices)
    rows = []
    for a in homs_a:
        rows.append((f @ a).vec())
    for b in homs_b:
        rows.append(-((b @ g).vec()))
    system = Matrix(field, np.vstack(rows).T) if width else Matrix.zeros(field, 0, n)
    bases = Matrix.block_diag(field, [hom_matrix(g.source, f.source),
                                      hom_matrix(g.target, f.target)])
    squares = field.matmul(system.kernel().data.T, bases.data)
    return all(phi_span.contains(v) for v in squares)


def _lifting_verdicts(monkeypatch, ctx, objects, samples):
    """(rank form, reference) on every (g, f) pair that the lifting check
    evaluates at seed 42; the check itself must pass."""
    verdicts = []

    def both(ctx_, g, f):
        got = rlp_holds(ctx_, g, f)
        verdicts.append((got, _reference_rlp_holds(ctx_, g, f)))
        return got

    with monkeypatch.context() as m:
        m.setattr(axiom_suite, "rlp_holds", both)
        run = run_check(ctx, "lifting_I_eq_JW", 42, samples, objects)
    assert run.passed, run.to_text()
    return verdicts


def _preprojective_context(n, field, generator, objects):
    alg = preprojective(n, field)
    make = {"S": alg.simple, "P": alg.projective}
    ctx = build_context(alg, [make[g[0]](g[1:]) for g in generator], "frobenius")
    return ctx, [(name, make[name[0]](name[1:])) for name in objects]


def test_rlp_rank_form_matches_the_reference(monkeypatch, pa2_ctx, pa2):
    streams = {
        "pa2": _lifting_verdicts(monkeypatch, pa2_ctx, _objects(pa2), 20),
        "A4/F2": _lifting_verdicts(monkeypatch, *_preprojective_context(
            4, prime_field(2), ["P1", "P2", "P3", "P4"], ["S1", "S2", "S3", "S4"]), 2),
        "A2/Q": _lifting_verdicts(monkeypatch, *_preprojective_context(
            2, rational_field(), ["P1", "P2", "S1"], ["S1", "S2", "P1", "P2"]), 6),
    }
    for name, verdicts in streams.items():
        assert verdicts, name
        mismatches = [k for k, (got, want) in enumerate(verdicts) if got != want]
        assert not mismatches, (name, mismatches)
    # both verdicts occur, so agreement is not agreement on a constant
    assert {got for got, _ in streams["pa2"]} == {True, False}
    assert {got for got, _ in streams["A2/Q"]} == {True, False}


def test_weq_via_cones_matches(pa2_ctx, pa2):
    from frobcat.rigid_model import is_weak_equivalence
    from frobcat.algebra_repr import zero_module
    alg, mods = pa2
    z = zero_module(alg)
    cases = [
        Morphism.identity(mods["S1"]),
        Morphism.zero(z, mods["S2"]),
        Morphism.zero(z, mods["S1"]),
        Morphism.zero(mods["S1"], z),
        hom_basis(mods["P2"], mods["S2"])[0],
    ]
    for f in cases:
        assert weq_via_cones(pa2_ctx, f) == is_weak_equivalence(pa2_ctx, f)


# -- falsifiability: corrupting a predicate must surface violations --------------


def _corruptions():
    never = lambda ctx, f: False
    odd_source = lambda ctx, f: f.source.total_dim % 2 == 1
    odd_object = lambda ctx, x: x.total_dim % 2 == 1
    from frobcat.algebra_repr import is_mono as _mono
    return {
        "two_out_of_three": PredicateSet(weq=lambda ctx, f: _mono(f)),
        "retract_stability": PredicateSet(weq=odd_source, fib=odd_source),
        "pullback_fibration": PredicateSet(fib=never, trivfib=never),
        "factorization1": PredicateSet(weq=never),
        "factorization2": PredicateSet(trivfib=never),
        "lifting_I_eq_JW": PredicateSet(trivfib=never),
        "sq_J_in_W": PredicateSet(weq=never),
        "weq_cone_characterization": PredicateSet(weq=never),
        "fib_cone_characterization": PredicateSet(fib=never),
        "copr_eq_pr": PredicateSet(cofibrant=never),
        "pr_extension_closure": PredicateSet(cofibrant=odd_object),
        "homotopy_G_agreement": PredicateSet(homotopic=lambda ctx, f, g: False),
        "wic_deflation": PredicateSet(epi=lambda ctx, f: _mono(f)),
    }


def _kills_on_the_cached_sub(ctx, h):
    """Reference: the cached stable subspace stable_from_generator(t).sub
    against every basis row of Hom(costable_gen, h.source) composed with h."""
    gen = ctx.costable_gen
    sub = ctx.stable_from_generator(h.target).sub
    return sub.contains(compose_basis(hom_matrix(gen, h.source).data, gen, h.source, left=h))


def _kills_the_representatives(ctx, h):
    """Reference: h composed with the stable representatives from the
    costable generator only, against the cached stable subspace."""
    sx, sy = ctx.stable_from_generator(h.source), ctx.stable_from_generator(h.target)
    return sy.sub.contains(compose_basis(sx.rep_rows, sx.x, h.source, left=h))


def _cone_leg_kills_u(ctx, f):
    """Reference: the span through injectives of Hom(U, Z), built inline,
    against Hom(U, f.target) composed with the cone leg g: f.target -> Z."""
    z, g, _ = cone_legs(f)
    return through_injectives(ctx.U, z).contains(
        compose_basis(hom_matrix(ctx.U, f.target).data, ctx.U, f.target, left=g))


def _assert_kills_stably_matches_the_references(ctx, objects, seed, draws=60):
    """kills_stably against the references on sampled morphisms f, on their
    cone projections and on the kernel inclusion of (f -r), r the
    approximation of f.target by injectives, which weq_via_cones tests; and
    weq_via_cones against the predicate on every draw. Returns the verdicts
    seen, from the generator and from U."""
    rng = random.Random(seed)
    universe = sample_universe(ctx, objects)
    from_gen, from_u = set(), set()
    for _ in range(draws):
        f = _sample_morphism(ctx, rng, universe)
        _, g, u = cone_legs(f)
        r = approximation(ctx.alg.injectives(), f.target)
        for h in (f, Morphism.hstack([u, g]), kernel(Morphism.hstack([f, -r]))[1]):
            verdict = kills_stably(ctx.costable_gen, h)
            assert verdict == _kills_on_the_cached_sub(ctx, h) == _kills_the_representatives(ctx, h)
            from_gen.add(verdict)
        assert weq_via_cones(ctx, f) == is_weak_equivalence(ctx, f)
        verdict = kills_stably(ctx.U, g)
        assert verdict == _cone_leg_kills_u(ctx, f)
        from_u.add(verdict)
    return from_gen, from_u


def test_kills_stably_matches_the_references(row_case):
    """On pa2-deg the stable category is zero, so everything is killed."""
    ctx, mods = row_case
    verdicts = _assert_kills_stably_matches_the_references(ctx, sorted(mods.items()), 11)
    both = {True, False}
    assert verdicts == (({True}, {True}) if ctx.costable_gen.is_zero() else (both, both))


@pytest.mark.parametrize("field", ["F2", "F5", "Q"])
def test_kills_stably_matches_the_references_in_exact_mode(small_algebras, field):
    alg = small_algebras[f"aus-kA2/{field}"]
    ctx = build_context(alg, alg.projectives() + [alg.simple("1")], "exact")
    assert _assert_kills_stably_matches_the_references(ctx, None, 11) == (
        {True, False}, {True, False})


@pytest.mark.parametrize("name", [c for c in ALL_CHECKS if c != "mho_rigid"])
def test_checks_are_falsifiable(pa2_ctx, pa2, name):
    corrupted = _corruptions()[name]
    run = run_check(pa2_ctx, name, 42, 40, _objects(pa2), predicates=corrupted)
    assert not run.passed, f"{name} did not notice a corrupted predicate"


def test_weq_check_reports_a_cone_projection_that_does_not_kill(pa2_ctx, pa2):
    """Under a predicate that calls every map a weak equivalence, the second
    kind of violation of weq_cone_characterization fires: on the draws whose
    cone projection does not kill the generator stably."""
    always = PredicateSet(weq=lambda ctx, f: True)
    run = run_check(pa2_ctx, "weq_cone_characterization", 42, 40, _objects(pa2), always)
    assert "weak equivalence whose cone projection does not kill the generator stably" in {
        v.description for v in run.violations}


def test_mho_rigid_is_falsifiable(pa2_ctx, pa2):
    # corrupt the context itself: a generator mixing S1 with its cosyzygy is
    # not rigid, so the check must flag it
    import copy
    alg, mods = pa2
    broken = copy.copy(pa2_ctx)
    broken.U, _, _ = direct_sum([mods["S1"], mods["S2"]])
    run = run_check(broken, "mho_rigid", 42, 1, _objects(pa2))
    assert not run.passed


def test_mho_rigid_reads_ext1_in_exact_mode():
    """On aus2 (exact mode, not self-injective) stable Hom(U, cosyzygy U)
    is zero, but Ext^1(U, U) is 1 by both routes: mho_rigid reports one
    violation, observing 1."""
    alg, mods, project = build_fixture("aus2")
    ctx = build_context(alg, [mods[n] for n in project["M_gen"]], project["mode"])
    assert stable_hom(ctx.U, cosyzygy(ctx.U)[0]).dim == 0
    assert ext1_dim(ctx.U, ctx.U) == ext1_dim_via_copresentation(ctx.U, ctx.U) == 1
    run = run_check(ctx, "mho_rigid", 42, 20, sorted(mods.items()))
    assert [v.observed for v in run.violations] == ["1"]


def test_default_objects(pa2_ctx):
    names = [n for n, _ in default_objects(pa2_ctx)]
    assert names == ["S1", "S2", "P1", "P2"]  # injectives deduplicate away


def test_fraction_witness_search(pa2_ctx, pa2):
    from frobcat.rigid_model import cofibrant_replacement, is_weak_equivalence

    alg, mods = pa2
    s1 = mods["S1"]
    ident = Morphism.identity(s1)
    u = cofibrant_replacement(pa2_ctx, s1).phi
    left, right = (ident, ident), (ident @ u, ident @ u)
    assert fraction_to_ho(pa2_ctx, *left) == fraction_to_ho(pa2_ctx, *right)
    witness = search_fraction_witness(pa2_ctx, left, right, seed=3)
    assert witness is not None
    _, sp, tp = witness
    assert is_weak_equivalence(pa2_ctx, sp) and is_weak_equivalence(pa2_ctx, tp)
    assert (left[1] @ sp) == (right[1] @ tp)
    assert (left[0] @ sp) == (right[0] @ tp)
    # unequal fractions admit no witness
    zero = Morphism.zero(s1, s1)
    assert fraction_to_ho(pa2_ctx, ident, ident) != fraction_to_ho(pa2_ctx, zero, ident)
    assert search_fraction_witness(
        pa2_ctx, (ident, ident), (zero, ident), seed=3
    ) is None


def test_witness_implies_equality(pa2_ctx, pa2):
    # soundness direction: any found witness certifies canonical equality
    import random as _random

    alg, mods = pa2
    rng = _random.Random(11)
    objs = list(mods.values())
    found = 0
    for k in range(12):
        src = rng.choice(objs)
        tgt = rng.choice(objs)
        s = Morphism.identity(src)
        f = random_morphism(pa2_ctx, src, tgt, seed=300 + k)
        g = random_morphism(pa2_ctx, src, tgt, seed=600 + k)
        witness = search_fraction_witness(pa2_ctx, (f, s), (g, s), seed=k)
        if witness is not None:
            found += 1
            assert fraction_to_ho(pa2_ctx, f, s) == fraction_to_ho(pa2_ctx, g, s)
    assert found > 0


def test_battery_on_larger_algebra(pa3):
    # a non-degenerate generator on the A3 fixture keeps every check green
    alg, mods = pa3
    ctx = build_context(
        alg, [mods["P1"], mods["P2"], mods["P3"], mods["S2"]], "frobenius"
    )
    objs = sorted(mods.items()) + [("N", mods["S2"])]
    report = run_all(ctx, 7, 4, objs)
    assert report.passed, report.to_text()


def test_lifting_verdicts_are_the_same_from_cold_and_warm_caches(sampled_maps):
    """rlp_holds of each drawn map against three of the base lifting
    elements, taken in turn, on one context agrees with a fresh context per
    call; afterwards the store holds exactly the distinct key pairs."""
    verdicts = set()
    for alg, gen, mode, universe, maps in sampled_maps:
        ctx = build_context(alg, gen, mode)
        elements = axiom_suite._base_lifting_elements(ctx, universe)
        pairs = [(elements[(i + k) % len(elements)], f)
                 for i, f in enumerate(maps) for k in range(3)]
        for g, f in pairs:
            warm = rlp_holds(ctx, g, f)
            assert warm == rlp_holds(build_context(alg, gen, mode), g, f)
            verdicts.add(warm)
        keys = {(g.key, f.key) for g, f in pairs}
        assert len(keys) < len(pairs)
        assert set(ctx._caches["rlp"]) == keys
    assert verdicts == {True, False}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_lifting_against_zero_to_c_matches_the_general_rank_test(small_algebras, data):
    """Against 0 -> C, rlp_holds is the surjectivity of Hom(C, f), read off
    vertex ranks at C's projective parts; the general rank test over the
    squares gives the same verdict."""
    ctx, probe, f = draw_probe_case(small_algebras, data)
    g = Morphism.zero(zero_module(ctx.alg), probe)
    assert rlp_holds(ctx, g, f) == reference_rlp_by_rank(ctx, g, f)


def _draw_lifting_case(algebras, data):
    """A context on a drawn algebra over F_2, F_5 or Q (its projectives,
    exact mode, unvalidated: rlp_holds reads its field and stores) and a
    pair g: A -> B, f: E -> F. Each end is zero one time in six, else a
    simple, projective, injective or zero module, or a sum of two or three
    of these drawn the same way, nested at most two deep. g is a random map
    (often not mono), a zero map or a split mono (1; h); f is a random map
    (often not epi), a split epi (h 1) or a projective cover, so that both
    verdicts occur."""
    alg = algebras[data.draw(st.sampled_from(
        sorted(k for k in algebras if k.endswith(("/F2", "/F5", "/Q")))))]
    ctx = RigidContext(alg, alg.projectives(), EXACT)
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]

    def module(depth=0):
        if depth < 2 and data.draw(st.booleans()):
            return sum_module([module(depth + 1) for _ in range(data.draw(st.integers(2, 3)))])
        return data.draw(st.sampled_from(pieces))

    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a, b, e, t = (zero_module(alg) if data.draw(st.integers(0, 5)) == 0 else module()
                  for _ in range(4))
    g_kind = data.draw(st.sampled_from(["random", "zero", "split mono"]))
    if g_kind == "random":
        g = _random_hom(ctx, rng, a, b)
    elif g_kind == "zero":
        g = Morphism.zero(a, b)
    else:
        g = Morphism.vstack([Morphism.identity(a), _random_hom(ctx, rng, a, b)])
    f_kind = data.draw(st.sampled_from(["random", "split epi", "cover"]))
    if f_kind == "random":
        f = _random_hom(ctx, rng, e, t)
    elif f_kind == "split epi":
        f = Morphism.hstack([_random_hom(ctx, rng, e, t), Morphism.identity(t)])
    else:
        f = projective_cover(t)[1]
    return ctx, g, f


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_rlp_holds_matches_the_rank_reference_on_arbitrary_pairs(small_algebras, data):
    """rlp_holds on drawn pairs (zero ends, nested sums at both ends of g,
    g not mono, f not epi) gives the verdict of the reference, which ranks
    the lift map over the assembled Hom(g.target, f.source); and that rank
    is dim Hom(g.target, f.source) - dim Hom(coker g, ker f), the count
    rlp_holds takes in its place."""
    ctx, g, f = _draw_lifting_case(small_algebras, data)
    assert rlp_holds(ctx, g, f) == reference_rlp_by_rank(ctx, g, f)
    b, e = g.target, f.source
    lifts = hom_matrix(b, e).data
    image = np.hstack([compose_basis(lifts, b, e, right=g), compose_basis(lifts, b, e, left=f)])
    rank = Matrix(ctx.alg.field, image).rank()
    assert rank == hom_dim(b, e) - hom_dim(cokernel(g)[0], kernel(f)[0])


@pytest.mark.parametrize("name", ["pa2", "pa3", "pa3+S1+S3"])
def test_injective_summands_of_u_change_no_stable_kill(name, pa2_ctx, pa3_ctx, pa3_s_ctx,
                                                       pa2, pa3):
    """kills_stably(U, h) == kills_stably(mho_M_gen, h) on sampled maps and
    their cone legs: a map out of an injective summand of U factors through
    it. Over P1+P2+P3 on pa3, mho_M_gen is zero and U is injective."""
    ctx, mods = {"pa2": (pa2_ctx, pa2[1]), "pa3": (pa3_ctx, pa3[1]),
                 "pa3+S1+S3": (pa3_s_ctx, pa3[1])}[name]
    rng = random.Random(5)
    universe = sample_universe(ctx, sorted(mods.items()))
    verdicts = set()
    for _ in range(40):
        f = _sample_morphism(ctx, rng, universe)
        for h in (f, cone_legs(f)[1]):
            verdict = kills_stably(ctx.U, h)
            assert verdict == kills_stably(ctx.mho_M_gen, h)
            verdicts.add(verdict)
    assert verdicts == ({True} if ctx.mho_M_gen.is_zero() else {True, False})


def test_tailored_lifting_elements_match_the_per_row_reference(sampled_maps):
    """The one batched solve gives the elements of one solve_postcompose per
    row, in order and by Morphism.key, over F_5 and Q."""
    built = 0
    for alg, gen, mode, universe, maps in sampled_maps:
        ctx = build_context(alg, gen, mode)
        for f in maps:
            got = axiom_suite._tailored_lifting_elements(ctx, f)
            assert [g.key for g in got] == [
                g.key for g in reference_tailored_lifting_elements(ctx, f)]
            built += len(got)
    assert built > 0


def test_tailored_lifting_elements_refuse_a_non_approximation(pa2_ctx, pa2, monkeypatch):
    """For S1 -> 0 on pa2 the kernel is S1; the identity on the S1 summand of
    M_gen does not factor through the projective cover P1 -> S1, as
    Hom(S1, P1) = 0, so the cover is no add(M_gen)-approximation and the
    elements are refused rather than built from the maps that do factor."""
    alg, mods = pa2
    f = Morphism.zero(mods["S1"], zero_module(alg))
    assert len(axiom_suite._tailored_lifting_elements(pa2_ctx, f)) == 2
    monkeypatch.setattr(axiom_suite, "right_M_approximation",
                        lambda ctx, x: projective_cover(x)[1])
    with pytest.raises(InternalCheckError, match="does not factor"):
        axiom_suite._tailored_lifting_elements(pa2_ctx, f)


@pytest.mark.parametrize("tag", ["pa2", "aus2"])
def test_run_all_is_the_same_on_a_context_that_already_ran_it(tag):
    """The battery at seed 42 with 20 samples reports the same on a warm
    context as on the fresh one (aus2 reports that its U is not rigid, both
    times)."""
    alg, mods, project = build_fixture(tag)
    ctx = build_context(alg, [mods[n] for n in project["M_gen"]], project["mode"])
    first = run_all(ctx, 42, 20, sorted(mods.items()))
    assert run_all(ctx, 42, 20, sorted(mods.items())) == first


def test_weq_verdicts_agree_on_the_auslander_algebra_of_ka2(small_algebras):
    """The Auslander algebra of kA2 over F_5, generator P1+P2+P3+S1, exact
    mode: the stable-hom predicate accepts the identity of S3 = P3. A
    pullback along the projective cover of S3 asked that maps from the
    generator into P3 factor through an injective, and P3 is not injective;
    the approximation by injectives of P3 is zero, and asks nothing."""
    alg = small_algebras["aus-kA2/F5"]
    ctx = build_context(alg, alg.projectives() + [alg.simple("1")], "exact")
    f = Morphism.identity(alg.simple("3"))
    assert is_weak_equivalence(ctx, f) == weq_via_cones(ctx, f)
