import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcat.errors import HypothesisError, InputError
from frobcat.algebra_repr import (
    Algebra,
    Module,
    Morphism,
    compose_basis,
    compose_pairs,
    direct_sum,
    dual_module,
    hom_basis,
    hom_matrix,
    hom_width,
    is_epi,
    is_mono,
    cokernel,
    preprojective,
    sum_module,
    zero_module,
)
from frobcat.exact_linalg import Matrix, RowSpan, prime_field
from frobcat.homological import (
    approximation,
    cosyzygy,
    ext1_dim,
    in_add,
    left_approximation,
    solve_postcompose,
)
from frobcat.axiom_suite import default_objects, run_all, sample_universe
from frobcat.localization import dl_verify_all
from frobcat.rigid_model import (
    EXACT,
    RigidContext,
    _post_map_surjective,
    build_context,
    cofibrant_replacement,
    factorize1,
    factorize2,
    fibration_via_cone,
    is_cofibrant,
    is_fibration,
    is_trivial_fibration,
    is_weak_equivalence,
    lift,
    presentation_of_cofibrant,
    are_homotopic,
    right_M_approximation,
)
from helpers import (cone_legs, draw_probe_case, mho_approximation, random_morphism,
                     reference_post_map_surjective)


def test_build_context_accepts_fixture(pa2_ctx):
    assert pa2_ctx.mho_M_gen.dims_tuple() == (0, 1)  # the cosyzygy of S1
    assert pa2_ctx.U.dims_tuple() == (2, 3)


def test_build_context_accepts_degenerate(pa2_deg_ctx):
    assert pa2_deg_ctx.mho_M_gen.total_dim == 0


def test_build_context_rejections(pa2, ka2):
    alg, mods = pa2
    with pytest.raises(HypothesisError) as info:
        build_context(alg, [mods["S2"]], "frobenius")
    assert any("injective" in v for v in info.value.violations)
    # hereditary A2 is not self-injective
    with pytest.raises(HypothesisError) as info:
        build_context(ka2, [ka2.projective("1"), ka2.projective("2")], "frobenius")
    assert any("self-injective" in v for v in info.value.violations)
    # exact mode demands the projectives; the injectives alone miss P2 = S2
    with pytest.raises(HypothesisError) as info:
        build_context(ka2, [ka2.injective("1"), ka2.injective("2")], "exact")
    assert any("projective" in v for v in info.value.violations)
    # hereditary linear A3 (1 -> 2 -> 3) with P + I is not rigid: Ext^1(I1, P2) = 1
    ka3 = Algebra(prime_field(5), ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    assert ext1_dim(ka3.injective("1"), ka3.projective("2")) == 1
    with pytest.raises(HypothesisError) as info:  # I3 = P1
        build_context(ka3, ka3.projectives() + [ka3.injective("1"), ka3.injective("2")], "exact")
    assert any("M_gen is not rigid" in v for v in info.value.violations)


def test_exact_mode_accepts_pa2(pa2):
    alg, mods = pa2
    ctx = build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "exact")
    assert ctx.mode == "exact"


def test_right_approximation(pa2_ctx, pa2):
    alg, mods = pa2
    a = right_M_approximation(pa2_ctx, zero_module(alg))
    assert a.source.total_dim == 0
    a = right_M_approximation(pa2_ctx, mods["S2"])
    assert is_epi(a)
    # the approximation property: every map from a generator component factors
    for comp in pa2_ctx.components:
        for h in hom_basis(comp, mods["S2"]):
            assert solve_postcompose(a, h) is not None
    # identity factors through the approximation of the generator itself
    a_gen = right_M_approximation(pa2_ctx, pa2_ctx.M_gen)
    assert solve_postcompose(a_gen, Morphism.identity(pa2_ctx.M_gen)) is not None


def _full_evaluation(components, x):
    """The unminimized evaluation map: every hom-basis map from every component."""
    gens = [h for comp in components for h in hom_basis(comp, x)]
    if not gens:
        return Morphism.zero(zero_module(x.algebra), x)
    total, _, projections = direct_sum([h.source for h in gens])
    ev = Morphism.zero(total, x)
    for h, pr in zip(gens, projections):
        ev = ev + (h @ pr)
    return ev


def test_full_evaluation_agrees_with_reduced(pa2):
    alg, mods = pa2
    ctx = build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "frobenius")
    for x in mods.values():
        a_full = _full_evaluation(ctx.components, x)
        a_red = right_M_approximation(ctx, x)
        assert is_epi(a_full) and is_epi(a_red)
        assert all(_post_map_surjective(ctx, c, a_red) for c in ctx.components)
        assert a_red.source.total_dim <= a_full.source.total_dim
        # each factors through the other, so both are approximations
        assert solve_postcompose(a_red, a_full) is not None
        assert solve_postcompose(a_full, a_red) is not None
        assert is_trivial_fibration(ctx, cofibrant_replacement(ctx, x).phi)


def test_summand_approximations_cover_the_block(pa3):
    """P1+P2+P3+S1+S3 on preprojective A3/F_2 is rigid, and it is the smallest
    input where the summands of U differ from the cosyzygy of M_gen taken as
    one block: approximations against the summands still approximate it."""
    alg, mods = pa3
    ctx = build_context(alg, [mods[n] for n in ("P1", "P2", "P3", "S1", "S3")], "frobenius")
    assert [c.dims_tuple() for c in ctx.U_components[:2]] == [(0, 1, 1), (1, 1, 0)]
    mho = ctx.mho_M_gen
    assert mho.dims_tuple() == (1, 2, 1)
    for x in list(mods.values()) + [mho]:
        a = mho_approximation(ctx, x)
        for h in hom_basis(mho, x):
            assert solve_postcompose(a, h) is not None
        coev = left_approximation(ctx.U_components, x)
        through = RowSpan(alg.field, hom_width(x, mho))
        through.add(compose_basis(hom_matrix(coev.target, mho).data, coev.target, mho,
                                  right=coev))
        assert through.contains(hom_matrix(x, mho).data)
    report = run_all(ctx, 42, 5, default_objects(ctx))
    assert report.passed, report.to_text()


def test_mho_approximation(pa2_ctx, pa2):
    alg, mods = pa2
    for v in alg.vertices:
        inj = alg.injective(v)
        a = mho_approximation(pa2_ctx, inj)
        assert solve_postcompose(a, Morphism.identity(inj)) is not None  # split epi
    a = mho_approximation(pa2_ctx, mods["S2"])
    assert is_epi(a)
    # approximation property: every map from a class-generator component factors
    for x in mods.values():
        a = mho_approximation(pa2_ctx, x)
        for comp in pa2_ctx.U_components:
            for h in hom_basis(comp, x):
                assert solve_postcompose(a, h) is not None


def test_replacement_invariants(pa2_ctx, pa2):
    alg, mods = pa2
    for x in list(mods.values()) + [zero_module(alg)]:
        rep = cofibrant_replacement(pa2_ctx, x)
        rep.witness.validate()
        assert is_fibration(pa2_ctx, rep.phi)
        assert is_weak_equivalence(pa2_ctx, rep.phi)
        assert is_epi(rep.phi)
        assert in_add(rep.witness.sub, pa2_ctx.M_gen)


def test_replacement_splits_on_presentable(pa2_ctx, pa2):
    alg, mods = pa2
    rep = cofibrant_replacement(pa2_ctx, mods["S2"])
    assert solve_postcompose(rep.phi, Morphism.identity(mods["S2"])) is not None


def test_weak_equivalence_examples(pa2_ctx, pa2):
    alg, mods = pa2
    z = zero_module(alg)
    assert is_weak_equivalence(pa2_ctx, Morphism.identity(mods["S1"]))
    assert is_weak_equivalence(pa2_ctx, Morphism.zero(z, mods["S2"]))
    assert not is_weak_equivalence(pa2_ctx, Morphism.zero(z, mods["S1"]))
    # zero onto the cosyzygy of any generator summand is invisible to the functor
    for comp in pa2_ctx.components:
        c, _ = cosyzygy(comp)
        assert is_weak_equivalence(pa2_ctx, Morphism.zero(z, c))


def test_fibration_examples(pa2_ctx, pa2):
    alg, mods = pa2
    z = zero_module(alg)
    assert is_fibration(pa2_ctx, Morphism.zero(mods["P1"], z))  # all objects fibrant
    assert is_fibration(pa2_ctx, Morphism.identity(mods["S2"]))
    assert not is_fibration(pa2_ctx, Morphism.zero(z, mods["S2"]))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_post_map_surjectivity_matches_the_whole_hom_reference(small_algebras, data):
    """Vertex ranks at the tops of the probe's projective parts plus the hom
    rank over the rest give the verdict of the rank over the whole of
    Hom(probe, f.source), for probes built from projectives, injectives and
    simples, nested sums among them."""
    ctx, probe, f = draw_probe_case(small_algebras, data)
    assert _post_map_surjective(ctx, probe, f) == reference_post_map_surjective(ctx, probe, f)


def test_fibration_cone_characterization_agrees(pa2_ctx, pa2):
    alg, mods = pa2
    z = zero_module(alg)
    samples = [
        Morphism.identity(mods["S2"]),
        Morphism.zero(z, mods["S2"]),
        hom_basis(mods["P2"], mods["S2"])[0],
        hom_basis(mods["P1"], mods["P2"])[0],
        cofibrant_replacement(pa2_ctx, mods["S1"]).phi,
    ]
    for f in samples:
        assert is_fibration(pa2_ctx, f) == fibration_via_cone(pa2_ctx, f)


def test_trivial_fibrations_are_epi(pa2_ctx, pa2):
    alg, mods = pa2
    for x, y in itertools.product(mods.values(), repeat=2):
        for f in hom_basis(x, y):
            if is_trivial_fibration(pa2_ctx, f):
                assert is_epi(f)


def test_lift(pa2_ctx, pa2):
    alg, mods = pa2
    ident = Morphism.identity(mods["S1"])
    assert lift(pa2_ctx, ident, ident) == ident
    rep = cofibrant_replacement(pa2_ctx, mods["S1"])
    g = right_M_approximation(pa2_ctx, mods["S1"])
    beta = lift(pa2_ctx, g, rep.phi)
    assert (rep.phi @ beta) == g
    with pytest.raises(InputError):
        lift(pa2_ctx, ident, Morphism.zero(zero_module(alg), mods["S1"]))


def test_lift_needs_a_cofibrant_domain(pa2_deg_ctx, pa2):
    """On pa2-deg S1 has no presentation in add(P1+P2), so lifting along the
    trivial fibration id_S1 is refused; P1, a summand of M_gen, lifts."""
    alg, mods = pa2
    ident = Morphism.identity(mods["S1"])
    assert is_trivial_fibration(pa2_deg_ctx, ident)
    with pytest.raises(InputError, match="cofibrant"):
        lift(pa2_deg_ctx, ident, ident)
    rep = cofibrant_replacement(pa2_deg_ctx, mods["S1"])
    g = hom_basis(mods["P1"], mods["S1"])[0]
    beta = lift(pa2_deg_ctx, g, rep.phi)
    assert (rep.phi @ beta) == g


def test_cofibrancy(pa2_ctx, pa2_deg_ctx, pa2):
    alg, mods = pa2
    for x in mods.values():
        assert is_cofibrant(pa2_ctx, x)  # small-algebra degeneracy
    assert not is_cofibrant(pa2_deg_ctx, mods["S1"])
    assert not is_cofibrant(pa2_deg_ctx, mods["S2"])
    assert is_cofibrant(pa2_deg_ctx, mods["P1"])


def test_presentation_of_cofibrant(pa2_ctx, pa2_deg_ctx, pa2):
    alg, mods = pa2
    pres = presentation_of_cofibrant(pa2_ctx, mods["S2"])
    pres.validate()
    assert in_add(pres.sub, pa2_ctx.M_gen)
    assert in_add(pres.middle, pa2_ctx.M_gen)
    assert presentation_of_cofibrant(pa2_deg_ctx, mods["S1"]) is None


def _reference_is_cofibrant(ctx, x):
    """The section criterion that the presentation test replaced: x is
    cofibrant iff its cofibrant replacement map splits."""
    return solve_postcompose(cofibrant_replacement(ctx, x).phi,
                             Morphism.identity(x)) is not None


def test_cofibrancy_matches_the_section_reference(pa2_ctx, pa2_deg_ctx, pa2_ss_ctx, pa3_s_ctx,
                                                  a2q, pa3_ctx, small_algebras):
    """On the contexts of row_case, pa3 over its projectives, and the
    Auslander algebra of kA2 in exact mode over P+S1 (not self-injective),
    the presentation test agrees with the section criterion on every sampled
    object."""
    contexts = [pa2_ctx, pa2_deg_ctx, pa2_ss_ctx, pa3_s_ctx, a2q[0], pa3_ctx]
    for field in ("F2", "F5", "Q"):
        alg = small_algebras[f"aus-kA2/{field}"]
        contexts.append(build_context(alg, alg.projectives() + [alg.simple("1")], EXACT))
    verdicts = set()
    for ctx in contexts:
        for _, x in sample_universe(ctx, None):
            verdict = is_cofibrant(ctx, x)
            assert verdict == _reference_is_cofibrant(ctx, x)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def in_mho_M(ctx, x):
    """Membership in the cosyzygy class, by add-closure of the generator U."""
    return in_add(x, ctx.U)


def test_in_mho_M(pa2_ctx, pa2):
    alg, mods = pa2
    assert in_mho_M(pa2_ctx, mods["S2"])
    assert not in_mho_M(pa2_ctx, mods["S1"])
    for v in alg.vertices:
        assert in_mho_M(pa2_ctx, alg.injective(v))
    # the class is exactly: presentable and invisible to the functor
    for x in mods.values():
        expected = is_cofibrant(pa2_ctx, x) and pa2_ctx.stable_from_generator(x).dim == 0
        assert in_mho_M(pa2_ctx, x) == expected


def test_factorize1(pa2_ctx, pa2):
    alg, mods = pa2
    z = zero_module(alg)
    for f in [
        Morphism.identity(mods["S1"]),
        Morphism.zero(z, mods["S1"]),
        hom_basis(mods["P2"], mods["S2"])[0],
        Morphism.zero(mods["S2"], mods["S1"]),
    ]:
        fac = factorize1(pa2_ctx, f)
        assert (fac.right @ fac.left) == f
        assert is_fibration(pa2_ctx, fac.right)
        assert is_weak_equivalence(pa2_ctx, fac.left)


def test_factorize2(pa2_ctx, pa2):
    alg, mods = pa2
    z = zero_module(alg)
    for f in [
        Morphism.identity(pa2_ctx.M_gen),
        Morphism.zero(mods["S2"], z),
        hom_basis(mods["P2"], mods["S2"])[0],
    ]:
        fac = factorize2(pa2_ctx, f)
        assert (fac.right @ fac.left) == f
        assert is_trivial_fibration(pa2_ctx, fac.right)
        assert is_mono(fac.left)
        cok, _ = cokernel(fac.left)
        assert is_cofibrant(pa2_ctx, cok)


def test_factorize2_contracts(pa2_deg_ctx, pa2):
    alg, mods = pa2
    with pytest.raises(InputError, match="cofibrant"):
        factorize2(pa2_deg_ctx, Morphism.identity(mods["S1"]))
    ctx_exact = build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "exact")
    with pytest.raises(InputError, match="frobenius"):
        factorize2(ctx_exact, Morphism.identity(mods["P1"]))


def test_path_object(pa2_ctx, pa2):
    alg, mods = pa2
    for y in [zero_module(alg), mods["S1"], mods["P2"]]:
        fac = factorize1(pa2_ctx, Morphism.vstack([Morphism.identity(y)] * 2))
        w, q = fac.left, fac.right
        yy, injs, _ = direct_sum([y, y])
        assert (q @ w) == (injs[0] + injs[1])
        assert is_weak_equivalence(pa2_ctx, w)


def test_homotopy(pa2_ctx, pa2_deg_ctx, pa2):
    alg, mods = pa2
    ident2 = Morphism.identity(mods["S2"])
    assert are_homotopic(pa2_ctx, ident2, ident2)
    assert are_homotopic(pa2_ctx, ident2, Morphism.zero(mods["S2"], mods["S2"]))
    ident1 = Morphism.identity(mods["S1"])
    assert not are_homotopic(pa2_ctx, ident1, Morphism.zero(mods["S1"], mods["S1"]))
    with pytest.raises(InputError, match="cofibrant"):
        are_homotopic(pa2_deg_ctx, ident1, ident1)


def test_functor_kills_cosyzygy_class(pa2_ctx, pa2):
    alg, mods = pa2
    for comp in pa2_ctx.components:
        c, _ = cosyzygy(comp)
        assert pa2_ctx.stable_from_generator(c).dim == 0


def test_cone_of_identity_is_the_envelope(pa2):
    alg, mods = pa2
    z, g, u = cone_legs(Morphism.identity(mods["S1"]))
    # pushing the envelope out along an iso changes nothing: u is an iso onto
    # P2, and g is the envelope inclusion transported along it
    assert z.dims_tuple() == (1, 1)
    assert is_mono(u) and is_epi(u)
    assert is_mono(g)


def _reference_is_weak_equivalence(ctx, f):
    """The per-representative form that the row-stack test replaced."""
    sx = ctx.stable_from_generator(f.source)
    sy = ctx.stable_from_generator(f.target)
    if sx.dim != sy.dim:
        return False
    if sx.dim == 0:
        return True
    cols = [sy.canonical((f @ Morphism.from_vec(sx.x, f.source, row)).vec())
            for row in sx.rep_rows]
    return Matrix(ctx.alg.field, np.vstack(cols).T).rank() == sy.dim


def test_weak_equivalence_matches_the_reference(row_case):
    ctx, mods = row_case
    ranked = 0  # verdicts reached through the rank test
    for x, y in itertools.product(mods.values(), repeat=2):
        candidates = [Morphism.zero(x, y)] + [random_morphism(ctx, x, y, s) for s in range(3)]
        if x.key == y.key:
            candidates.append(Morphism.identity(x))
        for f in candidates:
            assert is_weak_equivalence(ctx, f) == _reference_is_weak_equivalence(ctx, f)
            ranked += ctx.stable_from_generator(x).dim == ctx.stable_from_generator(y).dim > 0
    for x in mods.values():
        assert is_weak_equivalence(ctx, cofibrant_replacement(ctx, x).phi)
    assert (ranked > 0) == (ctx.stable_from_generator(ctx.M_gen).dim > 0)


RIGHT, LEFT = "right", "left"


def _reference_greedy_approximation(components, x, side):
    """The greedy pass against the whole sum T of the components: a basis map
    h is dropped when h ∘ π_c (right), or ι_c ∘ h (left), lies in the span of
    the kept maps, so composed, composed with End(T). Its left side is the
    direct left pass that the dual construction replaced."""
    right = side == RIGHT
    total, injections, projections = direct_sum(list(components))
    endo = hom_matrix(total, total).data
    span = RowSpan(x.algebra.field, hom_width(total, x))
    kept = []
    for ci, comp in enumerate(components):
        ends = (comp, x) if right else (x, comp)
        basis = hom_matrix(*ends).data
        full = (compose_basis(basis, comp, x, right=projections[ci]) if right
                else compose_basis(basis, x, comp, left=injections[ci]))
        for h, hfull in zip(basis, full):
            if span.contains(hfull):
                continue
            kept.append(Morphism.from_vec(*ends, h))
            span.add(compose_pairs(endo, total, total, hfull[None], x) if right
                     else compose_pairs(hfull[None], x, total, endo, total))
    if not kept:
        none = zero_module(x.algebra)
        return Morphism.zero(none, x) if right else Morphism.zero(x, none)
    return Morphism.hstack(kept) if right else Morphism.vstack(kept)


def _exact_map(f):
    """A map byte for byte: dtype, shape and the repr of every entry of its
    components and of both ends' actions."""
    def exact(m):
        return m.data.dtype.str, m.data.shape, [repr(e) for e in m.data.reshape(-1)]
    alg = f.source.algebra
    return ([exact(f.comps[v]) for v in alg.vertices],
            [exact(end.action[a.name]) for end in (f.source, f.target) for a in alg.arrows])


def _dual_map(f):
    """D(f): D(target) -> D(source), over the opposite algebra."""
    return Morphism(dual_module(f.target), dual_module(f.source),
                    {v: c.transpose() for v, c in f.comps.items()})


def _draw_approximation_case(small_algebras, data):
    """An algebra, generator components drawn with repeats (so later copies
    factor through earlier ones), either those of M_gen or the summands of
    U, and a sum of at most two simples, projectives and injectives."""
    alg = small_algebras[data.draw(st.sampled_from(sorted(small_algebras)))]
    pieces = alg.simples() + alg.projectives() + alg.injectives()
    ctx = RigidContext(alg, data.draw(st.lists(st.sampled_from(pieces), min_size=1,
                                               max_size=4)), EXACT)
    components = data.draw(st.sampled_from([ctx.components, ctx.U_components]))
    x = sum_module(data.draw(st.lists(st.sampled_from(pieces + [zero_module(alg)]),
                                      max_size=2)), alg)
    return components, x


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_approximation_matches_the_whole_sum_reference(small_algebras, data):
    """approximation is the right whole-T greedy pass byte for byte, and
    left_approximation the dual of that pass over the opposite algebra."""
    components, x = _draw_approximation_case(small_algebras, data)
    assert _exact_map(approximation(components, x)) == _exact_map(
        _reference_greedy_approximation(components, x, RIGHT))
    dual = _reference_greedy_approximation([dual_module(c) for c in components],
                                           dual_module(x), RIGHT)
    assert _exact_map(_dual_map(left_approximation(components, x))) == _exact_map(dual)


def _copresentation_verdict(coev, x, t):
    """The in_copr_mho test on a left approximation coev against add(t)."""
    if coev.target.is_zero():
        return x.is_zero()
    return is_mono(coev) and in_add(cokernel(coev)[0], t)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_left_approximation_gives_the_direct_left_pass_verdict(small_algebras, data):
    """Whether the left approximation is mono with cokernel in add(T) does not
    depend on which left approximation is taken: the dual one and the direct
    left pass agree, rigid T or not."""
    components, x = _draw_approximation_case(small_algebras, data)
    t = sum_module(components, x.algebra)
    assert (_copresentation_verdict(left_approximation(components, x), x, t)
            == _copresentation_verdict(_reference_greedy_approximation(components, x, LEFT),
                                       x, t))


@pytest.mark.parametrize("field", ["F5", "F1048583", "Q"])
def test_morphism_key_is_the_content_of_the_map_and_its_ends(small_algebras, field):
    """Two modules over kA2 with equal dims and different arrow matrices (P1
    and S1+S2): maps with equal components between different ends have
    different keys, and equal content built separately has one key. F5 keys
    join int64 bytes; F1048583 and Q join entry signatures."""
    alg = small_algebras[f"kA2/{field}"]
    x = Module(alg, {"1": 1, "2": 1}, {"a": Matrix.from_entries(alg.field, 1, 1, [1])})
    y = Module(alg, {"1": 1, "2": 1}, {})
    maps = [Morphism.zero(x, x), Morphism.zero(x, y), Morphism.zero(y, x),
            Morphism.zero(y, y), Morphism.identity(x), Morphism.identity(y),
            Morphism.identity(x).scale(alg.field.coerce(2))]
    assert len({f.key for f in maps}) == len(maps)
    assert all(isinstance(f.key[2], bytes) == (field == "F5") for f in maps)
    for f in maps:
        source = Module.from_dict(alg, f.source.to_dict())
        target = Module.from_dict(alg, f.target.to_dict())
        again = Morphism.from_dict(f.to_dict("s", "t"), source, target)
        assert again is not f and again.key == f.key


def test_one_battery_and_dl_verify_make_exactly_the_named_stores(pa2):
    """RigidContext declares no store: each is made by the first ``_memo``
    call that names it, so a misspelt store name shows here. One pa2 battery
    at 5 samples plus dl-verify over all pairs fills exactly these stores;
    ``ho_hom`` is built on every call and keeps none."""
    alg, mods = pa2
    ctx = build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "frobenius")
    assert not ctx._caches
    named = sorted(mods.items())
    run_all(ctx, 42, 5, named)
    dl_verify_all(ctx, named)
    assert set(ctx._caches) == {"replacement", "cofibrant", "stable", "G", "G_phi",
                                "fibration", "weq", "rlp", "rlp_ker", "rlp_coker"}
    assert all(ctx._caches.values())


def test_predicate_verdicts_are_the_same_from_cold_and_warm_caches(sampled_maps):
    """is_fibration and is_weak_equivalence on one context, whose verdict
    stores fill as it goes (the draws repeat maps), agree with a fresh
    context per call; afterwards each store holds exactly the distinct keys."""
    verdicts = set()
    for alg, gen, mode, _, maps in sampled_maps:
        ctx = build_context(alg, gen, mode)
        for f in maps:
            for pred in (is_fibration, is_weak_equivalence):
                warm = pred(ctx, f)
                assert warm == pred(build_context(alg, gen, mode), f)
                verdicts.add((pred.__name__, warm))
        keys = {f.key for f in maps}
        assert len(keys) < len(maps)
        assert set(ctx._caches["fibration"]) == set(ctx._caches["weq"]) == keys
    # both verdicts of both predicates occur, so agreement is not on a constant
    assert len(verdicts) == 4
