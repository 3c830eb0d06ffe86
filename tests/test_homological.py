import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcat import homological
from frobcat.errors import InputError
from frobcat.exact_linalg import Matrix, RowSpan, prime_field, rational_field, solve_in_span
from frobcat.algebra_repr import (
    Algebra,
    Module,
    Morphism,
    ShortExactSequence,
    _split,
    cokernel,
    cokernel_factor,
    combine,
    compose_pairs,
    direct_sum,
    dual_module,
    hom_basis,
    hom_dim,
    hom_matrix,
    hom_width,
    is_epi,
    is_mono,
    kernel,
    path_matrix,
    preprojective,
    sum_module,
    zero_module,
)
from frobcat.homological import (
    QuotientHom,
    _cover_map,
    _greedy_approximation,
    approximation,
    cone_sequence,
    cosyzygy,
    ext1_dim,
    ext1_dim_via_copresentation,
    factors_through_add,
    in_add,
    injective_envelope,
    is_self_injective,
    kills_stably,
    projective_cover,
    solve_postcompose,
    stable_hom,
    syzygy,
    through_injectives,
)
from frobcat.rigid_model import build_context
from helpers import (random_morphism, rebased, reference_cone_legs,
                     reference_greedy_approximation, reference_quotient_reps)


def test_cover_of_zero(pa2):
    alg, _ = pa2
    p, cov = projective_cover(zero_module(alg))
    assert p.total_dim == 0 and cov.is_zero()


def test_cover_of_top_simple(pa2):
    alg, mods = pa2
    p, cov = projective_cover(mods["S2"])
    assert p.key == mods["P2"].key
    assert is_epi(cov)


def test_envelope_of_socle_simple(pa2):
    alg, mods = pa2
    i, env = injective_envelope(mods["S1"])
    assert i.key == mods["P2"].key  # socle of P2 is S1
    assert is_mono(env)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", [prime_field(5), rational_field()], ids=["F5", "Q"])
def test_double_dual_is_over_the_same_algebra(n, field):
    """opposite() links both ways, so the envelope's dual of a dual needs no
    re-typing onto the algebra; on an opposite algebra too."""
    alg = preprojective(n, field)
    for a in (alg, alg.opposite()):
        for x in a.simples() + a.projectives():
            back = dual_module(dual_module(x))
            assert back.algebra is a and back.key == x.key
            i, env = injective_envelope(x)
            assert i.algebra is a and env.source is x and is_mono(env)


def test_syzygies(pa2):
    alg, mods = pa2
    om, ses = syzygy(mods["S2"])
    assert om.key == mods["S1"].key
    ses.validate()
    mho, ses2 = cosyzygy(mods["S1"])
    assert mho.key == mods["S2"].key
    ses2.validate()


def test_syzygy_is_cached_per_module_key(pa2):
    """A second call, with x or with another instance of x's key, returns
    the pair that the first call built."""
    alg, mods = pa2
    x = mods["S2"]
    first = syzygy(x)
    assert syzygy(x) is first
    assert syzygy(Module(alg, x.dims, x.action)) is first


def test_kills_stably_on_a_zero_generator_solves_nothing():
    """On a fresh pa2-deg (generator P1+P2, every summand injective) the
    costable generator is zero: kills_stably is True on every map, and
    neither the hom cache nor the module cache grows."""
    alg = preprojective(2, prime_field(5))
    ctx = build_context(alg, alg.projectives(), "frobenius")
    assert ctx.costable_gen.is_zero()
    objects = alg.simples() + alg.projectives()
    maps = [random_morphism(ctx, x, y, seed)
            for x in objects for y in objects for seed in range(2)]
    sizes = len(alg._hom_cache), len(alg._module_cache)
    assert all(kills_stably(ctx.costable_gen, h) for h in maps)
    assert (len(alg._hom_cache), len(alg._module_cache)) == sizes


@pytest.mark.parametrize("field", [prime_field(5), rational_field()], ids=["F5", "Q"])
def test_stable_hom_from_a_zero_generator_solves_nothing(field):
    """Over preprojective A2 with generator P1+P2 (pa2-deg) the costable
    generator is zero: stable hom from it is the zero space, built without
    growing the hom cache or the module cache, and equal row for row to the
    quotient by the span of maps through injectives."""
    alg = preprojective(2, field)
    ctx = build_context(alg, alg.projectives(), "frobenius")
    z = ctx.costable_gen
    objects = alg.simples() + alg.projectives() + [sum_module(alg.simples())]
    sizes = len(alg._hom_cache), len(alg._module_cache)
    spaces = [ctx.stable_from_generator(y) for y in objects]
    assert (len(alg._hom_cache), len(alg._module_cache)) == sizes
    for y, space in zip(objects, spaces):
        old = QuotientHom(z, y, through_injectives(z, y))
        assert space.dim == old.dim == 0
        for a, b in ((space.rep_rows, old.rep_rows), (space.sub.rows, old.sub.rows)):
            assert a.shape == b.shape and a.dtype == b.dtype


def test_cosyzygy_of_injective_vanishes(pa2):
    alg, mods = pa2
    for v in alg.vertices:
        mho, _ = cosyzygy(alg.injective(v))
        assert mho.total_dim == 0
    for v in alg.vertices:
        om, _ = syzygy(alg.projective(v))
        assert om.total_dim == 0


def test_ext1_values(pa2):
    alg, mods = pa2
    for y in mods.values():
        assert ext1_dim(mods["P1"], y) == 0
        assert ext1_dim(mods["P2"], y) == 0
    assert ext1_dim(mods["S2"], mods["S1"]) == 1
    assert ext1_dim(mods["S1"], mods["S2"]) == 1
    assert ext1_dim(mods["S1"], mods["S1"]) == 0
    m_gen, _, _ = direct_sum([mods["P1"], mods["P2"], mods["S1"]])
    assert ext1_dim(m_gen, m_gen) == 0


def test_ext1_presentation_independence(pa2):
    alg, mods = pa2
    for x, y in itertools.product(mods.values(), repeat=2):
        assert ext1_dim(x, y) == ext1_dim_via_copresentation(x, y)


def test_frobenius_dimension_shift(pa2):
    alg, mods = pa2
    for x, y in itertools.product(mods.values(), repeat=2):
        om, _ = syzygy(x)
        projective_quotient = QuotientHom(
            om, y, factors_through_add(om, sum_module(alg.projectives()), y))
        assert ext1_dim(x, y) == projective_quotient.dim


def test_stable_hom_dims(pa2):
    alg, mods = pa2
    assert stable_hom(mods["S1"], mods["S1"]).dim == 1
    assert stable_hom(mods["P1"], mods["S1"]).dim == 0
    for v in alg.vertices:
        inj = alg.injective(v)
        for x in mods.values():
            assert stable_hom(inj, x).dim == 0


def test_factors_through_zero(pa2):
    alg, mods = pa2
    sub = factors_through_add(mods["S1"], zero_module(alg), mods["S1"])
    assert sub.rank == 0


def test_factors_through_self_is_full_endos(pa2):
    alg, mods = pa2
    x = mods["P1"]
    sub = factors_through_add(x, x, x)
    assert sub.rank == len(hom_basis(x, x))


def test_factors_through_add_zero_span(pa2):
    alg, mods = pa2
    # Hom(P1, S2) = 0, so nothing factors through S2 on the way to S1
    sub = factors_through_add(mods["P1"], mods["S2"], mods["S1"])
    assert sub.rank == 0


def test_in_add(pa2):
    alg, mods = pa2
    m_gen, _, _ = direct_sum([mods["P1"], mods["P2"], mods["S1"]])
    assert in_add(zero_module(alg), mods["S2"])
    assert in_add(mods["S1"], m_gen)
    assert not in_add(mods["S2"], m_gen)
    # reflexive and transitive on the fixture
    t, _, _ = direct_sum([mods["S1"], mods["P1"]])
    assert in_add(mods["S1"], t) and in_add(t, t)
    big, _, _ = direct_sum([t, mods["P2"]])
    assert in_add(mods["S1"], big)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_in_add_matches_the_whole_pairwise_span(small_algebras, data):
    """in_add, which stops at the first part of z whose composites hold
    id_x, gives the verdict of the whole pairwise span through z, cold as
    well as cached, over F_2, F_5 and Q; z is one module or a sum that may
    hold zero parts, and x is zero, a sum of z's parts or of any two pieces."""
    names = [n for n in sorted(small_algebras) if n.split("/")[1] in ("F2", "F5", "Q")]
    alg = small_algebras[data.draw(st.sampled_from(names))]
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]
    z = sum_module(data.draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=4)), alg)
    choices = data.draw(st.sampled_from([pieces, list(z.parts or [z])]))
    x = sum_module(data.draw(st.lists(st.sampled_from(choices), max_size=2)), alg)
    want = homological._pairwise_span(x, z, x).contains(Morphism.identity(x).vec())
    assert in_add(x, z) == want
    assert x.is_zero() or homological._identity_through(x, z) == want


def test_in_add_stops_after_the_first_part_that_holds_the_identity(monkeypatch):
    """Against z = P1+P2+P3+S1 over preprojective A3/F_2, where every pair of
    projectives has maps both ways, P1 composes through P1 alone and P3
    through P1, P2 and P3, not through the parts after the one whose
    composites hold the identity. P1+S2, outside add(z), composes through
    every part with maps both ways: the three projectives, as Hom(S1, x) = 0."""
    alg = preprojective(3, prime_field(2))
    z = sum_module(alg.projectives() + [alg.simple("1")], alg)
    compose, parts = homological.compose_pairs, []
    monkeypatch.setattr(homological, "compose_pairs",
                        lambda *args: parts.append(args[2]) or compose(*args))
    names = {p.key: n for p, n in zip(z.parts, ["P1", "P2", "P3", "S1"])}
    outside = sum_module([alg.projective("1"), alg.simple("2")], alg)
    for x, holds, through in ((alg.projective("1"), True, ["P1"]),
                              (alg.projective("3"), True, ["P1", "P2", "P3"]),
                              (outside, False, ["P1", "P2", "P3"])):
        parts.clear()
        assert in_add(x, z) == holds
        assert [names[p.key] for p in parts] == through


def test_self_injectivity(pa2, ka2):
    alg, _ = pa2
    semisimple = Algebra(rational_field(), ["v"], [], [])
    assert is_self_injective(semisimple)
    assert is_self_injective(alg)
    assert is_self_injective(preprojective(3, prime_field(2)))
    assert not is_self_injective(ka2)


def ses_split(ses):
    """A section s of the deflation (p @ s = id) when one exists."""
    return solve_postcompose(ses.p, Morphism.identity(ses.p.target))


def test_ses_split(pa2):
    alg, mods = pa2
    t, injs, projs = direct_sum([mods["S1"], mods["S2"]])
    split = ses_split(ShortExactSequence(injs[0], projs[1]).validate())
    assert split is not None and (projs[1] @ split) == Morphism.identity(mods["S2"])
    soc = hom_basis(mods["S1"], mods["P2"])[0]
    top = hom_basis(mods["P2"], mods["S2"])[0]
    assert ses_split(ShortExactSequence(soc, top).validate()) is None
    ident = ShortExactSequence(
        Morphism.zero(zero_module(alg), mods["P1"]), Morphism.identity(mods["P1"])
    ).validate()
    assert ses_split(ident) is not None
    # zero quotient: the section is the zero map 0 -> P1
    to_zero = ShortExactSequence(
        Morphism.identity(mods["P1"]), Morphism.zero(mods["P1"], zero_module(alg))
    ).validate()
    split = ses_split(to_zero)
    assert split is not None and split.target.key == mods["P1"].key
    assert (to_zero.p @ split) == Morphism.identity(to_zero.p.target)


# -- kept references: the cokernel and the cover as they were first written ---------


def _reference_cokernel(f):
    """q_v is the bottom rows of the inverse of [img | sel]: an image basis
    among the columns of f_v, then the standard vectors completing it. The
    square [img | sel] is invertible, so its inverse is the solution c of
    c [img | sel] = 1."""
    alg = f.source.algebra
    field = alg.field
    quots, dims = {}, {}
    for v in alg.vertices:
        fv = f.comps[v]
        _, pivots, _ = Matrix.hstack([fv, Matrix.identity(field, fv.rows)]).rref()
        img = fv.data[:, [c for c in pivots if c < fv.cols]]
        complement = [c - fv.cols for c in pivots if c >= fv.cols]
        sel = Matrix.zeros(field, fv.rows, len(complement))
        for k, i in enumerate(complement):
            sel.data[i, k] = field.one()
        one = Matrix.identity(field, fv.rows).data
        tinv = solve_in_span(field, np.hstack([img, sel.data]), one)
        assert tinv is not None
        quots[v] = (Matrix(field, tinv[img.shape[1]:, :].copy()), sel)
        dims[v] = len(complement)
    action = {a.name: quots[a.target][0] @ f.target.action[a.name] @ quots[a.source][1]
              for a in alg.arrows}
    c = Module(alg, dims, action)
    return c, Morphism(f.target, c, {v: quots[v][0] for v in alg.vertices})


def _reference_kernel(f):
    """The induced action solved column by column: K_t A = X_a K_s, each
    column of X_a K_s in the span of the columns of K_t."""
    alg = f.source.algebra
    bases = {v: f.comps[v].kernel() for v in alg.vertices}
    action = {}
    for a in alg.arrows:
        image = f.source.action[a.name] @ bases[a.source]
        sol = solve_in_span(alg.field, bases[a.target].data.T, image.data.T)
        assert sol is not None
        action[a.name] = Matrix(alg.field, sol).transpose()
    k = Module(alg, {v: b.cols for v, b in bases.items()}, action)
    return k, Morphism(k, f.source, bases)


def _reference_cokernel_factor(proj, g):
    """h with h @ proj = g, solved vertex by vertex: each row of g_v in the
    span of the rows of proj_v."""
    field, comps = proj.source.algebra.field, {}
    for v in proj.source.algebra.vertices:
        sol = solve_in_span(field, proj.comps[v].data, g.comps[v].data)
        assert sol is not None
        comps[v] = Matrix(field, sol)
    return Morphism(proj.target, g.target, comps)


def _reference_generator_map(x, v, gen):
    """P_v -> x sending each path b out of v to (action of b on x) @ gen."""
    alg = x.algebra
    src, column = alg._vindex[v], Matrix.from_entries(alg.field, len(gen), 1, list(gen))
    cols = {w: [] for w in alg.vertices}
    for e in alg._elts:
        if e.source == src:
            cols[alg.vertices[e.target]].append(
                path_matrix(x, e.path) @ column if e.length else column)
    comps = {w: Matrix.hstack(c) for w, c in cols.items() if c}
    return Morphism(alg.projective(v), x, comps)


def _reference_cover(x):
    """One generator map per top generator, hstacked."""
    alg = x.algebra
    generators = []
    for v in alg.vertices:
        radical = RowSpan(alg.field, x.dims[v])
        for a in alg.arrows:
            if a.target == v:
                radical.add(x.action[a.name].data.T)
        ident = Matrix.identity(alg.field, x.dims[v]).data
        generators += [(v, ident[i]) for i in radical.independent(ident)]
    if not generators:
        p = zero_module(alg)
        return p, Morphism(p, x, {})
    cover = Morphism.hstack([_reference_generator_map(x, v, g) for v, g in generators])
    return cover.source, cover


def _reference_envelope(x):
    p, cover = _reference_cover(dual_module(x))
    env = dual_module(p)
    return env, Morphism(x, env, {v: cover.comps[v].transpose() for v in x.algebra.vertices})


def _exact(m):
    """A matrix byte for byte: dtype, shape and the repr of every entry, so a
    Fraction in place of an int (how a whole rational is stored), or an int
    in place of an int64, shows."""
    return m.data.dtype.str, m.data.shape, [repr(e) for e in m.data.reshape(-1)]


def _same_module(got, want):
    alg = want.algebra
    assert got.algebra is alg and got.dims == want.dims
    assert all(_exact(got.action[a.name]) == _exact(want.action[a.name]) for a in alg.arrows)


def _same_map(got, want):
    _same_module(got.source, want.source)
    _same_module(got.target, want.target)
    assert all(_exact(got.comps[v]) == _exact(want.comps[v]) for v in want.source.algebra.vertices)


# preprojective A2 and A3; F_1048583 runs the object-dtype residue path
_COVER_ALGEBRAS = {
    f"A{n}/{name}": preprojective(n, field)
    for n in (2, 3)
    for name, field in (("F2", prime_field(2)), ("F5", prime_field(5)),
                        ("F1048583", prime_field(1048583)), ("Q", rational_field()))
}


@given(name=st.sampled_from(sorted(_COVER_ALGEBRAS)), data=st.data())
@settings(max_examples=120, deadline=None)
def test_cokernel_and_cover_match_the_references(name, data):
    """kernel and cokernel (module and map), cokernel_factor, projective_cover
    and injective_envelope against the kept references, byte for byte, on
    sums of simples, projectives, injectives and zero modules (which have
    zero-dimensional vertices), under zero maps, isomorphisms and maps with
    drawn coefficients."""
    alg = _COVER_ALGEBRAS[name]
    field = alg.field
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]

    def module():
        return sum_module(data.draw(st.lists(st.sampled_from(pieces), max_size=2)), alg)

    def drawn(source, target):
        n = hom_dim(source, target)
        ints = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return combine(source, target, [field.coerce(i) for i in ints])

    x, y = module(), module()
    kind = data.draw(st.sampled_from(["drawn", "zero", "iso"]))
    if kind == "iso":
        c = data.draw(st.integers(1, field.characteristic - 1 if field.characteristic else 3))
        f = Morphism.identity(x).scale(c)
    elif kind == "zero":
        f = Morphism.zero(x, y)
    else:
        f = drawn(x, y)
    for ours, ref in ((kernel, _reference_kernel), (cokernel, _reference_cokernel)):
        got, want = ours(f), ref(f)
        _same_module(got[0], want[0])
        _same_map(got[1], want[1])
    # a map through the projection factors back, and only such maps do
    proj = cokernel(f)[1]
    k = drawn(proj.target, module())
    h = cokernel_factor(proj, k @ proj)
    _same_map(h, _reference_cokernel_factor(proj, k @ proj))
    assert h == k
    if not f.is_zero():
        with pytest.raises(InputError, match="does not factor through the cokernel"):
            cokernel_factor(proj, Morphism.identity(f.target))
    for ours, ref in ((projective_cover, _reference_cover),
                      (injective_envelope, _reference_envelope)):
        got, want = ours(x), ref(x)
        _same_module(got[0], want[0])
        _same_map(got[1], want[1])


# add-factoring, within one part at a time or as all of Hom(x, y) when an end is
# in add(z), against the whole-z pairwise span; F_1048583 runs the object-dtype
# residue path, and the Auslander algebra of kA2 is not self-injective
_ADD_FIELDS = {"F2": prime_field(2), "F5": prime_field(5), "F1048583": prime_field(1048583),
               "Q": rational_field()}
_AUS = "aus-kA2/F5"


@functools.lru_cache(maxsize=None)
def _add_context(name):
    """Preprojective A2 with generator P1+P2+S1, built on first use."""
    alg = preprojective(2, _ADD_FIELDS[name])
    return build_context(alg, [alg.projective("1"), alg.projective("2"), alg.simple("1")],
                         "frobenius")


@functools.lru_cache(maxsize=None)
def _exact_add_context(alg):
    """alg in exact mode with generator the projectives and S1, built on first use."""
    return build_context(alg, alg.projectives() + [alg.simple("1")], "exact")


def _reference_factors_through_add(x, z, y):
    """Every composite b ∘ a of a basis map a: x -> z with a basis map
    b: z -> y, z taken whole."""
    images = compose_pairs(hom_matrix(x, z).data, x, z, hom_matrix(z, y).data, y)
    span = RowSpan(x.algebra.field, hom_width(x, y))
    span.add(images)
    return span


@given(name=st.sampled_from(sorted(_ADD_FIELDS) + [_AUS]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_factors_through_add_matches_the_whole_pairwise_span(small_algebras, name, data):
    """Rows and pivots of the per-part span equal those of the whole-z span,
    for z a module without parts, a sum with a zero part, and U; in half of
    the draws x or y is a part of z or a sum of z's parts, so in add(z)."""
    ctx = _exact_add_context(small_algebras[_AUS]) if name == _AUS else _add_context(name)
    alg = ctx.alg
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]
    kind = data.draw(st.sampled_from(["whole", "zero part", "U"]))
    if kind == "whole":
        z = data.draw(st.sampled_from(pieces))
    elif kind == "zero part":
        z = sum_module([data.draw(st.sampled_from(pieces)), zero_module(alg)])
    else:
        z = ctx.U
    assert (z.parts is None) == (kind == "whole")

    def module(choices, min_size=0):
        return sum_module(data.draw(st.lists(st.sampled_from(choices), min_size=min_size,
                                             max_size=2)), alg)

    x, y = module(pieces), module(pieces)
    end = data.draw(st.sampled_from(["neither", "neither", "x", "y"]))
    if end == "x":
        x = module(z.parts or [z], 1)
    elif end == "y":
        y = module(z.parts or [z], 1)
    assert end == "neither" or in_add(x if end == "x" else y, z)
    got, want = factors_through_add(x, z, y), _reference_factors_through_add(x, z, y)
    assert got.rows.dtype == want.rows.dtype and got.rows.shape == want.rows.shape
    assert [repr(e) for e in got.rows.reshape(-1)] == [repr(e) for e in want.rows.reshape(-1)]
    assert got.pivots == want.pivots


# the subspace through the envelope, and self-injectivity by dimensions, against
# the pairwise span through the sum of the injectives and the in_add form


def _reference_is_self_injective(alg):
    """Every projective in add(injectives) and every injective in add(projectives)."""
    inj, proj = sum_module(alg.injectives()), sum_module(alg.projectives())
    return all(in_add(p, inj) for p in alg.projectives()) and all(
        in_add(i, proj) for i in alg.injectives())


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_through_injectives_matches_the_pairwise_span(small_algebras, data):
    """Rows (dtype, shape, repr of each entry) and pivots of Hom(I(x), y) ∘ ι_x
    equal those of the pairwise span through the sum of the injectives, and
    stable hom picks the same representatives, on algebras that are and are
    not self-injective."""
    alg = small_algebras[data.draw(st.sampled_from(sorted(small_algebras)))]
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]
    x, y = (sum_module(data.draw(st.lists(st.sampled_from(pieces), max_size=2)), alg)
            for _ in range(2))
    got = through_injectives(x, y)
    want = _reference_factors_through_add(x, sum_module(alg.injectives()), y)
    assert got.rows.dtype == want.rows.dtype and got.rows.shape == want.rows.shape
    assert [repr(e) for e in got.rows.reshape(-1)] == [repr(e) for e in want.rows.reshape(-1)]
    assert got.pivots == want.pivots
    assert stable_hom(x, y).rep_indices == QuotientHom(x, y, want).rep_indices


def _assert_quotient_matches_the_reference(x, y, sub):
    """QuotientHom(x, y, sub) against the choice on canonical forms: the
    same indices, and rows and canonical forms of the same dtype, shape and
    entry reprs (``_exact``)."""
    got = QuotientHom(x, y, sub)
    indices, rows, canonicals = reference_quotient_reps(x, y, sub)
    assert got.rep_indices == indices
    for a, b in ((got.rep_rows, rows), (got.rep_canonicals, canonicals)):
        assert _exact(Matrix(sub.field, a)) == _exact(Matrix(sub.field, b))
    return got


def _in_a_fractional_basis(m):
    """m in the basis diag(1/2, 3/2, ...) at its first nonzero vertex."""
    v = next(v for v in m.algebra.vertices if m.dims[v])
    return rebased(m, v, [Fraction(2 * i + 1, 2) for i in range(m.dims[v])])


def test_quotient_hom_matches_the_reference_on_the_row_cases(row_case):
    """Hom, stable hom and the quotient by add(U) on every pair of the
    objects and a zero module, whose hom spaces have width 0. Over Q the
    objects come also in a fractional basis, so that some canonical forms
    hold Fractions."""
    ctx, mods = row_case
    field = ctx.alg.field
    objects = list(mods.values()) + [zero_module(ctx.alg)]
    if field.characteristic is None:
        objects += [_in_a_fractional_basis(m) for m in mods.values()]
    dims, fractions = set(), False
    for x, y in itertools.product(objects, repeat=2):
        for sub in (RowSpan(field, hom_width(x, y)), through_injectives(x, y),
                    factors_through_add(x, ctx.U, y)):
            q = _assert_quotient_matches_the_reference(x, y, sub)
            dims.add(q.dim)
            fractions |= any(type(e) is Fraction for e in q.rep_canonicals.reshape(-1))
    assert 0 in dims
    assert fractions == (field.characteristic is None)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_quotient_hom_matches_the_reference(small_algebras, data):
    """Hom(x, y) modulo the maps through z, x and y zero, one or a sum of
    two simples, projectives, injectives or zero modules, and z one of those
    or x itself, so that the quotient is zero; and modulo the empty span.
    Over Q, x and y may be given in a fractional basis."""
    name = data.draw(st.sampled_from(sorted(small_algebras)))
    alg = small_algebras[name]
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]

    def module():
        m = sum_module(data.draw(st.lists(st.sampled_from(pieces), max_size=2)), alg)
        if name.endswith("/Q") and not m.is_zero() and data.draw(st.booleans()):
            m = _in_a_fractional_basis(m)
        return m

    x, y = module(), module()
    z = data.draw(st.sampled_from(pieces + [x]))
    through = data.draw(st.booleans())
    sub = factors_through_add(x, z, y) if through else RowSpan(alg.field, hom_width(x, y))
    dim = _assert_quotient_matches_the_reference(x, y, sub).dim
    if not through:
        assert dim == hom_dim(x, y)
    elif z is x:
        assert dim == 0


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_cone_sequence_matches_the_pushout_legs(small_algebras, data):
    """The cone sequence of f: X -> Y is exact with inflation (ι_X; -f), and
    the column blocks of its projection are the legs of the pushout of ι_X
    along f, equal by ``Morphism.key``; X and Y are zero, one or a sum of
    two simples, projectives, injectives or zero modules."""
    alg = small_algebras[data.draw(st.sampled_from(sorted(small_algebras)))]
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]
    x, y = (sum_module(data.draw(st.lists(st.sampled_from(pieces), max_size=2)), alg)
            for _ in range(2))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f = combine(x, y, [alg.field.sample(rng) for _ in range(hom_dim(x, y))])
    seq = cone_sequence(f).validate()
    i_x, iota = injective_envelope(x)
    assert seq.i.key == Morphism.vstack([iota, -f]).key
    z, u, g = reference_cone_legs(f)
    assert [leg.key for leg in _split(seq.p, [i_x, y], at_source=True)] == [u.key, g.key]


def test_self_injectivity_matches_the_add_form(small_algebras):
    """Every algebra of the fixture, so each verdict is checked, not sampled."""
    verdicts = {name: is_self_injective(alg) for name, alg in small_algebras.items()}
    for name, alg in small_algebras.items():
        assert verdicts[name] == _reference_is_self_injective(alg), name
    assert {name for name, yes in verdicts.items() if yes} == {
        name for name in small_algebras if name.startswith(("pa2/", "cycle3/"))}


# the greedy approximation and the cover's generators, one elimination each,
# against the one-map-at-a-time bodies kept in helpers


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_approximation_and_cover_match_the_one_map_at_a_time_references(small_algebras, data):
    """The greedy pass equals the pass that tests and adds one basis map at a
    time, and the cover map ``_reference_cover``, which adds one incoming
    arrow's image at a time, by ``Morphism.key``, over F_2, F_5 and Q, on
    algebras that are and are not self-injective. Components repeat and may
    be zero; x is a drawn sum, zero, or a sum of components (in add(T))."""
    names = sorted(n for n in small_algebras if n.endswith(("/F2", "/F5", "/Q")))
    alg = small_algebras[data.draw(st.sampled_from(names))]
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]
    components = data.draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        components.append(data.draw(st.sampled_from(components)))
    kind = data.draw(st.sampled_from(["drawn", "zero", "in add(T)"]))
    if kind == "zero":
        x = zero_module(alg)
    else:
        x = sum_module(data.draw(st.lists(st.sampled_from(
            components if kind == "in add(T)" else pieces), min_size=1, max_size=2)), alg)
    assert (_greedy_approximation(components, x).key
            == reference_greedy_approximation(components, x).key)
    for y in (x, dual_module(x)):
        assert _cover_map(y).key == _reference_cover(y)[1].key


class _Counted:
    """Counts the calls of the ``RowSpan`` methods it wraps."""

    def __init__(self, monkeypatch, names):
        self.calls = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(RowSpan, name, self._wrap(name, getattr(RowSpan, name)))

    def _wrap(self, name, method):
        def counted(span, *args, **kwargs):
            self.calls[name] += 1
            return method(span, *args, **kwargs)
        return counted


@pytest.mark.parametrize("field", [prime_field(2), rational_field()], ids=["F2", "Q"])
def test_approximation_and_cover_eliminate_once_per_component_and_vertex(monkeypatch, field):
    """A cold approximation makes one ``RowSpan.independent`` per component
    with a nonzero map to x and never adds to or tests a span, and a cover
    map never adds to a span: on preprojective A3 with repeated and zero
    components."""
    alg = preprojective(3, field)
    zero = zero_module(alg)
    components = alg.projectives() + [alg.simple("2"), alg.projective("1"), zero]
    x = sum_module([alg.simple("1"), alg.projective("2")])
    dual = dual_module(x)
    dual.algebra.projectives()  # built before counting: building a projective adds to spans
    nonzero = sum(hom_matrix(c, x).rows > 0 for c in components)
    counted = _Counted(monkeypatch, ("add", "contains", "independent"))
    approximation(components, x)
    assert counted.calls == {"add": 0, "contains": 0, "independent": nonzero}
    approximation(components, x)  # a hit eliminates nothing
    assert counted.calls["independent"] == nonzero
    _cover_map(x)
    _cover_map(dual)
    assert counted.calls["add"] == 0
