import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest

from frobcat.errors import InputError, InternalCheckError
from frobcat.exact_linalg import Matrix, rational_field, solve_in_span
from frobcat.algebra_repr import (
    _blocks,
    Morphism,
    compose_pairs,
    direct_sum,
    hom_basis,
    hom_matrix,
    hom_width,
    preprojective,
    zero_module,
)
from frobcat import homological, localization
from frobcat.homological import cosyzygy, in_add, stable_hom
from frobcat.axiom_suite import _sample_morphism, default_objects, sample_universe
from frobcat.rigid_model import build_context, cofibrant_replacement, is_weak_equivalence
from frobcat.localization import (
    EbarModule,
    G_morphism,
    G_object,
    _G_replacement,
    _g_images,
    _transport,
    dl_verify,
    dl_verify_all,
    ebar_hom_basis,
    fraction_to_ho,
    ho_class,
    ho_class_of,
    ho_compose,
    ho_hom,
    stable_endo,
)
from helpers import ho_class_is_zero, reference_inverse


def ho_identity(ctx, x):
    """The class of the identity of x."""
    return ho_class_of(ctx, Morphism.identity(x))


def test_stable_endo_dims(pa2_ctx, pa2_deg_ctx, semi_ctx):
    assert stable_endo(pa2_ctx).dim == 1  # only the class of id_{S1} survives
    assert stable_endo(pa2_deg_ctx).dim == 0
    assert stable_endo(semi_ctx).dim == 0


def test_stable_endo_unit_and_associativity(pa2_ctx):
    endo = stable_endo(pa2_ctx)
    g = G_object(pa2_ctx, pa2_ctx.M_gen)
    assert g.verify(endo)


def test_ebar_module_verify_holds_and_detects_a_changed_entry(row_case):
    # G(x) is a right module: ρ(e_i ∘ e_j) = ρ(e_j) ρ(e_i). On pa2+S1+S1 the
    # stable endomorphism algebra is the 2 x 2 matrices, where the other
    # order fails for S1 and S1+S1.
    ctx, mods = row_case
    endo = stable_endo(ctx)
    field = ctx.alg.field
    for x in mods.values():
        g = G_object(ctx, x)
        assert g.verify(endo)
        for j, r, c in itertools.product(range(endo.dim), range(g.dim), range(g.dim)):
            bad = g.action.copy()
            bad[j, r, c] = field.coerce(bad[j, r, c] + 1)
            assert not EbarModule(g.dim, bad).verify(endo)


def test_G_object_dims(pa2_ctx, pa2):
    alg, mods = pa2
    endo = stable_endo(pa2_ctx)
    expected = {"S1": 1, "S2": 0, "P1": 0, "P2": 0}
    for name, want in expected.items():
        g = G_object(pa2_ctx, mods[name])
        assert g.dim == want
        assert g.verify(endo)


def test_G_functoriality(pa2_ctx, pa2):
    alg, mods = pa2
    objs = list(mods.values())
    for x, y, z in itertools.product(objs, repeat=3):
        for g in hom_basis(x, y):
            for f in hom_basis(y, z):
                assert G_morphism(pa2_ctx, f @ g) == (
                    G_morphism(pa2_ctx, f) @ G_morphism(pa2_ctx, g)
                )


def test_G_detects_weak_equivalences(pa2_ctx, pa2):
    alg, mods = pa2
    rng = random.Random(23)
    objs = list(mods.values())
    for _ in range(60):
        x, y = rng.choice(objs), rng.choice(objs)
        f = Morphism.zero(x, y)
        for h in hom_basis(x, y):
            f = f + h.scale(alg.field.sample(rng))
        g = G_morphism(pa2_ctx, f)
        one = Matrix.identity(alg.field, g.rows).data
        invertible = g.rows == g.cols and solve_in_span(alg.field, g.data, one) is not None
        assert invertible == is_weak_equivalence(pa2_ctx, f)


@pytest.mark.parametrize("shape", [(1, 2), (1, 1)], ids=["non-square", "singular"])
def test_a_g_image_of_a_replacement_that_is_not_invertible_is_refused(pa2, shape, monkeypatch):
    alg, mods = pa2
    ctx = build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "frobenius")
    monkeypatch.setattr(localization, "G_morphism", lambda ctx, f: Matrix.zeros(alg.field, *shape))
    with pytest.raises(InternalCheckError, match="invertible G-image"):
        _G_replacement(ctx, mods["S1"])


def test_ho_hom_dims(pa2_ctx, pa2):
    alg, mods = pa2
    names = list(mods)
    for xn, yn in itertools.product(names, repeat=2):
        want = 1 if (xn, yn) == ("S1", "S1") else 0
        assert ho_hom(pa2_ctx, mods[xn], mods[yn]).dim == want


def test_ho_hom_invariant_under_weq_substitution(pa2_ctx, pa2):
    # replacing either side by a weakly equivalent object: pad with the
    # cosyzygy of a generator summand, which is zero in the localization
    alg, mods = pa2
    mho = pa2_ctx.mho_M_gen
    for xn, yn in [("S1", "S1"), ("S1", "P2"), ("S2", "S1")]:
        x, y = mods[xn], mods[yn]
        padded_x, _, _ = direct_sum([x, mho])
        padded_y, _, _ = direct_sum([y, mho])
        base = ho_hom(pa2_ctx, x, y).dim
        assert ho_hom(pa2_ctx, padded_x, y).dim == base
        assert ho_hom(pa2_ctx, x, padded_y).dim == base


def test_ho_compose(pa2_ctx, pa2):
    alg, mods = pa2
    s1 = mods["S1"]
    q = ho_hom(pa2_ctx, s1, s1)
    assert q.dim == 1
    cls = ho_class(pa2_ctx, s1, s1, Morphism.from_vec(q.x, q.y, q.rep_rows[0]))
    assert cls.canonical == tuple(q.rep_canonicals[0])
    ident = ho_identity(pa2_ctx, s1)
    assert ho_compose(cls, ident) == cls
    assert ho_compose(ident, cls) == cls
    zero = ho_class(pa2_ctx, s1, s1, Morphism.zero(q.x, q.y))
    assert ho_class_is_zero(ho_compose(cls, zero))
    with pytest.raises(InputError, match="fixed replacements"):
        ho_class(pa2_ctx, s1, s1, Morphism.identity(s1))
    # associativity over random representative triples
    rng = random.Random(5)
    reps = hom_basis(q.x, q.y)
    for _ in range(20):
        picks = [ho_class(pa2_ctx, s1, s1, rng.choice(reps)) for _ in range(3)]
        a, b, c = picks
        assert ho_compose(ho_compose(a, b), c) == ho_compose(a, ho_compose(b, c))


def test_fraction_with_identity_denominator(pa2_ctx, pa2):
    alg, mods = pa2
    ident = Morphism.identity(mods["S1"])
    assert fraction_to_ho(pa2_ctx, ident, ident) == ho_class_of(pa2_ctx, ident)


def test_fraction_of_weq_is_identity(pa2_ctx, pa2):
    alg, mods = pa2
    s = Morphism.zero(zero_module(alg), mods["S2"])
    assert fraction_to_ho(pa2_ctx, s, s) == ho_identity(pa2_ctx, mods["S2"])


def test_fraction_zero_class(pa2_ctx, pa2):
    alg, mods = pa2
    z = zero_module(alg)
    s = Morphism.zero(z, mods["S2"])
    cls = fraction_to_ho(pa2_ctx, Morphism.zero(z, mods["S1"]), s)
    assert ho_class_is_zero(cls)
    assert ho_hom(pa2_ctx, mods["S2"], mods["S1"]).dim == 0


def test_fraction_denominator_contract(pa2_ctx, pa2):
    alg, mods = pa2
    not_weq = Morphism.zero(zero_module(alg), mods["S1"])
    with pytest.raises(InputError, match="weak equivalence"):
        fraction_to_ho(pa2_ctx, not_weq, not_weq)


def test_fractions_equal(pa2_ctx, pa2):
    alg, mods = pa2
    ident = Morphism.identity(mods["S1"])
    zero = Morphism.zero(mods["S1"], mods["S1"])
    assert fraction_to_ho(pa2_ctx, ident, ident) == fraction_to_ho(pa2_ctx, ident, ident)
    assert fraction_to_ho(pa2_ctx, ident, ident) != fraction_to_ho(pa2_ctx, zero, ident)
    # morphisms differing by a map through the class generator are equal
    s2 = mods["S2"]
    id2 = Morphism.identity(s2)
    zero2 = Morphism.zero(s2, s2)
    assert fraction_to_ho(pa2_ctx, id2, id2) == fraction_to_ho(pa2_ctx, zero2, id2)


def test_fraction_refinement_invariance(pa2_ctx, pa2):
    alg, mods = pa2
    ident = Morphism.identity(mods["S1"])
    u = cofibrant_replacement(pa2_ctx, mods["S1"]).phi  # a weak equivalence
    assert fraction_to_ho(pa2_ctx, ident, ident) == fraction_to_ho(pa2_ctx, ident @ u, ident @ u)


def test_dl_verify_fixture_pairs(pa2_ctx, pa2):
    alg, mods = pa2
    reports = dl_verify_all(pa2_ctx, sorted(mods.items()))
    assert all(r.passed for r in reports)
    nonzero = {(r.pair): r.dim_ho for r in reports if r.dim_ho}
    assert nonzero == {("S1", "S1"): 1}


def test_dl_verify_degenerate(pa2_deg_ctx, semi_ctx, pa2):
    alg, mods = pa2
    for r in dl_verify_all(pa2_deg_ctx, sorted(mods.items())):
        assert r.passed and r.dim_ho == 0 and r.dim_mod == 0
    semi_alg = semi_ctx.alg
    for r in dl_verify_all(semi_ctx, [("S1", semi_alg.simple("1"))]):
        assert r.passed and r.dim_ho == 0


def test_dl_verify_passes_on_its_sub_verdicts(pa2_ctx, pa2, pa3_ctx, pa3_s_ctx, pa3):
    for ctx, mods in [(pa2_ctx, pa2[1]), (pa3_ctx, pa3[1]), (pa3_s_ctx, pa3[1])]:
        for r in dl_verify_all(ctx, sorted(mods.items())):
            parts = (r.dim_ho == r.dim_mod, r.well_defined, r.in_mod_span, r.injective,
                     r.composition_ok)
            assert all(isinstance(p, bool) for p in parts)
            assert r.passed == all(parts)
            assert r.passed


def _cold_warm_cases(pa2, pa3, a2q, small_algebras):
    """(algebra, generator, mode, named objects) for the cache test: pa2, pa3
    over its projectives, A2/Q with S1+S1 from the fixture next to the
    two-fold sums of the simples (one of them S1+S1 again, built
    separately), and the Auslander algebra of kA2 over F_5 in exact mode."""
    alg2, m2 = pa2
    alg3, m3 = pa3
    ctx_q, mq = a2q
    sums = sample_universe(ctx_q, [("S1", mq["S1"]), ("S2", mq["S2"])])
    aus = small_algebras["aus-kA2/F5"]
    aus_ctx = build_context(aus, aus.projectives() + [aus.simple("1")], "exact")
    return [
        (alg2, [m2["P1"], m2["P2"], m2["S1"]], "frobenius", sorted(m2.items())),
        (alg3, [m3["P1"], m3["P2"], m3["P3"]], "frobenius", sorted(m3.items())),
        (ctx_q.alg, ctx_q.components, ctx_q.mode,
         sums + [(n, mq[n]) for n in ("P1", "P2", "S1+S1")]),
        (aus, aus_ctx.components, "exact", default_objects(aus_ctx)),
    ]


def test_dl_verify_is_the_same_from_cold_and_warm_caches(pa2, pa3, a2q, small_algebras):
    """dl_verify_all on one context, whose per-object G stores fill as it
    goes, reports field for field what dl_verify reports for each pair on a
    fresh context; afterwards each store holds one entry per object key."""
    for alg, gen, mode, named in _cold_warm_cases(pa2, pa3, a2q, small_algebras):
        ctx = build_context(alg, gen, mode)
        warm = dl_verify_all(ctx, named)
        cold = [dl_verify(build_context(alg, gen, mode), x, y, names=(xn, yn))
                for xn, x in named for yn, y in named]
        assert [dataclasses.astuple(r) for r in warm] == [dataclasses.astuple(r) for r in cold]
        assert all(r.passed for r in warm)
        keys = {x.key for _, x in named}
        assert set(ctx._caches["G"]) == set(ctx._caches["G_phi"]) == keys


def test_dl_verify_builds_one_pairwise_span_per_object_in_add_and_per_other_pair(monkeypatch):
    """On the a3q-dlverify benchmark's inputs (preprojective A3/Q, generator
    P1+P2+P3+S1, its default objects) dl-verify builds 7 spans of
    composites, not one per pair: 6 in_add spans for the verdicts of the
    distinct replacements and 1 pairwise span for (S1, S1), the one pair
    with neither end in add(U). The in_add verdicts, on those replacements
    and on U's components, are the same from a cleared module store as
    after the run."""
    alg = preprojective(3, rational_field())
    ctx = build_context(alg, alg.projectives() + [alg.simple("1")], "frobenius")
    named = default_objects(ctx)
    pairwise, calls = homological._pairwise_span, []
    monkeypatch.setattr(homological, "_pairwise_span",
                        lambda *args: calls.append(args) or pairwise(*args))
    through, builds = homological._identity_through, []
    monkeypatch.setattr(homological, "_identity_through",
                        lambda *args: builds.append(args) or through(*args))
    assert all(r.passed for r in dl_verify_all(ctx, named))
    assert len(named) == 7 and len(builds) == 6 and len(calls) == 1
    replacements = [cofibrant_replacement(ctx, x).a for _, x in named]
    s1 = replacements[[name for name, _ in named].index("S1")]
    assert calls[0][0].key == calls[0][2].key == s1.key
    assert [in_add(a, ctx.U) for a in replacements] == [name != "S1" for name, _ in named]
    assert len(builds) == 6  # the run cached each of these verdicts
    modules = replacements + list(ctx.U.parts)
    warm = [in_add(m, ctx.U) for m in modules]
    alg._module_cache.clear()
    assert [in_add(m, ctx.U) for m in modules] == warm
    assert all(warm[len(replacements):])


def test_ebar_hom_matches_report(pa2_ctx, pa2):
    alg, mods = pa2
    gx = G_object(pa2_ctx, mods["S1"])
    gy = G_object(pa2_ctx, mods["S1"])
    basis = ebar_hom_basis(pa2_ctx, gx, gy)
    assert (basis.rows, basis.cols) == (1, gy.dim * gx.dim)
    empty = ebar_hom_basis(pa2_ctx, gx, G_object(pa2_ctx, mods["S2"]))
    assert (empty.rows, empty.cols) == (0, 0)


# -- the per-morphism forms that the row-stack G side replaced, kept as references


def _reps(space, source):
    """The stable representatives as morphisms space.x -> source."""
    return [Morphism.from_vec(space.x, source, row) for row in space.rep_rows]


def _reference_G_morphism(ctx, f):
    sx = ctx.stable_from_generator(f.source)
    sy = ctx.stable_from_generator(f.target)
    m = Matrix.zeros(ctx.alg.field, sy.dim, sx.dim)
    for col, h in enumerate(_reps(sx, f.source)):
        m.data[:, col] = sy.coords((f @ h).vec())
    return m


def _reference_stable_endo(ctx):
    """(basis, structure constants, unit) of the stable endomorphism algebra,
    taken from the whole generator, injective summands included."""
    space = stable_hom(ctx.M_gen, ctx.M_gen)
    reps = _reps(space, ctx.M_gen)
    table = [[space.coords((ei @ ej).vec()) for ej in reps] for ei in reps]
    if reps:
        unit = space.coords(Morphism.identity(ctx.M_gen).vec())
    else:
        unit = np.empty(0, dtype=ctx.alg.field.dtype)
    return reps, table, unit


def _reference_G_object(ctx, x):
    space = stable_hom(ctx.M_gen, x)
    n = space.dim
    action = []
    for e in _reference_stable_endo(ctx)[0]:
        m = Matrix.zeros(ctx.alg.field, n, n)
        for col, h in enumerate(_reps(space, x)):
            m.data[:, col] = space.coords((h @ e).vec())
        action.append(m)
    return action


def _reference_g_transport(ctx, x, y, rep):
    rx = cofibrant_replacement(ctx, x)
    ry = cofibrant_replacement(ctx, y)
    inv = reference_inverse(_reference_G_morphism(ctx, rx.phi))
    return _reference_G_morphism(ctx, ry.phi) @ _reference_G_morphism(ctx, rep) @ inv


def _assert_same(new, ref):
    """Equal entries, shape and dtype."""
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert new.dtype == ref.dtype
    assert np.array_equal(new, ref)
    assert [str(v) for v in new.reshape(-1)] == [str(v) for v in ref.reshape(-1)]


def _assert_same_stack(stack, refs, shape):
    """A (k, rows, cols) stack against k reference matrices of that shape."""
    assert stack.shape == (len(refs), *shape)
    for image, ref in zip(stack, refs):
        assert ref.data.shape == shape
        _assert_same(image, ref.data)


def _costable_coords(ctx):
    """The coordinates of End(costable_gen) inside End(M_gen): at each vertex,
    the rows and the columns of the components whose cosyzygy is nonzero."""
    m = ctx.M_gen
    index = []
    for v, grid in _blocks(np.arange(hom_width(m, m))[None], m, m):
        kept, start = [], 0
        for comp in ctx.components:
            if not cosyzygy(comp)[0].is_zero():
                kept += range(start, start + comp.dims[v])
            start += comp.dims[v]
        index += grid[0][np.ix_(kept, kept)].reshape(-1).tolist()
    return np.array(index, dtype=int)


def test_stable_endo_matches_the_reference(row_case):
    """Stable endos of the costable generator against those of the whole
    generator: the same table and unit, and each representative of the
    whole generator is zero outside the costable x costable block, where it
    equals the costable one."""
    ctx, _ = row_case
    endo = stable_endo(ctx)
    reps, table, unit = _reference_stable_endo(ctx)
    assert endo.dim == len(reps) == len(endo.basis)
    index = _costable_coords(ctx)
    outside = np.setdiff1d(np.arange(hom_matrix(ctx.M_gen, ctx.M_gen).cols), index)
    assert len(index) == hom_matrix(ctx.costable_gen, ctx.costable_gen).cols
    for row, e in zip(endo.basis, reps):
        _assert_same(row, e.vec()[index])
        assert not np.any(e.vec()[outside] != 0)
    k = len(reps)
    assert endo.table.shape == (k, k, k)
    for i, j in itertools.product(range(k), repeat=2):
        _assert_same(endo.table[i, j], table[i][j])
    _assert_same(endo.unit, unit)


def test_G_object_matches_the_reference(row_case):
    ctx, mods = row_case
    for x in mods.values():
        g = G_object(ctx, x)
        refs = _reference_G_object(ctx, x)
        assert g.dim == ctx.stable_from_generator(x).dim
        assert g.action.shape == (len(refs), g.dim, g.dim)
        for new, ref in zip(g.action, refs):
            _assert_same(new, ref.data)


def _reference_is_weak_equivalence(ctx, f):
    """Postcomposition by f is bijective on stable hom from the whole
    generator, one representative at a time."""
    sx, sy = stable_hom(ctx.M_gen, f.source), stable_hom(ctx.M_gen, f.target)
    if sx.dim != sy.dim:
        return False
    if sx.dim == 0:
        return True
    cols = [sy.canonical((f @ h).vec()) for h in _reps(sx, f.source)]
    return Matrix(ctx.alg.field, np.vstack(cols)).rank() == sy.dim


@pytest.mark.parametrize("field", ["F2", "F5", "Q"])
def test_costable_generator_on_the_auslander_algebra_of_ka2(small_algebras, field):
    """Exact mode, generator P1+P2+P3+S1, where P1, P2 and S1 are injective:
    the costable generator is P3, the stable endos and G-images agree with
    the whole generator's, and so do 300 sampled weak-equivalence verdicts."""
    alg = small_algebras[f"aus-kA2/{field}"]
    ctx = build_context(alg, alg.projectives() + [alg.simple("1")], "exact")
    assert ctx.costable_gen.key == alg.projective("3").key
    endo = stable_endo(ctx)
    _, table, unit = _reference_stable_endo(ctx)
    assert endo.dim == len(table) == 1
    _assert_same(endo.table[0, 0], table[0][0])
    _assert_same(endo.unit, unit)
    universe = sample_universe(ctx, None)
    for _, x in universe:
        g, refs = G_object(ctx, x), _reference_G_object(ctx, x)
        assert g.action.shape == (len(refs), g.dim, g.dim)
        for new, ref in zip(g.action, refs):
            _assert_same(new, ref.data)
    rng = random.Random(17)
    verdicts = set()
    for _ in range(300):
        f = _sample_morphism(ctx, rng, universe)
        verdict = is_weak_equivalence(ctx, f)
        assert verdict == _reference_is_weak_equivalence(ctx, f)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_costable_generator_of_an_all_injective_generator(pa2_deg_ctx):
    """Over P1+P2 every summand is injective: the costable generator is zero,
    the stable endomorphism algebra is zero, and every map is a weak
    equivalence."""
    ctx = pa2_deg_ctx
    assert ctx.costable_gen.is_zero()
    assert stable_endo(ctx).dim == 0
    universe = sample_universe(ctx, None)
    rng = random.Random(3)
    for _ in range(100):
        f = _sample_morphism(ctx, rng, universe)
        assert is_weak_equivalence(ctx, f) and _reference_is_weak_equivalence(ctx, f)


def test_G_images_match_the_reference(row_case):
    ctx, mods = row_case
    for x, y in itertools.product(mods.values(), repeat=2):
        basis = hom_basis(x, y)
        refs = [_reference_G_morphism(ctx, f) for f in basis]
        shape = (ctx.stable_from_generator(y).dim, ctx.stable_from_generator(x).dim)
        _assert_same_stack(_g_images(ctx, x, y, hom_matrix(x, y).data), refs, shape)
        for f, ref in zip(basis, refs):
            _assert_same(G_morphism(ctx, f).data, ref.data)


def test_transport_matches_the_reference(row_case):
    ctx, mods = row_case
    field = ctx.alg.field
    for (xn, x), (yn, y) in itertools.product(mods.items(), repeat=2):
        q = ho_hom(ctx, x, y)
        transport = _transport(ctx, x, y)
        shape = (G_object(ctx, y).dim, G_object(ctx, x).dim)
        reps = [Morphism.from_vec(q.x, q.y, row) for row in q.rep_rows]
        refs = [_reference_g_transport(ctx, x, y, r) for r in reps]
        _assert_same_stack(transport(q.rep_rows), refs, shape)
        sub = [_reference_g_transport(ctx, x, y, Morphism.from_vec(q.x, q.y, row))
               for row in q.sub.rows]
        _assert_same_stack(transport(q.sub.rows), sub, shape)
        assert all(m.is_zero() for m in sub)
        if x.key == y.key:
            # row i * k + j of the pairwise composites is rep_j ∘ rep_i
            pairs = [_reference_g_transport(ctx, x, y, b @ a) for a in reps for b in reps]
            _assert_same_stack(transport(compose_pairs(q.rep_rows, q.x, q.x, q.rep_rows, q.x)),
                               pairs, shape)
        # the checksum is the digest of the reference images
        digest = hashlib.sha256()
        for ref in refs:
            for entry in ref.format_entries():
                digest.update(entry.encode())
            digest.update(b"|")
        report = dl_verify(ctx, x, y, names=(xn, yn))
        assert report.passed
        assert report.checksum == digest.hexdigest()[:16]
        assert report.dim_ho == len(refs)
