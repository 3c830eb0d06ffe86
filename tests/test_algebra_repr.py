import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from frobcat import algebra_repr, exact_linalg
from frobcat.errors import InputError
from frobcat.exact_linalg import (Matrix, RowSpan, intertwiners, prime_field, rational_field,
                                  solve_in_span)
from frobcat.algebra_repr import (
    Algebra,
    Module,
    Morphism,
    ShortExactSequence,
    algebra_from_dict,
    cokernel,
    cokernel_factor,
    combine,
    compose_basis,
    compose_pairs,
    direct_sum,
    enumerate_submodules,
    hom_basis,
    hom_dim,
    hom_matrix,
    hom_width,
    is_epi,
    is_iso,
    is_mono,
    kernel,
    preprojective,
    pullback,
    pushout,
    sum_module,
    zero_module,
    _PathElt,
)
from frobcat.homological import solve_postcompose
from helpers import path_basis

F5 = prime_field(5)
Q = rational_field()

# hom dimensions of the A2 preprojective fixture, rows are sources in the
# order S1, S2, P1, P2 (hand-solved intertwiner systems)
PA2_HOM_DIMS = {
    ("S1", "S1"): 1, ("S1", "S2"): 0, ("S1", "P1"): 0, ("S1", "P2"): 1,
    ("S2", "S1"): 0, ("S2", "S2"): 1, ("S2", "P1"): 1, ("S2", "P2"): 0,
    ("P1", "S1"): 1, ("P1", "S2"): 0, ("P1", "P1"): 1, ("P1", "P2"): 1,
    ("P2", "S1"): 0, ("P2", "S2"): 1, ("P2", "P1"): 1, ("P2", "P2"): 1,
}


def test_load_algebra_single_vertex():
    alg = algebra_from_dict({
        "field": {"kind": "rational"},
        "vertices": ["v"],
        "arrows": [],
        "relations": [],
    })
    assert alg.dim == 1


def test_load_algebra_pa2():
    alg = algebra_from_dict({
        "field": {"kind": "prime", "p": 5},
        "vertices": ["1", "2"],
        "arrows": [
            {"name": "a", "from": "1", "to": "2"},
            {"name": "a*", "from": "2", "to": "1"},
        ],
        "relations": [
            [{"coeff": "1", "path": ["a", "a*"]}],
            [{"coeff": "4", "path": ["a*", "a"]}],
        ],
    })
    assert alg.dim == 4
    assert path_basis(alg) == [("1", ()), ("2", ()), ("1", ("a",)), ("2", ("a*",))]


def test_loop_square_zero():
    alg = Algebra(Q, ["v"], [("x", "v", "v")], [[("1", ("x", "x"))]])
    assert alg.dim == 2


def test_load_algebra_errors():
    with pytest.raises(InputError):
        Algebra(Q, ["v", "v"], [])
    with pytest.raises(InputError):
        Algebra(Q, ["v"], [("x", "v", "v"), ("x", "v", "v")])
    with pytest.raises(InputError):
        Algebra(Q, ["v"], [("x", "v", "v")], [[("1", ("x",))]])  # length-1 relation
    with pytest.raises(InputError):
        Algebra(Q, ["v"], [("x", "v", "v")], [])  # infinite dim


def test_homogeneous_nonmonomial_relations():
    # commuting square with both outer composites killed: one surviving
    # length-2 path class, total dimension 3 + 4 + 1
    alg = Algebra(
        Q,
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2"), ("d", "2", "3")],
        [
            [("1", ("a", "b")), ("-1", ("c", "d"))],
            [("1", ("a", "d"))],
            [("1", ("c", "b"))],
        ],
    )
    assert alg.dim == 8


def test_mixed_length_system_is_rejected_not_missized():
    # (x^2 - x^3, x^4) forces x^2 = 0, which naive path reduction cannot
    # reach; the construction must reject rather than return a wrong quotient
    with pytest.raises(InputError):
        Algebra(
            Q,
            ["v"],
            [("x", "v", "v")],
            [
                [("1", ("x", "x")), ("-1", ("x", "x", "x"))],
                [("1", ("x", "x", "x", "x"))],
            ],
        )


def test_preprojective_small():
    assert preprojective(1, Q).dim == 1
    a2 = preprojective(2, F5)
    assert a2.dim == 4
    assert len(a2.relations) == 2
    assert preprojective(3, F5).dim == 10


def test_validate_module(pa2):
    alg, mods = pa2
    with pytest.raises(InputError, match="module violates relations: relation"):
        Module.from_dict(alg, {"dims": {"1": 1, "2": 1}, "action": {"a1": [1], "a1*": [1]}})


def test_hom_dims_table(pa2):
    alg, mods = pa2
    for (xn, yn), expected in PA2_HOM_DIMS.items():
        assert len(hom_basis(mods[xn], mods[yn])) == expected, (xn, yn)


def test_hom_into_zero(pa2):
    alg, mods = pa2
    assert hom_basis(mods["P1"], zero_module(alg)) == []


def test_yoneda_counts(pa2):
    alg, mods = pa2
    for v in alg.vertices:
        p = alg.projective(v)
        for x in mods.values():
            assert len(hom_basis(p, x)) == x.dims[v]


def test_kernel_of_identity(pa2):
    alg, mods = pa2
    k, _ = kernel(Morphism.identity(mods["P2"]))
    assert k.total_dim == 0


def test_kernel_cokernel_examples(pa2):
    alg, mods = pa2
    top = hom_basis(mods["P2"], mods["S2"])[0]
    k, inc = kernel(top)
    assert k.dims_tuple() == (1, 0)  # the socle S1
    assert is_mono(inc)
    c, proj = cokernel(hom_basis(mods["S1"], mods["P2"])[0])
    assert c.dims_tuple() == (0, 1)  # the top S2
    assert is_epi(proj)


def test_kernel_universal_property(pa2):
    alg, mods = pa2
    rng = random.Random(3)
    top = hom_basis(mods["P2"], mods["S2"])[0]
    k, inc = kernel(top)
    for x in mods.values():
        for g in hom_basis(x, mods["P2"]):
            if not (top @ g).is_zero():
                continue
            h = solve_postcompose(inc, g)
            assert h is not None and (inc @ h) == g


def test_cokernel_universal_property(pa2):
    alg, mods = pa2
    f = hom_basis(mods["S1"], mods["P2"])[0]
    c, proj = cokernel(f)
    for x in mods.values():
        for g in hom_basis(mods["P2"], x):
            if not (g @ f).is_zero():
                continue
            h = cokernel_factor(proj, g)
            assert (h @ proj) == g


def test_direct_sum_empty(pa2):
    alg, _ = pa2
    z, injs, projs = direct_sum([], algebra=alg)
    assert z.total_dim == 0 and injs == [] and projs == []


def test_direct_sum_assembly(pa2):
    alg, mods = pa2
    t, _, _ = direct_sum([mods["S1"], mods["S2"]])
    assert t.dims_tuple() == (1, 1)
    assert all(t.action[a.name].is_zero() for a in alg.arrows)
    t2, _, _ = direct_sum([mods["P1"], mods["P1"]])
    assert t2.dims_tuple() == (2, 2)


def test_direct_sum_identity_decomposition(pa2):
    alg, mods = pa2
    t, injs, projs = direct_sum([mods["P1"], mods["S1"], mods["P2"]])
    total = Morphism.zero(t, t)
    for inj, proj in zip(injs, projs):
        total = total + (inj @ proj)
        assert (proj @ inj) == Morphism.identity(inj.source)
    assert total == Morphism.identity(t)


def test_pushout_of_identity(pa2):
    alg, mods = pa2
    d, b, c = pushout(Morphism.identity(mods["P1"]), Morphism.identity(mods["P1"]))
    assert is_iso(b) and is_iso(c)


def test_pushout_inflation_gives_exact_sequence(pa2):
    # pushout of an inflation along anything: A -> B ⊕ C -> D is short exact
    alg, mods = pa2
    rng = random.Random(5)
    inflation = hom_basis(mods["S1"], mods["P2"])[0]
    for x in mods.values():
        for g in hom_basis(mods["S1"], x):
            d, to_b, to_c = pushout(inflation, g)
            t, injs, _ = direct_sum([mods["P2"], x])
            mid = (injs[0] @ inflation) - (injs[1] @ g)
            quot = (to_b @ _proj_of(t, [mods["P2"], x], 0)) + (
                to_c @ _proj_of(t, [mods["P2"], x], 1)
            )
            ShortExactSequence(mid, quot).validate()
            assert is_mono(to_c)  # pushout of an inflation is an inflation


def _proj_of(total, parts, index):
    _, _, projections = direct_sum(parts)
    return Morphism(total, projections[index].target, projections[index].comps)


def test_pullback_of_epi_along_zero(pa2):
    alg, mods = pa2
    top = hom_basis(mods["P2"], mods["S2"])[0]
    e, _, _ = pullback(top, Morphism.zero(zero_module(alg), mods["S2"]))
    assert e.dims_tuple() == (1, 0)


def test_pullback_square_commutes(pa2):
    alg, mods = pa2
    top = hom_basis(mods["P2"], mods["S2"])[0]
    other = hom_basis(mods["S2"], mods["S2"])[0]
    e, to_b, to_c = pullback(top, other)
    assert (top @ to_b) == (other @ to_c)


def test_mono_epi_iso(pa2):
    alg, mods = pa2
    assert is_iso(Morphism.identity(mods["P1"]))
    soc = hom_basis(mods["S1"], mods["P2"])[0]
    assert is_mono(soc) and not is_epi(soc)
    top = hom_basis(mods["P2"], mods["S2"])[0]
    assert is_epi(top) and not is_mono(top)
    theta = Morphism.identity(mods["P1"]).scale(2)
    assert is_iso(theta)


def test_enumerate_submodules(pa2):
    alg, mods = pa2
    zero = zero_module(alg)
    assert [s.dims_tuple() for s, _ in enumerate_submodules(zero)] == [(0, 0)]
    s1_subs = sorted(s.dims_tuple() for s, _ in enumerate_submodules(mods["S1"]))
    assert s1_subs == [(0, 0), (1, 0)]
    p2_subs = sorted(s.dims_tuple() for s, _ in enumerate_submodules(mods["P2"]))
    assert p2_subs == [(0, 0), (1, 0), (1, 1)]  # 0, socle, all
    for sub, inc in enumerate_submodules(mods["P2"]):
        assert is_mono(inc)


def test_enumerate_submodules_contracts(pa2):
    alg, mods = pa2
    with pytest.raises(InputError):
        enumerate_submodules(preprojective(2, Q).projective("1"))
    big, _, _ = direct_sum([mods["P1"]] * 4)
    with pytest.raises(InputError):
        enumerate_submodules(big)


def test_algebra_round_trip(pa2):
    alg, mods = pa2
    again = algebra_from_dict(alg.to_dict())
    assert again.dim == alg.dim
    assert path_basis(again) == path_basis(alg)


def test_module_morphism_round_trip(pa2):
    alg, mods = pa2
    m = Module.from_dict(alg, mods["P1"].to_dict())
    assert m.key == mods["P1"].key
    f = hom_basis(mods["P1"], mods["P2"])[0]
    g = Morphism.from_dict(f.to_dict("P1", "P2"), mods["P1"], mods["P2"])
    assert g == f


def test_morphism_intertwiner_enforced(pa2):
    alg, mods = pa2
    with pytest.raises(InputError, match="components do not intertwine the arrow actions"):
        Morphism.from_dict({"comps": {"1": [1], "2": [2]}}, mods["P1"], mods["P1"])


def test_sum_and_difference_refuse_maps_that_are_not_parallel(pa2):
    """P1 and P2 have equal dims but are different modules, so their
    identities are not parallel; S1 and S2 do not even share dims."""
    alg, mods = pa2
    p1, p2 = Morphism.identity(mods["P1"]), Morphism.identity(mods["P2"])
    assert mods["P1"].dims == mods["P2"].dims
    s1, s2 = Morphism.identity(mods["S1"]), Morphism.identity(mods["S2"])
    for f, g in ((p1, p2), (s1, s2)):
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(InputError, match="morphisms must be parallel"):
                op(f, g)
    assert (p1 - p1).is_zero() and (p1 + p1) == p1.scale(2)


def test_opposite_is_involutive(pa2):
    alg, _ = pa2
    assert alg.opposite().opposite() is alg
    assert alg.opposite().dim == alg.dim


def _reference_combine(x, y, coeffs):
    """The zero-start scale-and-add loop that combine replaces."""
    out = Morphism.zero(x, y)
    for h, c in zip(hom_basis(x, y), coeffs):
        if c != 0:
            out = out + h.scale(c)
    return out


# F_1048573 is the largest prime below 2^20, the top of the int64 residue path
_PA2_BY_FIELD = {
    name: preprojective(2, field)
    for name, field in (("F2", prime_field(2)), ("F5", prime_field(5)),
                        ("F1048573", prime_field(1048573)), ("Q", rational_field()))
}


@given(field_name=st.sampled_from(sorted(_PA2_BY_FIELD)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_combine_and_solve_in_span_match_the_reference(field_name, data):
    alg = _PA2_BY_FIELD[field_name]
    field = alg.field
    indecomposables = alg.simples() + alg.projectives()

    def module():
        picks = data.draw(st.lists(st.sampled_from(indecomposables), min_size=1, max_size=2))
        return direct_sum(picks)[0]

    def scalars(n):
        ints = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return [field.coerce(c) for c in ints]

    x, y, z = module(), module(), module()
    coeffs = scalars(hom_dim(x, y))
    got = combine(x, y, coeffs)
    want = _reference_combine(x, y, coeffs)
    assert got == want
    assert got.to_dict("x", "y") == want.to_dict("x", "y")

    f = combine(y, z, scalars(hom_dim(y, z)))
    images = [(f @ h).vec() for h in hom_basis(x, y)]
    width = (f @ got).vec().size
    span = RowSpan(field, width)
    span.add(images)
    inside = (f @ combine(x, y, scalars(hom_dim(x, y)))).vec()
    outside = np.array(scalars(width), dtype=field.dtype)
    for rhs in ((f @ got).vec(), outside):
        sol = solve_in_span(field, images, rhs)
        assert (sol is None) == (not span.contains(rhs))
        if sol is not None:
            assert (f @ combine(x, y, sol)).vec().tolist() == field.reduce(rhs).tolist()
    # a stack is solved row by row in one call, and refused when any row is outside
    stack = np.array([(f @ got).vec(), inside], dtype=field.dtype).reshape(2, width)
    sols = solve_in_span(field, images, stack)
    assert sols.shape == (2, len(images)) and sols.dtype == field.dtype
    for sol, rhs in zip(sols, stack):
        assert sol.tolist() == solve_in_span(field, images, rhs).tolist()
    assert solve_in_span(field, images, stack[:0]).shape == (0, len(images))
    mixed = solve_in_span(field, images, np.vstack([stack, outside[None]]))
    assert (mixed is None) == (not span.contains(outside))


def _reference_compose(x, y, rows, left=None, right=None):
    """vec(left ∘ b ∘ right) for each row b, one Morphism at a time."""
    out = []
    for row in rows:
        b = Morphism.from_vec(x, y, row)
        if left is not None:
            b = left @ b
        if right is not None:
            b = b @ right
        out.append(b.vec().tolist())
    return out


def _reference_pairs(x, z, y, a_rows, b_rows):
    return [(Morphism.from_vec(z, y, b) @ Morphism.from_vec(x, z, a)).vec().tolist()
            for a in a_rows for b in b_rows]


def _dense_rows(x, y):
    """The hom basis plus the combination of all of it with coefficients -1,
    -2, ...: dense entries, so sums of products pass p and a missing
    reduction shows."""
    field = x.algebra.field
    full = combine(x, y, [field.coerce(-1 - k) for k in range(hom_dim(x, y))])
    return np.vstack([hom_matrix(x, y).data, full.vec()[None]])


@pytest.mark.parametrize("field_name", sorted(_PA2_BY_FIELD))
def test_compose_on_empty_bases_and_zero_vertices(field_name):
    """Every triple of S1 (dims (1, 0)), S2 (dims (0, 1)), P1, P2, P1 + P2 and
    the zero module: empty hom bases and zero-dimensional vertices included."""
    alg = _PA2_BY_FIELD[field_name]
    mods = (alg.simples() + alg.projectives()
            + [direct_sum(alg.projectives())[0], zero_module(alg)])
    for x in mods:
        for y in mods:
            rows = hom_matrix(x, y).data
            ident = compose_basis(rows, x, y, left=Morphism.identity(y),
                                  right=Morphism.identity(x))
            assert ident.shape == rows.shape and ident.tolist() == rows.tolist()
            dense = _dense_rows(x, y)
            for z in mods:
                left, right = _dense_rows(y, z)[-1], _dense_rows(z, x)[-1]
                left, right = Morphism.from_vec(y, z, left), Morphism.from_vec(z, x, right)
                for kw in ({"left": left}, {"right": right}, {"left": left, "right": right}):
                    got = compose_basis(dense, x, y, **kw)
                    assert got.tolist() == _reference_compose(x, y, dense, **kw)
                a_rows, b_rows = _dense_rows(x, z), _dense_rows(z, y)
                pairs = compose_pairs(a_rows, x, z, b_rows, y)
                want = _reference_pairs(x, z, y, a_rows, b_rows)
                assert pairs.shape == (len(want), hom_width(x, y))
                assert pairs.tolist() == want
            empty = hom_matrix(x, y).data[:0]
            assert compose_basis(empty, x, y).shape == (0, hom_width(x, y))


@given(field_name=st.sampled_from(sorted(_PA2_BY_FIELD)), data=st.data())
@settings(max_examples=80, deadline=None)
def test_compose_basis_and_pairs_match_per_element_composition(field_name, data):
    alg = _PA2_BY_FIELD[field_name]
    field = alg.field
    indecomposables = alg.simples() + alg.projectives()

    def module():
        picks = data.draw(st.lists(st.sampled_from(indecomposables), max_size=2))
        return direct_sum(picks, alg)[0]

    def morphism(x, y):
        # nonzero coefficients: a zero combination hides a missing reduction
        ints = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                  min_size=hom_dim(x, y), max_size=hom_dim(x, y)))
        return combine(x, y, [field.coerce(c) for c in ints])

    def rows(x, y):
        """A few random elements of Hom(x, y), not just basis rows, so that
        sums of products exceed p and a missing reduction shows."""
        n = data.draw(st.integers(0, 3))
        vecs = [morphism(x, y).vec() for _ in range(n)]
        return np.array(vecs, dtype=field.dtype).reshape(n, hom_width(x, y))

    x, y, z = module(), module(), module()
    left = morphism(y, module()) if data.draw(st.booleans()) else None
    right = morphism(module(), x) if data.draw(st.booleans()) else None
    elements = rows(x, y)
    got = compose_basis(elements, x, y, left=left, right=right)
    want = _reference_compose(x, y, elements, left, right)
    src = x if right is None else right.source
    tgt = y if left is None else left.target
    assert got.shape == (len(want), hom_width(src, tgt))
    assert got.dtype == field.dtype
    assert got.tolist() == want

    a_rows, b_rows = rows(x, z), rows(z, y)
    pairs = compose_pairs(a_rows, x, z, b_rows, y)
    want = _reference_pairs(x, z, y, a_rows, b_rows)
    assert pairs.shape == (len(want), hom_width(x, y))
    assert pairs.dtype == field.dtype
    assert pairs.tolist() == want


# the block constructors against the compositions with direct_sum's injections
# and projections they replace; F_1048583 runs the object-dtype residue path
_SUM_ALGEBRAS = {
    name: preprojective(2, field)
    for name, field in (("F2", prime_field(2)), ("F5", prime_field(5)),
                        ("F1048583", prime_field(1048583)), ("Q", rational_field()))
}


def _reference_direct_sum(parts):
    """The sum with its injections and projections, written out index by
    index as direct_sum built them before it split an identity."""
    alg = parts[0].algebra
    field = alg.field
    dims = {v: sum(p.dims[v] for p in parts) for v in alg.vertices}
    action = {a.name: Matrix.block_diag(field, [p.action[a.name] for p in parts])
              for a in alg.arrows}
    total = Module(alg, dims, action)
    injections, projections = [], []
    for k, part in enumerate(parts):
        inj = {}
        for v in alg.vertices:
            before = sum(p.dims[v] for p in parts[:k])
            inj[v] = Matrix.zeros(field, dims[v], part.dims[v])
            for i in range(part.dims[v]):
                inj[v].data[before + i, i] = field.one()
        injections.append(Morphism(part, total, inj))
        projections.append(Morphism(total, part, {v: m.transpose() for v, m in inj.items()}))
    return total, injections, projections


def _reference_hstack(maps):
    total, _, projections = _reference_direct_sum([f.source for f in maps])
    out = Morphism.zero(total, maps[0].target)
    for f, pr in zip(maps, projections):
        out = out + (f @ pr)
    return out


def _reference_vstack(maps):
    total, injections, _ = _reference_direct_sum([f.target for f in maps])
    out = Morphism.zero(maps[0].source, total)
    for f, inj in zip(maps, injections):
        out = out + (inj @ f)
    return out


def _reference_pushout(f, g):
    _, injections, _ = _reference_direct_sum([f.target, g.target])
    d, proj = cokernel((injections[0] @ f) - (injections[1] @ g))
    return d, proj @ injections[0], proj @ injections[1]


def _reference_pullback(f, g):
    _, _, projections = _reference_direct_sum([f.source, g.source])
    e, inc = kernel((f @ projections[0]) - (g @ projections[1]))
    return e, projections[0] @ inc, projections[1] @ inc


def _same_map(got, want):
    assert got.source.key == want.source.key and got.target.key == want.target.key
    assert got.to_dict("s", "t") == want.to_dict("s", "t")
    dtype = got.source.algebra.field.dtype
    assert all(got.comps[v].data.dtype == dtype for v in got.comps)


@given(field_name=st.sampled_from(sorted(_SUM_ALGEBRAS)), data=st.data())
@settings(max_examples=80, deadline=None)
def test_block_maps_match_the_structure_map_compositions(field_name, data):
    """hstack, vstack and the pushout and pullback legs, on summands that may
    be zero and modules with zero-dimensional vertices (S1, S2)."""
    alg = _SUM_ALGEBRAS[field_name]
    field = alg.field
    indecomposables = alg.simples() + alg.projectives() + [zero_module(alg)]

    def module():
        picks = data.draw(st.lists(st.sampled_from(indecomposables), max_size=2))
        return direct_sum(picks, alg)[0]

    def morphism(x, y):
        # nonzero coefficients, so that a dropped sign or block shows
        ints = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                  min_size=hom_dim(x, y), max_size=hom_dim(x, y)))
        return combine(x, y, [field.coerce(c) for c in ints])

    parts = [module() for _ in range(data.draw(st.integers(1, 3)))]
    got, want = direct_sum(parts), _reference_direct_sum(parts)
    assert got[0].key == want[0].key
    for ours, ref in zip(got[1] + got[2], want[1] + want[2]):
        _same_map(ours, ref)
    y = module()
    maps = [morphism(p, y) for p in parts]
    _same_map(Morphism.hstack(maps), _reference_hstack(maps))
    maps = [morphism(y, p) for p in parts]
    _same_map(Morphism.vstack(maps), _reference_vstack(maps))

    a, b, c = module(), module(), module()
    f, g = morphism(a, b), morphism(a, c)
    got, want = pushout(f, g), _reference_pushout(f, g)
    assert got[0].key == want[0].key
    for leg, ref in zip(got[1:], want[1:]):
        _same_map(leg, ref)
    f, g = morphism(b, a), morphism(c, a)
    got, want = pullback(f, g), _reference_pullback(f, g)
    assert got[0].key == want[0].key
    for leg, ref in zip(got[1:], want[1:]):
        _same_map(leg, ref)


def test_block_maps_refuse_no_blocks_and_unshared_ends(pa2):
    alg, mods = pa2
    with pytest.raises(InputError):
        Morphism.hstack([])
    with pytest.raises(InputError):
        Morphism.vstack([])
    s1, s2 = Morphism.identity(mods["S1"]), Morphism.identity(mods["S2"])
    with pytest.raises(InputError):
        Morphism.hstack([s1, s2])
    with pytest.raises(InputError):
        Morphism.vstack([s1, s2])


# the hom of a sum, assembled from its parts' bases, against the direct solve
# of the whole system; F_1048583 runs the object-dtype residue path
_HOM_SUM_ALGEBRAS = {
    f"A{n}/{name}": preprojective(n, field)
    for n in (2, 3)
    for name, field in (("F2", prime_field(2)), ("F5", prime_field(5)),
                        ("F1048583", prime_field(1048583)), ("Q", rational_field()))
}


def _reference_hom(x, y):
    """The basis of Hom(x, y) from one intertwiners solve of the whole
    system, whatever the parts of x and y."""
    alg = x.algebra
    return intertwiners(
        alg.field, x.dims_tuple(), y.dims_tuple(),
        [(alg._vindex[a.source], alg._vindex[a.target], x.action[a.name].data,
          y.action[a.name].data) for a in alg.arrows])


def _exact(m):
    """A matrix byte for byte: dtype, shape and the repr of every entry."""
    return m.data.dtype.str, m.data.shape, [repr(e) for e in m.data.reshape(-1)]


def _draw_sum_pair(name, data):
    """An algebra of ``_HOM_SUM_ALGEBRAS`` and modules x, y with a sum at the
    source, at the target or at both ends, nested sums and zero parts."""
    alg = _HOM_SUM_ALGEBRAS[name]
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]

    def module(depth=0):
        """A sum of up to three parts, each a piece or, two levels deep at
        most, a sum drawn the same way."""
        n = data.draw(st.integers(0 if depth else 1, 3))
        return sum_module([module(depth + 1) if depth < 2 and data.draw(st.booleans())
                           else data.draw(st.sampled_from(pieces)) for _ in range(n)], alg)

    x, y = module(), module()
    ends = data.draw(st.sampled_from(["source", "target", "both"]))
    if ends == "target":
        x = data.draw(st.sampled_from(pieces))
    elif ends == "source":
        y = data.draw(st.sampled_from(pieces))
    return alg, x, y


@given(name=st.sampled_from(sorted(_HOM_SUM_ALGEBRAS)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_hom_of_a_sum_matches_the_direct_solve(name, data):
    """hom_matrix on drawn sums byte for byte against the direct solve. The
    hom cache is cleared first, so every pair goes through the assembly."""
    alg, x, y = _draw_sum_pair(name, data)
    alg._hom_cache.clear()
    assert _exact(hom_matrix(x, y)) == _exact(_reference_hom(x, y))


@pytest.mark.parametrize("field, kernels", [(prime_field(2), 0), (prime_field(5), 1),
                                             (rational_field(), 0)], ids=["F2", "F5", "Q"])
def test_a_cold_hom_space_builds_no_reduced_matrix(monkeypatch, field, kernels):
    """Over F_2 the hom equations are packed straight into the bit table, and
    over Q written as Python rows whose basis is read off the eliminated
    rows, so a cold hom_matrix of two modules that are no sums calls neither
    Matrix.kernel nor _rref_bits there; over F_5 it solves the dense system
    with one Matrix.kernel. Over none of the three does it call Matrix.rref:
    the kernel reads its basis off the eliminated rows too."""
    alg = preprojective(3, field)
    x, y = alg.projective("2"), alg.injective("2")
    calls = {"kernel": 0, "rref": 0, "_rref_bits": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Matrix, "kernel", counted("kernel", Matrix.kernel))
    monkeypatch.setattr(Matrix, "rref", counted("rref", Matrix.rref))
    monkeypatch.setattr(exact_linalg, "_rref_bits", counted("_rref_bits", exact_linalg._rref_bits))
    alg._hom_cache.clear()
    assert hom_matrix(x, y).rows == 2
    assert calls == {"kernel": kernels, "rref": 0, "_rref_bits": 0}


def _leaves(m):
    return [leaf for part in m.parts for leaf in _leaves(part)] if m.parts else [m]


@given(name=st.sampled_from(sorted(_HOM_SUM_ALGEBRAS)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_hom_dim_of_a_sum_adds_its_parts_without_assembling(name, data):
    """hom_dim on drawn sums is the number of rows of hom_matrix. From a
    cleared cache it solves only the pairs of leaves (the parts of parts,
    down to modules that are no sums), so it leaves no entry for the pair
    itself unless that pair's keys are those of a pair of leaves."""
    alg, x, y = _draw_sum_pair(name, data)
    alg._hom_cache.clear()
    dim = hom_dim(x, y)
    leaf_pairs = {(a.key, b.key) for a in _leaves(x) for b in _leaves(y)}
    assert set(alg._hom_cache) == leaf_pairs
    assert dim == hom_matrix(x, y).rows


def _reference_sum(parts):
    """The block-diagonal sum built afresh: each part's action copied into
    its diagonal block of a zero matrix, parts in order."""
    alg = parts[0].algebra
    dims = {v: sum(p.dims[v] for p in parts) for v in alg.vertices}
    action = {}
    for a in alg.arrows:
        m = Matrix.zeros(alg.field, dims[a.target], dims[a.source])
        row = col = 0
        for p in parts:
            block = p.action[a.name].data
            m.data[row:row + block.shape[0], col:col + block.shape[1]] = block
            row, col = row + block.shape[0], col + block.shape[1]
        action[a.name] = m
    return Module(alg, dims, action)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_sum_module_matches_a_fresh_block_build(small_algebras, data):
    """sum_module of 2-3 parts (zero modules, repeated parts, nested sums,
    and two different parts in both orders) against a fresh block-diagonal
    build: dims, part keys and every action array byte for byte. The sums
    are cached by the ordered part keys, so copies of the parts built
    separately get the same instance back, and the swapped order does not.
    A one-part sum is the part itself, and so is the end of a one-block map."""
    alg = small_algebras[data.draw(st.sampled_from(sorted(small_algebras)))]
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]

    def part():
        if data.draw(st.booleans()):  # a nested sum of two pieces
            return sum_module([data.draw(st.sampled_from(pieces)) for _ in range(2)])
        return data.draw(st.sampled_from(pieces))

    shape = data.draw(st.sampled_from(["drawn", "repeated", "both orders"]))
    if shape == "drawn":
        cases = [[part() for _ in range(data.draw(st.integers(2, 3)))]]
    elif shape == "repeated":
        cases = [[part()] * data.draw(st.integers(2, 3))]
    else:
        a, b = part(), part()
        assume(a.key != b.key)
        cases = [[a, b], [b, a]]
    sums = []
    for parts in cases:
        got, want = sum_module(parts), _reference_sum(parts)
        assert got.dims == want.dims
        assert [p.key for p in got.parts] == [p.key for p in parts]
        for arrow in alg.arrows:
            assert _exact(got.action[arrow.name]) == _exact(want.action[arrow.name])
        copies = [Module(alg, p.dims, p.action) for p in parts]
        assert sum_module(copies) is got
        sums.append(got)
    if shape == "both orders":
        assert sums[0] is not sums[1]
    one = cases[0][0]
    assert sum_module([one]) is one
    f = Morphism.identity(one)
    assert Morphism.hstack([f]) == f and Morphism.hstack([f]).source is one
    assert Morphism.vstack([f]) == f and Morphism.vstack([f]).target is one


# -- the path-algebra basis against the per-block construction it replaced ---------


def _reference_build_basis(self) -> None:
    """The basis loop before one elimination per length: per-(source, target)
    stacks over tagged columns, ("c", j) for candidate j and ("e", i) for basis
    element i. Its caps are the module constants."""
    field = self.field
    elts = []
    by_len = {0: []}
    for vi in range(len(self.vertices)):
        e = _PathElt(len(elts), vi, vi, 0, ())
        elts.append(e)
        by_len[0].append(e.idx)
    mult = {}
    frontier = list(by_len[0])
    length = 0
    while frontier:
        length += 1
        if length > algebra_repr.LENGTH_CAP:
            raise InputError(
                f"path length cap {algebra_repr.LENGTH_CAP} exceeded; "
                "quotient may be infinite-dimensional"
            )
        cands = []
        for b in frontier:
            bt = elts[b].target
            for ai, arrow in enumerate(self.arrows):
                if self._vindex[arrow.source] == bt:
                    cands.append((ai, b))
        cands.sort(key=lambda ab: elts[ab[1]].path + (ab[0],))
        groups = {}
        for j, (ai, b) in enumerate(cands):
            key = (elts[b].source, self._vindex[self.arrows[ai].target])
            groups.setdefault(key, []).append(j)
        cand_pos = {ab: j for j, ab in enumerate(cands)}

        cons = {}
        for rel in self.relations:
            want = length - rel.max_len
            if want < 0:
                continue
            for b in by_len.get(want, []):
                if elts[b].target != rel.source:
                    continue
                vec = _reference_apply_relation(self, rel, b, length, elts, mult, cand_pos)
                key = (elts[b].source, rel.target)
                cons.setdefault(key, []).append(vec)

        new_ids = {}
        expansions = {}
        for key, members in groups.items():
            vecs = cons.get(key, [])
            elt_cols = sorted({c for v in vecs for c in v if isinstance(c, int)})
            col_keys = [("c", j) for j in members] + [("e", i) for i in elt_cols]
            col_of = {ck: n for n, ck in enumerate(col_keys)}
            stack = Matrix.zeros(field, len(vecs), len(col_keys)).data
            for arr, v in zip(stack, vecs):
                for c, cf in v.items():
                    arr[col_of[("e", c) if isinstance(c, int) else c]] = cf
            span = RowSpan(field, len(col_keys))
            span.add(stack)
            dead = set()
            for row, p in zip(span.rows, span.pivots):
                ck = col_keys[p]
                if ck[0] != "c":
                    raise InputError(
                        "relations rewrite shorter basis paths; this relation "
                        "pattern is outside naive path reduction"
                    )
                dead.add(ck[1])
                exp = {}
                for n in range(p + 1, len(col_keys)):
                    if row[n] != 0:
                        kk = col_keys[n]
                        coeff = field.neg(row[n])
                        exp[kk[1] if kk[0] == "e" else ("c", kk[1])] = coeff
                expansions[ck[1]] = exp
            for j in members:
                if j not in dead:
                    ai, b = cands[j]
                    e = _PathElt(
                        len(elts),
                        elts[b].source,
                        self._vindex[self.arrows[ai].target],
                        length,
                        elts[b].path + (ai,),
                    )
                    elts.append(e)
                    new_ids[j] = e.idx

        for j, (ai, b) in enumerate(cands):
            if j in new_ids:
                mult[(ai, b)] = {new_ids[j]: field.one()}
            else:
                resolved = {}
                for col, cf in expansions[j].items():
                    if isinstance(col, tuple):  # surviving candidate
                        resolved[new_ids[col[1]]] = cf
                    else:
                        resolved[col] = cf
                mult[(ai, b)] = resolved

        frontier = [new_ids[j] for j in sorted(new_ids)]
        by_len[length] = frontier
        if len(elts) > algebra_repr.DIM_CAP:
            raise InputError(
                f"dimension cap {algebra_repr.DIM_CAP} exceeded; "
                "quotient may be infinite-dimensional"
            )
    self._elts = elts
    self._mult = mult


def _reference_apply_relation(self, rel, base, length, elts, mult, cand_pos) -> dict:
    """Expand rel * (basis element) over basis ids and candidate markers."""
    field = self.field
    out = {}
    for coeff, path in rel.terms:
        cur = {base: coeff}
        for ai in path:
            nxt = {}
            for eid, cf in cur.items():
                if elts[eid].length + 1 == length:
                    j = cand_pos[(ai, eid)]
                    key = ("c", j)
                    nxt[key] = nxt.get(key, field.zero()) + cf
                else:
                    for tid, tcf in mult[(ai, eid)].items():
                        nxt[tid] = nxt.get(tid, field.zero()) + cf * tcf
            cur_mixed = {k: field.coerce(v) for k, v in nxt.items() if field.coerce(v) != 0}
            # candidate markers appear only after the final arrow
            cur = {k: v for k, v in cur_mixed.items() if isinstance(k, int)}
            tail = {k: v for k, v in cur_mixed.items() if not isinstance(k, int)}
            if tail:
                for k, v in tail.items():
                    out[k] = field.coerce(out.get(k, field.zero()) + v)
        for k, v in cur.items():
            out[k] = field.coerce(out.get(k, field.zero()) + v)
    return {k: v for k, v in out.items() if v != 0}


def _basis_outcome(field, vertices, arrows, relations, reference=False):
    """What the construction gives: the basis, the multiplication table and the
    keys of the projectives and injectives, or the refusal's message. The
    reference run builds the opposite algebra with the reference loop too."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(Algebra, "_build_basis", _reference_build_basis)
        try:
            alg = Algebra(field, vertices, arrows, relations)
            return (alg._elts, repr(alg._mult), path_basis(alg),
                    [m.key for m in alg.projectives()], [m.key for m in alg.injectives()])
        except InputError as e:
            return str(e)


def _assert_basis_matches_the_reference(field, vertices, arrows, relations):
    new = _basis_outcome(field, vertices, arrows, relations)
    assert new == _basis_outcome(field, vertices, arrows, relations, reference=True)
    return new


def _paths(arrows, source, length):
    """Every composable arrow-name path of the given length out of source, as
    (path, end vertex) pairs."""
    out = [((), source)]
    for _ in range(length):
        out = [(p + (name,), t) for p, end in out for name, s, t in arrows if s == end]
    return out


_BASIS_FIELDS = {"F2": prime_field(2), "F3": prime_field(3), "Q": Q}


@st.composite
def _quivers_with_relations(draw):
    """1-3 vertices, up to 4 arrows (loops and parallel arrows allowed), and up
    to 3 relations whose terms are paths of lengths 2-4 sharing their ends."""
    vertices = [str(i) for i in range(1, draw(st.integers(1, 3)) + 1)]
    arrows = [(f"x{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
              for i in range(draw(st.integers(0, 4)))]
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        source = draw(st.sampled_from(vertices))
        firsts = [pt for n in (2, 3, 4) for pt in _paths(arrows, source, n)]
        if not firsts:
            continue
        path, end = draw(st.sampled_from(firsts))
        others = [p for n in (2, 3, 4) for p, t in _paths(arrows, source, n)
                  if t == end and p != path]
        extra = draw(st.lists(st.sampled_from(others), max_size=2, unique=True)) if others else []
        relations.append([(str(draw(st.sampled_from([1, 2, -1]))), list(p))
                          for p in [path] + extra])
    return vertices, arrows, relations


@given(field_name=st.sampled_from(sorted(_BASIS_FIELDS)), quiver=_quivers_with_relations(),
       length_cap=st.integers(2, 8), dim_cap=st.integers(4, 40))
@settings(max_examples=300, deadline=None)
def test_basis_matches_the_per_block_reference(field_name, quiver, length_cap, dim_cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra_repr, "LENGTH_CAP", length_cap)
        mp.setattr(algebra_repr, "DIM_CAP", dim_cap)
        _assert_basis_matches_the_reference(_BASIS_FIELDS[field_name], *quiver)


_LOOP = [("x", "v", "v")]
_TWO_LOOPS = [("x", "v", "v"), ("y", "v", "v")]

# refusal -> (vertices, arrows, relations, the start of its message)
_REFUSALS = {
    "length-cap": (["v"], _LOOP, [], "path length cap 64 exceeded"),
    "dimension-cap": (["v"], _TWO_LOOPS, [], "dimension cap 4096 exceeded"),
    # x^3 = y^2 gives x y^2 = x^4 = y^2 x, a relation between basis paths of length 3
    "rewrite": (["v"], _TWO_LOOPS, [[("1", ["x"] * 3), ("-1", ["y"] * 2)]],
                "relations rewrite shorter basis paths"),
    # x^3 = 0 and x^2 = x^4 leave x^2 in the basis, where the relations give x^2 = 0
    "closure": (["v"], _LOOP, [[("1", ["x"] * 3)], [("1", ["x"] * 2), ("-1", ["x"] * 4)]],
                "relation closure incomplete on the regular module at vertex 'v'"),
    "nilpotent": (["v"], _LOOP, [[("1", ["x"] * 2), ("-1", ["x"] * 3)], [("1", ["x"] * 4)]],
                  "relations do not generate an admissible ideal (radical not nilpotent)"),
    # the radical's square is spanned by x y, y x, y^2, ... of which x y dies at once
    # (x y x = x y^2 = 0) while y^3 = y^2 never does: every row of a layer must be kept
    "two-loop-layer": (["v"], _TWO_LOOPS,
                       [[("1", ["x"] * 2)], [("1", ["x", "y", "y"])],
                        [("1", ["y"] * 3), ("-1", ["y"] * 2)], [("1", ["x", "y", "x"])]],
                       "relations do not generate an admissible ideal (radical not nilpotent)"),
    # x^3 dies as -x^2 at length 3, so x^4 = x^2 is a dependency in block (1, 1) at length
    # 4, where no path has an extension (x^2 a ends at 2): it is skipped, and the radical
    # is found not nilpotent rather than shorter paths rewritten
    "no-extension-block": (["1", "2"], [("a", "1", "2"), ("x", "1", "1")],
                           [[("1", ["x"] * 3), ("1", ["x"] * 2)], [("1", ["x"] * 4)]],
                           "relations do not generate an admissible ideal (radical not nilpotent)"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_each_refusal_matches_the_reference(case):
    *quiver, message = _REFUSALS[case]
    outcome = _assert_basis_matches_the_reference(Q, *quiver)
    assert isinstance(outcome, str) and outcome.startswith(message)


def test_basis_paths_are_numbered_by_block_then_path_order():
    # length 1 in path order is a, b, c, d; the blocks are (3, 1), (1, 2), (1, 1)
    basis = _assert_basis_matches_the_reference(
        Q, ["1", "2", "3"], [("a", "3", "1"), ("b", "1", "2"), ("c", "1", "1"), ("d", "1", "2")],
        [[("1", ["c", "c"])]])[2]
    assert basis[3:] == [("3", ("a",)), ("1", ("b",)), ("1", ("d",)), ("1", ("c",)),
                         ("3", ("a", "b")), ("3", ("a", "d")), ("3", ("a", "c")),
                         ("1", ("c", "b")), ("1", ("c", "d")),
                         ("3", ("a", "c", "b")), ("3", ("a", "c", "d"))]


def _reference_check_admissible(self) -> None:
    """The nilpotency test before it acted on whole rows: each image of each
    (arrow, vector) pair summed entry by entry through the ``_mult`` table."""
    dim = len(self._elts)
    radical = [e.idx for e in self._elts if e.length >= 1]
    if not radical:
        return
    field = self.field
    vecs = Matrix.zeros(field, len(radical), dim).data
    vecs[np.arange(len(radical)), radical] = field.one()
    for _ in range(dim + 1):
        images = Matrix.zeros(field, len(self.arrows) * len(vecs), dim).data
        for w, (ai, v) in zip(images, itertools.product(range(len(self.arrows)), vecs)):
            for eid in range(dim):
                if v[eid] == 0:
                    continue
                for tid, cf in self._mult.get((ai, eid), {}).items():
                    w[tid] = field.coerce(w[tid] + v[eid] * cf)
        span = RowSpan(field, dim)
        if not span.add(images):
            return
        vecs = span.rows
    raise InputError("relations do not generate an admissible ideal (radical not nilpotent)")


def _admissible_outcome(field, quiver, check):
    """The basis of the algebra built with `check` as its nilpotency test, or
    the message of its refusal."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Algebra, "_check_admissible", check)
        try:
            return path_basis(Algebra(field, *quiver))
        except InputError as e:
            return str(e)


@given(field_name=st.sampled_from(sorted(_BASIS_FIELDS)), quiver=_quivers_with_relations(),
       length_cap=st.integers(2, 8))
@example(field_name="F2", quiver=_REFUSALS["nilpotent"][:3], length_cap=8)
@example(field_name="F3", quiver=_REFUSALS["no-extension-block"][:3], length_cap=8)
@example(field_name="Q", quiver=_REFUSALS["two-loop-layer"][:3], length_cap=8)
@settings(max_examples=200, deadline=None)
def test_nilpotency_check_matches_the_per_entry_reference(field_name, quiver, length_cap):
    field = _BASIS_FIELDS[field_name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra_repr, "LENGTH_CAP", length_cap)
        assert (_admissible_outcome(field, quiver, Algebra._check_admissible)
                == _admissible_outcome(field, quiver, _reference_check_admissible))


def _reference_build_projective(self, v: str) -> Module:
    """The projective at v as built before its paths were grouped in one pass:
    one scan of the basis per target vertex."""
    vi = self._vindex[v]
    grp = {w: [e.idx for e in self._elts if e.source == vi and e.target == w]
           for w in range(len(self.vertices))}
    pos = {eid: k for w in grp for k, eid in enumerate(grp[w])}
    dims = {self.vertices[w]: len(grp[w]) for w in grp}
    action = {}
    for ai, arrow in enumerate(self.arrows):
        si, ti = self._vindex[arrow.source], self._vindex[arrow.target]
        m = Matrix.zeros(self.field, len(grp[ti]), len(grp[si]))
        for col, eid in enumerate(grp[si]):
            for tid, cf in self._mult[(ai, eid)].items():
                m.data[pos[tid], col] = cf
        action[arrow.name] = m
    return Module(self, dims, action)


def test_projectives_match_the_per_target_scan(small_algebras):
    for alg in small_algebras.values():
        for a in (alg, alg.opposite()):
            for v in a.vertices:
                new, ref = a._build_projective(v), _reference_build_projective(a, v)
                assert new.dims == ref.dims
                assert new.key == ref.key
                for arrow in a.arrows:
                    m, r = new.action[arrow.name].data, ref.action[arrow.name].data
                    assert m.shape == r.shape and m.dtype == r.dtype
                    assert [repr(x) for x in m.reshape(-1)] == [repr(x) for x in r.reshape(-1)]
