"""Helpers that only the tests call.

``random_morphism`` draws ``_random_hom`` on the stream seeded by (seed, x,
y); the golden digests pin that stream, so it must not change.
``search_fraction_witness`` is the tests' witness of right-fraction
equality until the library constructs one. ``rebased`` gives a module in
a diagonal change of basis, fractional over Q. ``cone_legs`` reads the two
legs of ``cone_sequence``'s projection, and ``mho_approximation`` is the
approximation by the summands of U. ``weq_via_projective_cover`` is the
cone check that read the projective cover, kept to show that the tests of
its mend can fail. ``ho_class_is_zero`` tests a localized class for zero.
The ``reference_*`` functions are the plain bodies that optimized library
paths are checked against, and ``draw_probe_case`` draws their inputs;
``reference_solve_cols`` and ``reference_inverse`` solve m X = b and invert m
on the rref of [m | b], a route apart from ``solve_in_span``'s."""
import random
from math import lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import strategies as st

from frobcat.algebra_repr import (Algebra, Module, Morphism, _split, cokernel, combine,
                                  compose_basis, compose_pairs, hom_matrix, hom_width, is_epi,
                                  kernel, pushout, relation_violations, sum_module, zero_module)
from frobcat.axiom_suite import _derive_seed, _random_hom
from frobcat.errors import InputError
from frobcat.exact_linalg import Matrix, RowSpan
from frobcat.homological import (approximation, cone_sequence, injective_envelope, kills_stably,
                                 projective_cover, solve_postcompose)
from frobcat.rigid_model import (EXACT, RigidContext, cofibrant_replacement, is_weak_equivalence,
                                 right_M_approximation)


def path_basis(alg: Algebra) -> List[Tuple[str, Tuple[str, ...]]]:
    """The algebra's ordered basis as (source vertex, arrow-name path) pairs."""
    return [
        (alg.vertices[e.source], tuple(alg.arrows[a].name for a in e.path))
        for e in alg._elts
    ]


def truncated_linear(n: int, l: int, field) -> Algebra:
    """kA_n/rad^l: linear A_n, 1 -> 2 -> ... -> n by arrows a1, a2, ..., with
    one zero relation per path of length l. Not self-injective for
    1 < l < n; the tests use it in exact mode with generator P ⊕ I."""
    vertices = [str(v) for v in range(1, n + 1)]
    arrows = [(f"a{v}", str(v), str(v + 1)) for v in range(1, n)]
    relations = [[("1", tuple(f"a{w}" for w in range(v, v + l)))] for v in range(1, n - l + 1)]
    return Algebra(field, vertices, arrows, relations)


def random_morphism(ctx: RigidContext, x: Module, y: Module, seed: int) -> Morphism:
    """Pseudorandom combination of the hom basis, deterministic in (seed, x, y)."""
    rng = random.Random(_derive_seed(seed, x.key, y.key))
    return _random_hom(ctx, rng, x, y)


def search_fraction_witness(ctx: RigidContext, left, right, seed: int = 0,
                            candidates: Optional[Sequence[Module]] = None,
                            tries: int = 50):
    """Best-effort search for a zig-zag witness of right-fraction equality.

    For fractions (f, s) and (g, t) the witness is a pair of weak
    equivalences s', t' out of a common source with s∘s' = t∘t' and
    f∘s' = g∘t'. The linear constraints are solved exactly; weak-equivalence
    membership of a solution is then probed over the solution space with a
    seeded stream. Returns (source, s', t') or None; the criterion itself is
    decided by canonical forms, not by this search.
    """
    f, s = left
    g, t = right
    rng = random.Random(_derive_seed("fraction-witness", seed))
    field = ctx.alg.field
    sources = list(candidates) if candidates is not None else [
        s.source, t.source, cofibrant_replacement(ctx, s.source).a,
    ]
    for c in sources:
        basis_a = hom_matrix(c, s.source).data
        basis_b = hom_matrix(c, t.source).data
        if not len(basis_a) and not len(basis_b):
            continue
        rows_a = np.hstack([compose_basis(basis_a, c, s.source, left=s),
                            compose_basis(basis_a, c, s.source, left=f)])
        rows_b = np.hstack([compose_basis(basis_b, c, t.source, left=t),
                            compose_basis(basis_b, c, t.source, left=g)])
        system = Matrix(field, np.vstack([rows_a, field.reduce(-rows_b)]).T)
        ker = system.kernel()
        if ker.cols == 0:
            continue

        def assemble(coeffs):
            k = len(basis_a)
            return combine(c, s.source, coeffs[:k]), combine(c, t.source, coeffs[k:])

        probes = [ker.data[:, k] for k in range(ker.cols)]
        for _ in range(tries):
            mix = np.empty(ker.rows, dtype=field.dtype)
            mix[...] = field.zero()
            for k in range(ker.cols):
                coeff = field.sample(rng)
                if coeff != 0:
                    mix = field.reduce(mix + coeff * ker.data[:, k])
            probes.append(mix)
        for coeffs in probes:
            sp, tp = assemble(coeffs)
            if is_weak_equivalence(ctx, sp) and is_weak_equivalence(ctx, tp):
                return c, sp, tp
    return None


def rebased(module: Module, vertex: str, diag: Sequence) -> Module:
    """`module` in the basis given at `vertex` by the columns of diag(`diag`):
    each arrow into the vertex is multiplied by diag^-1 on the left, each
    arrow out of it by diag on the right. An isomorphic module, checked to
    satisfy the relations, as a module built directly is not."""
    field = module.algebra.field
    d, d_inv = (Matrix.zeros(field, len(diag), len(diag)) for _ in range(2))
    for i, x in enumerate(diag):
        d.data[i, i], d_inv.data[i, i] = x, field.coerce(field.inv(x))
    action = {}
    for arrow in module.algebra.arrows:
        m = module.action[arrow.name]
        if arrow.target == vertex:
            m = d_inv @ m
        if arrow.source == vertex:
            m = m @ d
        action[arrow.name] = m
    out = Module(module.algebra, module.dims, action)
    assert relation_violations(out) == []
    return out


def cone_legs(f: Morphism) -> Tuple[Module, Morphism, Morphism]:
    """Pushout of the source's envelope along f: ``cone_sequence(f)``'s legs.

    Returns (Z, g: target -> Z, u: I_X -> Z); g is a cone of f.
    """
    seq = cone_sequence(f)
    u, g = _split(seq.p, seq.middle.parts, at_source=True)
    return seq.p.target, g, u


def mho_approximation(ctx: RigidContext, x: Module) -> Morphism:
    """A right approximation of x by the summands of the class generator U."""
    return approximation(ctx.U_components, x)


def weq_via_projective_cover(ctx: RigidContext, f: Morphism) -> bool:
    """The cone check with π the target's projective cover in place of an
    approximation by injectives: the cone projection and the kernel
    inclusion of (f -π) both kill the costable generator stably. Right in
    frobenius mode; in exact mode it refuses weak equivalences into a
    projective that is not injective."""
    if not kills_stably(ctx.costable_gen, cone_sequence(f).p):
        return False
    cover = projective_cover(f.target)[1]
    return kills_stably(ctx.costable_gen, kernel(Morphism.hstack([f, -cover]))[1])


def ho_class_is_zero(cls) -> bool:
    """Whether a localized class (``localization.HoClass``) is zero: its
    canonical coset form is."""
    return all(c == 0 for c in cls.canonical)


def reference_solve_cols(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """Particular solution X with m @ X = b, or None if inconsistent."""
    if b.rows != m.rows:
        raise InputError(f"rhs has {b.rows} rows, expected {m.rows}")
    aug = Matrix.hstack([m, b])
    red, pivots, _ = aug.rref()
    if any(p >= m.cols for p in pivots):
        return None
    x = Matrix.zeros(m.field, m.cols, b.cols)
    for i, pc in enumerate(pivots):
        x.data[pc, :] = red.data[i, m.cols :]
    return x


def reference_inverse(m: Matrix) -> Optional[Matrix]:
    """The inverse of m by ``reference_solve_cols`` of the identity, or None."""
    if m.rows != m.cols:
        return None
    inv = reference_solve_cols(m, Matrix.identity(m.field, m.rows))
    if inv is None:
        return None
    if (m @ inv) != Matrix.identity(m.field, m.rows):
        return None
    return inv


def reference_cleared(values: list) -> Tuple[List[int], int]:
    """(integers, d) with values = integers / d, d the lcm of the denominators:
    the clearing body of ``exact_linalg._cleared``, which builds a new list
    of ints for every input, a list of ints included."""
    ratios = [x.as_integer_ratio() for x in values]
    d = lcm(*[q for _, q in ratios])
    if d == 1:
        return [n for n, _ in ratios], 1
    return [n * (d // q) for n, q in ratios], d


def reference_quotient_reps(x: Module, y: Module, sub: RowSpan):
    """(rep_indices, rep_rows, rep_canonicals) of ``QuotientHom(x, y, sub)``
    chosen on the canonical forms: the whole basis reduced modulo sub, then
    the forms independent in a fresh span of the same width."""
    basis = hom_matrix(x, y).data if sub.width else sub.rows
    canonicals = sub.reduce(basis)
    indices = RowSpan(sub.field, sub.width).independent(canonicals)
    return indices, basis[indices], canonicals[indices]


def reference_post_map_surjective(ctx: RigidContext, probe: Module, f: Morphism) -> bool:
    """Surjectivity of Hom(probe, source) -> Hom(probe, target), by the rank
    of the whole of Hom(probe, source) composed with f."""
    images = compose_basis(hom_matrix(probe, f.source).data, probe, f.source, left=f)
    return Matrix(ctx.alg.field, images).rank() == hom_matrix(probe, f.target).rows


def reference_rlp_by_rank(ctx: RigidContext, g: Morphism, f: Morphism) -> bool:
    """The right lifting property of f against g, for any g: the lifts
    l -> (l∘g, f∘l) span the squares {(a, b) : f∘a = b∘g}."""
    field = ctx.alg.field
    homs_a = hom_matrix(g.source, f.source)
    homs_b = hom_matrix(g.target, f.target)
    system = np.vstack([compose_basis(homs_a.data, g.source, f.source, left=f),
                        compose_basis(homs_b.data, g.target, f.target, right=g)])
    dim_k = homs_a.rows + homs_b.rows - Matrix(field, system).rank()
    if dim_k == 0:
        return True
    lifts = hom_matrix(g.target, f.source).data
    image = np.hstack([compose_basis(lifts, g.target, f.source, right=g),
                       compose_basis(lifts, g.target, f.source, left=f)])
    return Matrix(field, image).rank() == dim_k


def reference_cone_legs(f: Morphism) -> Tuple[Module, Morphism, Morphism]:
    """The cone of f as two legs: the injective envelope ι of the source,
    then ``pushout(ι, f)``, which returns (Z, I(X) -> Z, Y -> Z)."""
    i_x, iota = injective_envelope(f.source)
    return pushout(iota, f)


def reference_greedy_approximation(components: Sequence[Module], x: Module) -> Morphism:
    """The greedy pass one map at a time: per component c, a span starts
    from the kept maps K composed with Hom(c, K.source), and each basis map
    of Hom(c, x) not yet in it is kept and its orbit h ∘ End(c) added."""
    kept: List[Morphism] = []
    for comp in components:
        span = RowSpan(x.algebra.field, hom_width(comp, x))
        if kept:
            k = Morphism.hstack(kept)
            span.add(compose_basis(hom_matrix(comp, k.source).data, comp, k.source, left=k))
        endo = hom_matrix(comp, comp).data
        for h in hom_matrix(comp, x).data:
            if span.contains(h):
                continue
            kept.append(Morphism.from_vec(comp, x, h))
            span.add(compose_pairs(endo, comp, comp, h[None], x))
    if not kept:
        return Morphism.zero(zero_module(x.algebra), x)
    return Morphism.hstack(kept)


def reference_tailored_lifting_elements(ctx: RigidContext, f: Morphism) -> List[Morphism]:
    """The lifting elements built from ker f, one ``solve_postcompose`` per
    map M_gen -> ker f -> f.source; a map that does not factor is skipped."""
    if not is_epi(f):
        return []
    k, inc = kernel(f)
    approx = right_M_approximation(ctx, f.source)
    i_m, iota_m = injective_envelope(ctx.M_gen)
    out = []
    for b in compose_basis(hom_matrix(ctx.M_gen, k).data, ctx.M_gen, k, left=inc):
        h = solve_postcompose(approx, Morphism.from_vec(ctx.M_gen, f.source, b))
        if h is None:
            continue
        infl = Morphism.vstack([h, iota_m])
        c, q = cokernel(infl)
        i0, iota0 = injective_envelope(infl.target)
        out.append(Morphism.vstack([q, iota0]))
    return out


def draw_probe_case(algebras, data):
    """A context on a drawn algebra (over its projectives, exact mode,
    unvalidated: the tests read only its field), a probe summing up to three
    parts, each a simple, projective, injective or zero module or a sum of
    two of them, and a map f: a random one, a split epi (h 1_y) or the
    projective cover of y, so that both verdicts occur."""
    alg = algebras[data.draw(st.sampled_from(sorted(algebras)))]
    ctx = RigidContext(alg, alg.projectives(), EXACT)
    pieces = alg.simples() + alg.projectives() + alg.injectives() + [zero_module(alg)]

    def part():
        if data.draw(st.booleans()):
            return data.draw(st.sampled_from(pieces))
        return sum_module([data.draw(st.sampled_from(pieces)) for _ in range(2)])

    probe = sum_module([part() for _ in range(data.draw(st.integers(1, 3)))])
    x, y = (sum_module(data.draw(st.lists(st.sampled_from(pieces), max_size=2)), alg)
            for _ in range(2))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    kind = data.draw(st.sampled_from(["random", "split epi", "cover"]))
    if kind == "random":
        f = _random_hom(ctx, rng, x, y)
    elif kind == "split epi":
        f = Morphism.hstack([_random_hom(ctx, rng, x, y), Morphism.identity(y)])
    else:
        f = projective_cover(y)[1]
    return ctx, probe, f
