"""Projective covers, injective envelopes, (co)syzygies, add-approximations,
Ext^1, the subspaces of maps factoring through add(z) or through
injectives, the one stable-kill test :func:`kills_stably` (the cone checks
and the homotopy check), and :class:`QuotientHom`, the one quotient of a
hom space: stable hom here, and the homotopy hom-sets of ``localization``.

All operations are pure functions over immutable values. Hom spaces
(``hom_matrix``), projective covers, syzygies, the splits of
:func:`projective_split`, injective envelopes, right approximations, the
spans of :func:`through_injectives` and the verdicts of :func:`in_add` are
cached per algebra, keyed by module content; quotients are recomputed on
every call.
The left-handed constructions are their right-handed duals under
D = Hom_k(-, k), taken over the opposite algebra and transposed back.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InternalCheckError
from .exact_linalg import Matrix, RowSpan, solve_in_span
from .algebra_repr import (
    Algebra,
    Module,
    Morphism,
    ShortExactSequence,
    _memo,
    cokernel,
    combine,
    compose_basis,
    compose_pairs,
    dual_module,
    hom_basis,  # unused here; the benchmark's tracer test checks it is rebound in this module
    hom_matrix,
    hom_width,
    is_epi,
    is_mono,
    kernel,
    sum_module,
    zero_module,
)


# -- radical, top, covers -----------------------------------------------------


def projective_cover(x: Module) -> Tuple[Module, Morphism]:
    """Minimal projective cover P -> x; P = ⊕ P_v per top generator.

    Cached per algebra by module content: a hit may return a cover whose
    target is an earlier module with x's key, not x itself.
    """
    return _memo(x.algebra._module_cache, ("cover", x.key), lambda: _checked_cover(x))


def _checked_cover(x: Module) -> Tuple[Module, Morphism]:
    cover = _cover_map(x)
    if not cover.intertwines():
        raise InternalCheckError("projective cover does not intertwine")
    if not is_epi(cover):
        raise InternalCheckError("projective cover is not epi")
    return cover.source, cover


def projective_split(x: Module) -> Tuple[Tuple[str, ...], Module]:
    """x as its projective parts and the rest: the top vertices of the parts
    of x (its ``parts``, else x itself) that are projective, in vertex order,
    and the sum of the other nonzero parts. A part is projective iff its
    projective cover has its dimensions (the test of
    :func:`is_self_injective`), and its tops are those of the cover's
    summands P_v.

    Cached per algebra by content, like covers: a hit may return a rest
    whose parts are other instances with the same keys.
    """
    return _memo(x.algebra._module_cache, ("projective_split", x.key),
                 lambda: _build_projective_split(x))


def _build_projective_split(x: Module) -> Tuple[Tuple[str, ...], Module]:
    alg = x.algebra
    vertex_of = {p.key: v for v, p in zip(alg.vertices, alg.projectives())}
    tops, rest = set(), []
    for part in x.parts or (x,):
        if part.is_zero():
            continue
        cover = projective_cover(part)[0]
        if cover.dims == part.dims:
            tops.update(vertex_of[p.key] for p in cover.parts or (cover,))
        else:
            rest.append(part)
    return tuple(v for v in alg.vertices if v in tops), sum_module(rest, alg)


def injective_envelope(x: Module) -> Tuple[Module, Morphism]:
    """Minimal injective envelope x -> I via opposite-algebra duality.

    Cached per algebra by module content: a hit may return an envelope whose
    source is an earlier module with x's key, not x itself.
    """
    return _memo(x.algebra._module_cache, ("envelope", x.key), lambda: _checked_envelope(x))


def _checked_envelope(x: Module) -> Tuple[Module, Morphism]:
    cover = _cover_map(dual_module(x))
    env = dual_module(cover.source)  # over alg: opposite() links both ways
    mono = Morphism(x, env, {v: c.transpose() for v, c in cover.comps.items()})
    if not mono.intertwines():
        raise InternalCheckError("injective envelope does not intertwine")
    if not is_mono(mono):
        raise InternalCheckError("injective envelope is not mono")
    return env, mono


def _cover_map(x: Module) -> Morphism:
    """The projective cover map of x, unchecked.

    Generators are deterministic: at each vertex, in vertex order, the
    standard vectors that complete rad(x) (the sum of the images of the
    incoming arrows) in order, found by one elimination of the images
    stacked above the identity. A path b out of v, a basis vector of P_v at
    b's target, goes to the action of b on the generator. The action on x
    of each path out of v is computed once, from the path one arrow shorter,
    and the copy of P_v for generator i takes column i of those actions.
    """
    alg = x.algebra
    field = alg.field
    parts: List[Module] = []
    blocks: Dict[str, List[np.ndarray]] = {w: [] for w in alg.vertices}
    for vi, v in enumerate(alg.vertices):
        images = [x.action[a.name].data.T for a in alg.arrows if a.target == v]
        ident = Matrix.identity(field, x.dims[v])
        rad = sum(len(i) for i in images)
        gens = [p - rad for p in RowSpan(field, x.dims[v]).independent(
            np.vstack(images + [ident.data])) if p >= rad]
        if not gens:
            continue
        parts += [alg.projective(v)] * len(gens)
        acts = {(): ident}  # path -> the matrix by which it acts on x
        paths: Dict[str, List[np.ndarray]] = {w: [] for w in alg.vertices}
        for e in alg._elts:  # a basis path extends a shorter basis path by one arrow
            if e.source == vi:
                if e.length:
                    step = x.action[alg.arrows[e.path[-1]].name]
                    acts[e.path] = step @ acts[e.path[:-1]] if e.length > 1 else step
                paths[alg.vertices[e.target]].append(acts[e.path].data[:, gens])
        for w, cols in paths.items():
            if cols:  # column i * len(cols) + j: generator i, the j-th path to w
                blocks[w].append(np.stack(cols, axis=2).reshape(x.dims[w], len(gens) * len(cols)))
    return Morphism(sum_module(parts, alg), x,
                    {w: Matrix(field, np.hstack(b)) for w, b in blocks.items() if b})


def syzygy(x: Module) -> Tuple[Module, ShortExactSequence]:
    """Kernel of the projective cover, with its witness sequence.

    Cached per algebra by module content, like covers: a hit may return a
    sequence whose ends are earlier instances with the same keys, not x
    itself.
    """
    return _memo(x.algebra._module_cache, ("syzygy", x.key), lambda: _build_syzygy(x))


def _build_syzygy(x: Module) -> Tuple[Module, ShortExactSequence]:
    p, cover = projective_cover(x)
    k, inc = kernel(cover)
    return k, ShortExactSequence(inc, cover)


def cosyzygy(x: Module) -> Tuple[Module, ShortExactSequence]:
    """Cokernel of the injective envelope, with its witness sequence."""
    i, mono = injective_envelope(x)
    c, proj = cokernel(mono)
    return c, ShortExactSequence(mono, proj)


def cone_sequence(f: Morphism) -> ShortExactSequence:
    """The cone of f: X -> Y, the conflation X -> I(X) ⊕ Y -> Z with
    inflation (ι_X; -f) and its cokernel as projection, whose column blocks
    I(X) -> Z and Y -> Z are the pushout legs of ι_X along f."""
    u = Morphism.vstack([injective_envelope(f.source)[1], -f])
    return ShortExactSequence(u, cokernel(u)[1])


# -- approximations ------------------------------------------------------------


def approximation(components: Sequence[Module], x: Module) -> Morphism:
    """A right add(T)-approximation ⊕kept -> x, for T the sum of components.

    Hom-basis maps from the components to x are visited in a fixed order
    (component order, then basis order); one is dropped when it already lies
    in kept ∘ End(T). One elimination per component decides its maps (see
    :func:`_greedy_approximation`). The choice is greedy, not minimal:
    against the projectives of preprojective A3/F_2 the approximation of P3
    has source dims (3,4,3), where its projective cover has (1,1,1).
    Verdicts do not depend on minimality; sizes and costs do. Cached per
    algebra by the components' keys and x.key (not per context: a module
    over the opposite algebra may share a key with one over the algebra): a
    hit returns the cached map, whose target is a module with x's key, not
    necessarily x.
    """
    key = ("approx", tuple(c.key for c in components), x.key)
    return _memo(x.algebra._module_cache, key, lambda: _greedy_approximation(components, x))


def _greedy_approximation(components: Sequence[Module], x: Module) -> Morphism:
    """The greedy pass of :func:`approximation`: one ``RowSpan.independent``
    per component c with Hom(c, x) ≠ 0, over S (the maps kept from each
    earlier c' composed with Hom(c, c')), then h_1, h_1 ∘ End(c), h_2,
    h_2 ∘ End(c), … for h_1 … h_n the basis of Hom(c, x). h_j is kept iff
    its position is returned, iff it lies outside S + Σ_{i<j} h_i ∘ End(c).
    That sum is S + Σ_{i<j, h_i kept} h_i ∘ End(c), the span of testing one
    map at a time, as it is a right End(c)-submodule and so holds each
    dropped h_i with its orbit. And h lies in S + kept ∘ End(c) iff h ∘ π_c
    lies in kept ∘ End(T) (precompose with ι_c; conversely a gives
    ι ∘ a ∘ π_c). The kept maps are stacked once, at the end."""
    kept: List[Tuple[Module, np.ndarray]] = []  # (component, its kept rows of Hom(c, x))
    for comp in components:
        homs = hom_matrix(comp, x).data
        if not len(homs):
            continue
        earlier = [compose_pairs(hom_matrix(comp, prev).data, comp, prev, rows, x)
                   for prev, rows in kept]
        endo = hom_matrix(comp, comp).data
        orbits = compose_pairs(endo, comp, comp, homs, x).reshape(len(endo), len(homs), -1)
        step = len(endo) + 1  # row j * step of own is h_j, then its orbit h_j ∘ End(c)
        own = np.concatenate([homs[:, None], orbits.transpose(1, 0, 2)], axis=1)
        s = sum(len(e) for e in earlier)
        picked = RowSpan(x.algebra.field, homs.shape[1]).independent(
            np.vstack(earlier + [own.reshape(len(homs) * step, -1)]))
        rows = [(p - s) // step for p in picked if p >= s and (p - s) % step == 0]
        if rows:
            kept.append((comp, homs[rows]))
    if not kept:  # no component has a nonzero map to x
        return Morphism.zero(zero_module(x.algebra), x)
    return Morphism.hstack([Morphism.from_vec(comp, x, h) for comp, rows in kept for h in rows])


def left_approximation(components: Sequence[Module], x: Module) -> Morphism:
    """A left add(T)-approximation x -> ⊕kept: the transpose of the right
    approximation of D(x) by the D(c), over the opposite algebra. D turns
    maps x -> T into maps D(T) -> D(x), so a map out of x factors through
    the transpose iff its dual factors through the right approximation."""
    dual = approximation([dual_module(c) for c in components], dual_module(x))
    return Morphism(x, dual_module(dual.source),
                    {v: c.transpose() for v, c in dual.comps.items()})


# -- Ext^1 ---------------------------------------------------------------------


def ext1_dim(x: Module, y: Module) -> int:
    """dim Ext^1(x, y) from the chosen projective presentation of x:
    dim coker(Hom(P0, y) -> Hom(Omega x, y))."""
    omega, ses = syzygy(x)
    images = compose_basis(hom_matrix(ses.middle, y).data, ses.middle, y, right=ses.i)
    return hom_matrix(omega, y).rows - Matrix(y.algebra.field, images).rank()


def ext1_dim_via_copresentation(x: Module, y: Module) -> int:
    """Independent cross-check: dim coker(Hom(x, I0) -> Hom(x, cosyzygy y))."""
    mho, ses = cosyzygy(y)
    images = compose_basis(hom_matrix(x, ses.middle).data, x, ses.middle, left=ses.p)
    return hom_matrix(x, mho).rows - Matrix(x.algebra.field, images).rank()


# -- add-subspaces and quotient hom spaces ----------------------------------------


def factors_through_add(x: Module, z: Module, y: Module) -> RowSpan:
    """The subspace of Hom(x, y), in ``Morphism.vec()`` coordinates, of the
    morphisms factoring through a finite power of z.

    When x or y lies in add(z) (:func:`in_add`) this is all of Hom(x, y),
    and the span of its basis is returned without composing. If
    id_x = Σ b_i ∘ a_i with a_i: x -> z_i, then every f: x -> y equals
    Σ (f ∘ b_i) ∘ a_i, which factors through ⊕ z_i; for y in add(z), write
    id_y so and compose on the left. The two spans are then one space, and
    its reduced row echelon form is unique, so ``rows`` and ``pivots`` are
    those of the pairwise span. Otherwise the pairwise span is built
    (:func:`_pairwise_span`).
    """
    if in_add(x, z) or in_add(y, z):
        span = RowSpan(x.algebra.field, hom_width(x, y))
        span.add(hom_matrix(x, y).data)
        return span
    return _pairwise_span(x, z, y)


def _pairwise_span(x: Module, z: Module, y: Module) -> RowSpan:
    """The span of the composites b ∘ a of basis maps a: x -> z and
    b: z -> y. A morphism lies in it iff it factors through z^n for some
    finite n, so the linear test is exact. For a sum z the composites are
    taken within one part at a time: b ∘ a is the sum over the parts z_i of
    (b ι_i)(π_i a), so the span is the same.
    """
    bases = [(part, hom_matrix(x, part).data, hom_matrix(part, y).data)
             for part in z.parts or (z,)]
    images = [compose_pairs(a, x, part, b, y) for part, a, b in bases if len(a) and len(b)]
    span = RowSpan(x.algebra.field, hom_width(x, y))
    if images:
        span.add(np.vstack(images))
    return span


def through_injectives(x: Module, y: Module) -> RowSpan:
    """The span in Hom(x, y) of the maps factoring through an injective:
    Hom(I(x), y) ∘ ι_x, since every map from x into an injective extends
    along the envelope ι_x: x -> I(x).

    Cached per algebra by (x.key, y.key), so callers share one span: it
    must not be mutated (``add`` only to a span the caller built itself)."""
    return _memo(x.algebra._module_cache, ("through_injectives", x.key, y.key),
                 lambda: _build_through_injectives(x, y))


def _build_through_injectives(x: Module, y: Module) -> RowSpan:
    i_x, iota = injective_envelope(x)
    span = RowSpan(x.algebra.field, hom_width(x, y))
    span.add(compose_basis(hom_matrix(i_x, y).data, i_x, y, right=iota))
    return span


def kills_stably(z: Module, h: Morphism) -> bool:
    """True iff every h ∘ b, for b: z -> h.source, factors through an
    injective: h kills Hom(z, -) in the stable category. For z = 0 there is
    no such b besides zero, so nothing is solved or cached."""
    if z.is_zero():
        return True
    return through_injectives(z, h.target).contains(
        compose_basis(hom_matrix(z, h.source).data, z, h.source, left=h))


def in_add(x: Module, z: Module) -> bool:
    """True iff x is a direct summand of a finite power of z: id_x lies in
    the span of the composites x -> z -> x, the span of
    :func:`_pairwise_span` (never :func:`factors_through_add`, which asks
    this). Cached per algebra by (x.key, z.key); the zero module is in every
    add(z) and caches nothing.

    The span is built one part of z at a time (:func:`_identity_through`),
    and the test stops at the first part after which it holds id_x. The span
    only grows, and after the last part it is the whole pairwise span, so
    an early True is the whole span's verdict, and a False is reached only
    on the whole span."""
    if x.is_zero():
        return True
    return _memo(x.algebra._module_cache, ("in_add", x.key, z.key),
                 lambda: _identity_through(x, z))


def _identity_through(x: Module, z: Module) -> bool:
    """The verdict of :func:`in_add`: the composites Hom(part, x) ∘
    Hom(x, part) inserted part by part, with id_x tested after each part."""
    ident = Morphism.identity(x).vec()
    span = RowSpan(x.algebra.field, hom_width(x, x))
    for part in z.parts or (z,):
        a, b = hom_matrix(x, part).data, hom_matrix(part, x).data
        if len(a) and len(b):
            if span.add(compose_pairs(a, x, part, b, x)) and span.contains(ident):
                return True
    return False


class QuotientHom:
    """Hom(x, y) modulo a subspace ``sub``, on the rows of ``hom_matrix(x, y)``.

    ``sub`` is the reduced span of the subspace factored out, such as
    ``factors_through_add(x, z, y)`` or ``through_injectives(x, y)``. The
    representatives are the basis rows whose canonical forms are independent,
    chosen in basis order: ``rep_indices`` into the basis, the rows
    themselves, and their canonical forms. :meth:`canonical` and
    :meth:`coords` take one vector or a stack of them.
    """

    def __init__(self, x: Module, y: Module, sub: RowSpan):
        self.x, self.y, self.sub = x, y, sub
        basis = hom_matrix(x, y).data if sub.width else sub.rows  # width 0: no solve
        self.rep_indices = sub.independent(basis)  # reduce is linear with kernel sub
        self.rep_rows = basis[self.rep_indices]
        self.rep_canonicals = sub.reduce(self.rep_rows)

    @property
    def dim(self) -> int:
        return len(self.rep_indices)

    def canonical(self, rows: np.ndarray) -> np.ndarray:
        return self.sub.reduce(rows)

    def coords(self, rows: np.ndarray) -> np.ndarray:
        """Coordinates of the cosets of rows in the representative basis."""
        sol = solve_in_span(self.sub.field, self.rep_canonicals, self.canonical(rows))
        if sol is None:
            raise InternalCheckError("coset does not lie in the representative span")
        return sol


def stable_hom(x: Module, y: Module) -> QuotientHom:
    """Hom(x, y) modulo the maps factoring through injectives. From a zero x
    it is the zero space, and no span is built or cached."""
    if x.is_zero():
        return QuotientHom(x, y, RowSpan(x.algebra.field, 0))
    return QuotientHom(x, y, through_injectives(x, y))


# -- Frobenius-side predicates --------------------------------------------------------


def is_self_injective(alg: Algebra) -> bool:
    """True iff projectives and injectives generate the same additive class:
    as envelopes are minimal, P_v is injective iff its envelope has P_v's
    dimensions; dually for I_v and its cover."""
    return all(injective_envelope(p)[0].dims == p.dims for p in alg.projectives()) and all(
        projective_cover(i)[0].dims == i.dims for i in alg.injectives())


# -- linear lifting helpers ------------------------------------------------------------


def solve_postcompose(left: Morphism, rhs: Morphism) -> Optional[Morphism]:
    """Some s with left @ s = rhs, searched inside Hom(rhs.source, left.source)."""
    x, y = rhs.source, left.source
    images = compose_basis(hom_matrix(x, y).data, x, y, left=left)
    coeffs = solve_in_span(x.algebra.field, images, rhs.vec())
    return None if coeffs is None else combine(x, y, coeffs)
