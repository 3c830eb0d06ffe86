"""The homotopical layer over a rigid subcategory of a module category.

A :class:`RigidContext` fixes the additive generator of the rigid class,
validates the standing hypotheses, and derives the cosyzygy generator and
the class generator U whose add-closure is the homotopy ideal. Its
``_caches`` holds one dict per store, made on first use, so a store is named
only at the ``_memo`` call that fills it; this module's stores hold the
cofibrant replacements and presentations per module key, the stable hom
spaces from the generator, and the fibration and weak-equivalence verdicts
per ``Morphism.key``. The cofibrant replacement of x is the cone of
M1 -> K0 -> M0, for right add(M_gen)-approximations a: M0 -> x and
M1 -> K0 = ker a: the end of ``homological.cone_sequence``, the one cone.

Stable hom from the generator is taken from its costable part, the sum of
the components with nonzero cosyzygy, that is, the non-injective ones; the
outputs are byte for byte those of the whole generator. Stable Hom(⊕M_i, x)
is ⊕ stable Hom(M_i, x), and a block whose source or target is injective
factors through it, so is zero. The hom basis of a sum is assembled from its
parts' blocks, and the RREF of a direct sum of subspaces on disjoint
coordinates is the union of their RREFs. So every representative of the
whole generator sits in the costable x costable block, in the same order,
with equal coordinates there: the stable endomorphism table, its unit, the
G-images and the dl-verify checksums do not move.

Weak equivalences are the morphisms inverted by the stable-hom functor at
the generator; fibrations are detected by surjectivity of Hom(U, -), an
exact finite reduction of the defining lifting property.

Surjectivity of Hom(probe, f) for f: X -> Y is read off f_v at the
projective summands of the probe, and solved as a hom rank only over the
rest. Hom(⊕Q_i, f) is onto iff each Hom(Q_i, f) is, and Hom(P_v^n, f) iff
Hom(P_v, f). By Yoneda, φ -> φ_v(e_v) is an isomorphism Hom(P_v, X) -> X_v
natural in X, so Hom(P_v, f) is f_v: X_v -> Y_v, onto iff
rank f_v = dim Y_v. The fibration test and lifting against 0 -> C (whose
squares are the maps C -> Y, and whose lifts those into X) both go this
way. The cone check of fibrations drops U's injective summands: a map b out
of an injective summand I factors through I, so g ∘ b does too, and
kills_stably(U, g) is kills_stably(mho_M_gen, g), the summands of U being
those of mho_M_gen and the injectives. Cofibrancy is one
presentation test: x is cofibrant iff the kernel of its right
add(M_gen)-approximation a lies in add(M_gen). Any other presentation
M0' -> x with kernel M1' factors through a, so the pullback of the two is
ker(a) ⊕ M0'; it is also an extension of M0 by M1', split by rigidity, so
ker(a) is a summand of M1' ⊕ M0.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .errors import HypothesisError, InputError, InternalCheckError
from .exact_linalg import Matrix
from .algebra_repr import (
    Algebra,
    Module,
    Morphism,
    ShortExactSequence,
    _memo,
    _split,
    cokernel,
    cokernel_factor,
    compose_basis,
    hom_dim,
    hom_matrix,
    is_epi,
    is_mono,
    kernel,
    sum_module,
)
from .homological import (
    QuotientHom,
    approximation,
    cone_sequence,
    cosyzygy,
    ext1_dim,
    factors_through_add,
    in_add,
    is_self_injective,
    kills_stably,
    projective_split,
    solve_postcompose,
    stable_hom,
)

EXACT = "exact"
FROBENIUS = "frobenius"


@dataclass
class Replacement:
    """A cofibrant replacement phi: A -> X with its presentation witness."""

    a: Module
    phi: Morphism
    witness: ShortExactSequence


@dataclass
class Factorization:
    """f = right ∘ left, through the middle object left.target."""

    left: Morphism
    right: Morphism
    flavor: str


class RigidContext:
    """An algebra together with the additive generator of a rigid subcategory.

    components are the named direct summands of the generator, and M_gen
    their sum. costable_gen sums the components whose cosyzygy is nonzero,
    in order and with repeats (the zero module when there are none): the
    generator as the stable category sees it, from which
    :meth:`stable_from_generator` takes stable hom. U_components are the
    summands of the class generator U: those cosyzygies, then the
    injectives, each key once. components and U_components are approximated
    against by ``homological.approximation``.
    """

    def __init__(self, alg: Algebra, components: Sequence[Module], mode: str):
        self.alg = alg
        self.components = list(components)
        self.mode = mode
        self.M_gen = sum_module(self.components)
        injectives = alg.injectives()
        injective_keys = {i.key for i in injectives}
        cosyzygies = {c.key: cosyzygy(c)[0] for c in self.components
                      if c.key not in injective_keys}
        costable = [c for c in self.components
                    if c.key in cosyzygies and not cosyzygies[c.key].is_zero()]
        self.costable_gen = sum_module(costable, alg)
        mhos = [cosyzygies[c.key] for c in costable]
        self.mho_M_gen = sum_module(mhos, alg)
        unique: Dict[tuple, Module] = {}
        for c in mhos + injectives:
            unique.setdefault(c.key, c)
        self.U_components = list(unique.values())
        self.U = sum_module(self.U_components)
        self._caches: Dict[str, dict] = defaultdict(dict)

    def stable_from_generator(self, x: Module) -> QuotientHom:
        """Stable Hom(costable_gen, x), cached per x.key (module docstring)."""
        return _memo(self._caches["stable"], x.key,
                     lambda: stable_hom(self.costable_gen, x))

    def __repr__(self):
        return (
            f"RigidContext(mode={self.mode}, M_gen dims {self.M_gen.dims_tuple()}, "
            f"U dims {self.U.dims_tuple()})"
        )


def build_context(alg: Algebra, m_gen: Sequence[Module], mode: str) -> RigidContext:
    """Validate every hypothesis and assemble the cached structures.

    Rejections carry the full list of violated hypotheses: rigidity of the
    generator, injectives (and in exact mode projectives) lying in its
    add-closure, and self-injectivity of the algebra in frobenius mode.
    """
    if mode not in (EXACT, FROBENIUS):
        raise InputError(f"unknown mode {mode!r}")
    if not m_gen:
        raise InputError("M_gen needs at least one component")
    ctx = RigidContext(alg, m_gen, mode)
    violations = []
    if ext1_dim(ctx.M_gen, ctx.M_gen) != 0:
        violations.append("M_gen is not rigid: Ext^1(M_gen, M_gen) != 0")
    for v, inj in zip(alg.vertices, alg.injectives()):
        if not in_add(inj, ctx.M_gen):
            violations.append(f"injective at vertex {v} is not in add(M_gen)")
    if mode == EXACT:
        for v, proj in zip(alg.vertices, alg.projectives()):
            if not in_add(proj, ctx.M_gen):
                violations.append(f"projective at vertex {v} is not in add(M_gen)")
    else:
        if not is_self_injective(alg):
            violations.append("frobenius mode requires a self-injective algebra")
    if violations:
        raise HypothesisError(violations)
    return ctx


# -- approximations ------------------------------------------------------------


def right_M_approximation(ctx: RigidContext, x: Module) -> Morphism:
    """A right add(M_gen)-approximation of x, epi since projectives lie in M."""
    approx = approximation(ctx.components, x)
    if not is_epi(approx):
        raise InternalCheckError("M-approximation is not epi")
    return approx


def _presentation(ctx: RigidContext, x: Module) -> ShortExactSequence:
    """0 -> ker a -> M0 -> x -> 0 for a = ``right_M_approximation(ctx, x)``."""
    a_map = right_M_approximation(ctx, x)
    return ShortExactSequence(kernel(a_map)[1], a_map)


# -- cofibrant replacement --------------------------------------------------------


def cofibrant_replacement(ctx: RigidContext, x: Module) -> Replacement:
    """The cone M1 -> I(M1) ⊕ M0 -> A of M1 -> K0 -> M0 (module docstring),
    with phi: A -> x induced by (0 a), which kills the image of M1.

    phi is verified to be a trivial fibration (and epi) before return.
    Cached per x.key, so the replacement's x may be another module with x's key.
    """
    return _memo(ctx._caches["replacement"], x.key, lambda: _build_replacement(ctx, x))


def _build_replacement(ctx: RigidContext, x: Module) -> Replacement:
    pres = _presentation(ctx, x)  # K0 -> M0 -> x
    alpha = right_M_approximation(ctx, pres.sub)  # M1 -> K0
    witness = cone_sequence(pres.i @ alpha).validate()
    i_m1 = witness.middle.parts[0]
    phi = cokernel_factor(witness.p, Morphism.hstack([Morphism.zero(i_m1, x), pres.p]))
    if not is_epi(phi):
        raise InternalCheckError("replacement map is not epi")
    if not is_fibration(ctx, phi):
        raise InternalCheckError("replacement map is not a fibration")
    if not is_weak_equivalence(ctx, phi):
        raise InternalCheckError("replacement map is not a weak equivalence")
    return Replacement(witness.p.target, phi, witness)


# -- the two predicate classes ------------------------------------------------------


def is_weak_equivalence(ctx: RigidContext, f: Morphism) -> bool:
    """True iff postcomposition is bijective on stable hom from the generator.

    Evaluation at the additive generator reflects isomorphisms of modules
    over the stable endomorphism algebra, so this linear test is exactly
    invertibility of the image of f under the stable-hom functor. The
    verdict depends only on f's content and the context, so it is cached
    per ``f.key`` in ``ctx._caches["weq"]``.
    """
    return _memo(ctx._caches["weq"], f.key, lambda: _decide_weak_equivalence(ctx, f))


def _decide_weak_equivalence(ctx: RigidContext, f: Morphism) -> bool:
    sx = ctx.stable_from_generator(f.source)
    sy = ctx.stable_from_generator(f.target)
    if sx.dim != sy.dim:
        return False
    if sx.dim == 0:
        return True
    images = sy.canonical(compose_basis(sx.rep_rows, sx.x, f.source, left=f))
    return Matrix(ctx.alg.field, images).rank() == sy.dim


def _post_map_surjective(ctx: RigidContext, probe: Module, f: Morphism) -> bool:
    """Surjectivity of Hom(probe, source) -> Hom(probe, target): at the top
    vertex v of each projective part, rank f_v = dim target_v (Yoneda, module
    docstring); over the other parts, by the rank of the composites."""
    tops, rest = projective_split(probe)
    if any(f.comps[v].rank() != f.target.dims[v] for v in tops):
        return False
    if rest.is_zero():
        return True
    images = compose_basis(hom_matrix(rest, f.source).data, rest, f.source, left=f)
    return Matrix(ctx.alg.field, images).rank() == hom_dim(rest, f.target)


def is_fibration(ctx: RigidContext, f: Morphism) -> bool:
    """Right lifting against every 0 -> (cosyzygy-class object), reduced to one
    exact condition: Hom(U, -) maps surjectively along f. Cached per
    ``f.key`` in ``ctx._caches["fibration"]``, as the verdict depends only
    on f's content and the context."""
    return _memo(ctx._caches["fibration"], f.key, lambda: _post_map_surjective(ctx, ctx.U, f))


def is_trivial_fibration(ctx: RigidContext, f: Morphism) -> bool:
    return is_fibration(ctx, f) and is_weak_equivalence(ctx, f)


def fibration_via_cone(ctx: RigidContext, f: Morphism) -> bool:
    """Frobenius-mode cross-check: a deflation whose cone projection (u g)
    kills mho_M_gen stably (U less its injective summands, which change no
    stable-kill test: module docstring). It does iff its leg g does, as the
    block u out of I(X) factors through an injective."""
    if ctx.mode != FROBENIUS:
        raise InputError("fibration_via_cone requires frobenius mode")
    return is_epi(f) and kills_stably(ctx.mho_M_gen, cone_sequence(f).p)


def lift(ctx: RigidContext, g: Morphism, f: Morphism) -> Morphism:
    """beta with f @ beta = g, for f a trivial fibration and cofibrant domain.

    Precondition violations raise InputError; unsolvability under valid
    preconditions is an internal failure, not a user error.
    """
    if g.target.key != f.target.key:
        raise InputError("lift needs matching targets")
    if not is_trivial_fibration(ctx, f):
        raise InputError("lift requires a trivial fibration")
    if not is_cofibrant(ctx, g.source):
        raise InputError("lift requires a cofibrant domain")
    beta = solve_postcompose(f, g)
    if beta is None:
        raise InternalCheckError("lift is unsolvable despite valid preconditions")
    return beta


# -- cofibrancy ---------------------------------------------------------------------


def presentation_of_cofibrant(ctx: RigidContext, x: Module) -> Optional[ShortExactSequence]:
    """``_presentation(ctx, x)`` when ker a lies in add(M_gen); None when it
    does not, and then (by the module docstring) x has no two-step
    presentation in add(M_gen) at all. Cached per x.key."""
    def build():
        pres = _presentation(ctx, x)
        return pres if in_add(pres.sub, ctx.M_gen) else None
    return _memo(ctx._caches["cofibrant"], x.key, build)


def is_cofibrant(ctx: RigidContext, x: Module) -> bool:
    """x admits a two-step presentation in add(M_gen)."""
    return presentation_of_cofibrant(ctx, x) is not None


# -- factorizations -------------------------------------------------------------------


def factorize1(ctx: RigidContext, f: Morphism) -> Factorization:
    """weq-then-fib: route through the source plus a U-approximation of the
    target; the left map is the canonical injection (1; 0) and the right map
    (f alpha)."""
    x, y = f.source, f.target
    alpha = approximation(ctx.U_components, y)
    left = Morphism.vstack([Morphism.identity(x), Morphism.zero(x, alpha.source)])
    right = Morphism.hstack([f, alpha])
    if (right @ left) != f:
        raise InternalCheckError("factorization does not recompose")
    if not is_fibration(ctx, right):
        raise InternalCheckError("right factor is not a fibration")
    if not is_weak_equivalence(ctx, left):
        raise InternalCheckError("left factor is not a weak equivalence")
    return Factorization(left, right, "weq-then-fib")


def factorize2(ctx: RigidContext, f: Morphism) -> Factorization:
    """cof-then-trivfib for cofibrant domains in frobenius mode.

    Routes through (replacement of the target) ⊕ (cosyzygy of the domain's
    presentation kernel); the left map is mono with cofibrant cokernel, the
    right map a trivial fibration.
    """
    if ctx.mode != FROBENIUS:
        raise InputError("factorize2 requires frobenius mode")
    x, y = f.source, f.target
    pres = presentation_of_cofibrant(ctx, x)
    if pres is None:
        raise InputError("factorize2 requires a cofibrant domain")
    cone = cone_sequence(pres.p)  # ends in the cosyzygy of the presentation kernel
    _, eps = _split(cone.p, cone.middle.parts, at_source=True)
    rep = cofibrant_replacement(ctx, y)
    r = lift(ctx, f, rep.phi)
    left = Morphism.vstack([r, eps])
    right = Morphism.hstack([rep.phi, Morphism.zero(cone.p.target, y)])
    if (right @ left) != f:
        raise InternalCheckError("factorization does not recompose")
    if not is_mono(left):
        raise InternalCheckError("left factor is not mono")
    if not is_trivial_fibration(ctx, right):
        raise InternalCheckError("right factor is not a trivial fibration")
    cok, _ = cokernel(left)
    if not is_cofibrant(ctx, cok):
        raise InternalCheckError("cokernel of the left factor is not cofibrant")
    return Factorization(left, right, "cof-then-trivfib")


def are_homotopic(ctx: RigidContext, f: Morphism, g: Morphism) -> bool:
    """On cofibrant domains: the difference factors through the cosyzygy class.

    General domains are refused; replace the domain first.
    """
    if f.source.key != g.source.key or f.target.key != g.target.key:
        raise InputError("morphisms must be parallel")
    if not is_cofibrant(ctx, f.source):
        raise InputError(
            "homotopy is only decided on cofibrant domains; "
            "apply cofibrant_replacement to the domain first"
        )
    sub = factors_through_add(f.source, ctx.U, f.target)
    return sub.contains((f - g).vec())
