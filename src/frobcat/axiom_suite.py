"""Seeded, randomized harness asserting the model-structure properties of a
rigid context: two-out-of-three, retract stability, pullback stability,
both factorizations, the lifting-class identity, cone characterizations,
closure of the presentable class, and homotopy/functor agreement.

A check is a generator of the violations it finds, each built by
``_violation``; a check that compares a predicate with a characterization on
sampled morphisms is one ``_agreement`` loop. Every check owns a pseudorandom
stream derived by hashing its name with the master seed, so runs are
byte-reproducible and execution order cannot leak into results, and it is
registered in ``_CHECKS`` with the modes it applies to. Sampled passes are
acceptance evidence, not proof: the axioms quantify over proper classes and
the harness necessarily samples.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, InternalCheckError
from .exact_linalg import Matrix, solve_in_span
from .algebra_repr import (
    Module,
    Morphism,
    _memo,
    _split,
    cokernel,
    combine,
    compose_basis,
    hom_dim,
    hom_matrix,
    is_epi,
    is_iso,
    is_mono,
    kernel,
    pullback,
    pushout,
    sum_module,
    zero_module,
)
from .homological import (
    approximation,
    cone_sequence,
    ext1_dim,
    in_add,
    injective_envelope,
    kills_stably,
    left_approximation,
    syzygy,
)
from .rigid_model import (
    FROBENIUS,
    RigidContext,
    _post_map_surjective,
    are_homotopic,
    cofibrant_replacement,
    factorize1,
    factorize2,
    fibration_via_cone,
    is_cofibrant,
    is_fibration,
    is_trivial_fibration,
    is_weak_equivalence,
    presentation_of_cofibrant,
    right_M_approximation,
)


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _random_hom(ctx: RigidContext, rng: random.Random, x: Module, y: Module) -> Morphism:
    field = ctx.alg.field
    return combine(x, y, [field.sample(rng) for _ in range(hom_dim(x, y))])


# -- violations and reports -----------------------------------------------------


@dataclass
class Violation:
    description: str
    expected: str
    observed: str
    inputs: dict

    def to_text(self) -> str:
        return (
            f"  violation: {self.description} expected={self.expected} "
            f"observed={self.observed} inputs={json.dumps(self.inputs, sort_keys=True)}"
        )


def _violation(description: str, expected, observed, **inputs) -> Violation:
    """A violation with its inputs written to be replayed: a module as its
    ``to_dict()``, a morphism as its own with those of its source and target."""
    return Violation(description, str(expected), str(observed), {
        name: x.to_dict() if isinstance(x, Module) else
        {"modules": {"src": x.source.to_dict(), "tgt": x.target.to_dict()},
         "morphism": x.to_dict("src", "tgt")}
        for name, x in inputs.items()
    })


@dataclass
class CheckRun:
    check_name: str
    seed: int
    samples: int
    violations: List[Violation]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [
            f"{self.check_name}: seed={self.seed} samples={self.samples} "
            f"violations={len(self.violations)}"
        ]
        lines.extend(v.to_text() for v in self.violations)
        return "\n".join(lines)


@dataclass
class SuiteReport:
    seed: int
    runs: List[CheckRun]
    skipped: List[str]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.runs)

    def to_text(self) -> str:
        lines = [r.to_text() for r in self.runs]
        for name in self.skipped:
            lines.append(f"{name}: skipped (mode mismatch)")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


@dataclass
class PredicateSet:
    """The predicates a check trusts; tests corrupt these to prove every
    check can actually fail."""

    weq: Callable = is_weak_equivalence
    fib: Callable = is_fibration
    trivfib: Callable = is_trivial_fibration
    cofibrant: Callable = is_cofibrant
    homotopic: Callable = are_homotopic
    epi: Callable = staticmethod(lambda ctx, f: is_epi(f))


# -- sampling pools -----------------------------------------------------------------


def default_objects(ctx: RigidContext) -> List[Tuple[str, Module]]:
    """Simples, projectives and injectives of the context's algebra."""
    alg = ctx.alg
    seen = {}
    named = []
    for prefix, mods in (("S", alg.simples()), ("P", alg.projectives()), ("I", alg.injectives())):
        for v, m in zip(alg.vertices, mods):
            if m.key in seen:
                continue
            seen[m.key] = True
            named.append((f"{prefix}{v}", m))
    return named


def sample_universe(ctx: RigidContext,
                    objects: Optional[Sequence[Tuple[str, Module]]]) -> List[Tuple[str, Module]]:
    """Fixture indecomposables plus their two-fold direct sums."""
    base = list(objects) if objects is not None else default_objects(ctx)
    out = list(base)
    for i in range(len(base)):
        for j in range(i, len(base)):
            name = f"{base[i][0]}+{base[j][0]}"
            out.append((name, sum_module([base[i][1], base[j][1]])))
    return out


def _pick(rng: random.Random, universe) -> Module:
    return rng.choice(universe)[1]


def _u_object(ctx: RigidContext, rng: random.Random) -> Module:
    comps = [c for c in ctx.U_components if not c.is_zero()]
    if not comps:
        return zero_module(ctx.alg)
    picks = [rng.choice(comps) for _ in range(rng.randrange(1, 3))]
    return sum_module(picks)


def _canonical_injection(x: Module, v: Module) -> Morphism:
    return Morphism.vstack([Morphism.identity(x), Morphism.zero(x, v)])


def _pad_identity(f: Morphism, w: Module) -> Morphism:
    """f ⊕ id_w, of which f is a retract via the canonical maps."""
    return Morphism.hstack([Morphism.vstack([f, Morphism.zero(f.source, w)]),
                            Morphism.vstack([Morphism.zero(w, f.target), Morphism.identity(w)])])


def _sample_morphism(ctx: RigidContext, rng: random.Random, universe) -> Morphism:
    """Mixed pool: random hom combinations, weak equivalences by canonical
    injection, replacement maps, fibrations from the first factorization."""
    kind = rng.randrange(6)
    if kind == 0:
        x = _pick(rng, universe)
        return _canonical_injection(x, _u_object(ctx, rng))
    if kind == 1:
        x = _pick(rng, universe)
        return cofibrant_replacement(ctx, x).phi
    if kind == 2:
        f = _random_hom(ctx, rng, _pick(rng, universe), _pick(rng, universe))
        return factorize1(ctx, f).right
    if kind == 3:
        x = _pick(rng, universe)
        return Morphism.identity(x).scale(ctx.alg.field.sample_nonzero(rng))
    x, y = _pick(rng, universe), _pick(rng, universe)
    return _random_hom(ctx, rng, x, y)


def _sample_composable(ctx: RigidContext, rng: random.Random, universe):
    """A composable pair (f, g); patterns keep weak equivalences frequent."""
    pattern = rng.randrange(5)
    if pattern == 0:
        x, y, z = (_pick(rng, universe) for _ in range(3))
        return _random_hom(ctx, rng, x, y), _random_hom(ctx, rng, y, z)
    if pattern == 1:
        x = _pick(rng, universe)
        f = _canonical_injection(x, _u_object(ctx, rng))
        g = _random_hom(ctx, rng, f.target, _pick(rng, universe))
        return f, g
    if pattern == 2:
        y = _pick(rng, universe)
        f = _random_hom(ctx, rng, _pick(rng, universe), y)
        g = _canonical_injection(y, _u_object(ctx, rng))
        return f, g
    if pattern == 3:
        x = _pick(rng, universe)
        rep = cofibrant_replacement(ctx, x)
        g = _random_hom(ctx, rng, x, _pick(rng, universe))
        return rep.phi, g
    y = _pick(rng, universe)
    rep = cofibrant_replacement(ctx, y)
    f = _random_hom(ctx, rng, _pick(rng, universe), rep.a)
    return f, rep.phi


# -- exact lifting tests --------------------------------------------------------------


def rlp_holds(ctx: RigidContext, g: Morphism, f: Morphism) -> bool:
    """Exact right-lifting-property test of f: E -> F against g: A -> B.

    Linear formulation: l -> (l∘g, f∘l) maps Hom(B, E) into the space K of
    squares {(a, b) : f∘a = b∘g}, so every square has a lift iff the image
    has dimension dim K. Both sides are counts; no square sampling.

    dim K is dim Hom(A, E) + dim Hom(B, F) less the rank of
    (a, b) -> f∘a - b∘g. For B = ⊕B_i (its ``parts``), the basis of
    Hom(B, F) is the bases of the Hom(B_i, F) scattered into the sum's
    coordinates (``hom_matrix``), and a scattered b = (0 … b_i … 0) has
    b∘g = b_i∘g_i for the row block g_i: A -> B_i of g. So the rows b_i∘g_i,
    one part at a time, are the rows b∘g in another order: the rank is the
    same, and the basis of Hom(B, F) is never assembled.

    The image has dimension dim Hom(B, E) - dim Hom(coker g, ker f), as the
    kernel {l : l∘g = 0, f∘l = 0} is Hom(coker g, ker f): l∘g = 0 iff
    l = m'∘q for a unique m': coker g -> E (q the projection, epi), and then
    f∘l = 0 iff f∘m' = 0 iff m' = ι∘m for a unique m: coker g -> ker f
    (ι the inclusion, mono). The two modules are kept per ``Morphism.key``
    in ``ctx._caches["rlp_coker"]`` and ``ctx._caches["rlp_ker"]``.

    The verdict depends only on the content of g and f and on the context,
    so it is cached per ``(g.key, f.key)`` in ``ctx._caches["rlp"]``.
    """
    return _memo(ctx._caches["rlp"], (g.key, f.key), lambda: _rlp_by_rank(ctx, g, f))


def _rlp_by_rank(ctx: RigidContext, g: Morphism, f: Morphism) -> bool:
    if g.source.is_zero():  # a square is a map g.target -> f.target, a lift one into f.source
        return _post_map_surjective(ctx, g.target, f)
    homs_a = hom_matrix(g.source, f.source)
    rows = [compose_basis(homs_a.data, g.source, f.source, left=f)]
    count = homs_a.rows
    b = g.target
    for part, g_i in zip(b.parts, _split(g, b.parts, at_source=False)) if b.parts else [(b, g)]:
        homs = hom_matrix(part, f.target)
        rows.append(compose_basis(homs.data, part, f.target, right=g_i))
        count += homs.rows
    dim_k = count - Matrix(ctx.alg.field, np.vstack(rows)).rank()
    if dim_k == 0:
        return True
    coker = _memo(ctx._caches["rlp_coker"], g.key, lambda: cokernel(g)[0])
    ker = _memo(ctx._caches["rlp_ker"], f.key, lambda: kernel(f)[0])
    return hom_dim(b, f.source) - hom_dim(coker, ker) == dim_k


def _presentation_element(p: Morphism) -> Morphism:
    """(p; ι): M0 -> X ⊕ I(M0) for a deflation p, ι the envelope of M0: the
    inflation of p's ``cone_sequence`` with its blocks swapped and no sign.
    In the cone's order (ι; -p) the verdicts stay, but the tailored elements'
    cokernels no longer coincide, and ``a4f2-battery`` slows by 9-14%."""
    return Morphism.vstack([p, injective_envelope(p.source)[1]])


def _base_lifting_elements(ctx: RigidContext, universe) -> List[Morphism]:
    elements = [Morphism.zero(zero_module(ctx.alg), ctx.M_gen)]
    for comp in ctx.components:
        elements.append(Morphism.zero(zero_module(ctx.alg), comp))
    targets = list(ctx.U_components) + [m for _, m in universe]
    seen = set()
    for x in targets:
        if x.key in seen or x.is_zero():
            continue
        seen.add(x.key)
        pres = presentation_of_cofibrant(ctx, x)
        if pres is not None:
            elements.append(_presentation_element(pres.p))
    return elements


def _tailored_lifting_elements(ctx: RigidContext, f: Morphism) -> List[Morphism]:
    """Presentation elements built from the kernel of f itself; these detect
    failures of stable injectivity that fixed elements can miss. Each map
    M_gen -> ker f -> f.source factors through the right
    add(M_gen)-approximation a of f.source, all of them in one solve; one
    that does not means a is no approximation."""
    if not is_epi(f):
        return []
    k, inc = kernel(f)
    approx = right_M_approximation(ctx, f.source)
    m, m0 = ctx.M_gen, approx.source
    rhs = compose_basis(hom_matrix(m, k).data, m, k, left=inc)
    lifts = compose_basis(hom_matrix(m, m0).data, m, m0, left=approx)
    coeffs = solve_in_span(ctx.alg.field, lifts, rhs)
    if coeffs is None:
        raise InternalCheckError("a map from M_gen does not factor through its approximation")
    inflations = [_presentation_element(combine(m, m0, row)) for row in coeffs]
    return [_presentation_element(cokernel(infl)[1]) for infl in inflations]


# -- the checks -------------------------------------------------------------------------


def _agreement(ctx, rng, samples, universe, lhs, rhs, why) -> Iterator[Violation]:
    """The sampled morphisms f on which lhs(ctx, f) and rhs(ctx, f) disagree."""
    for _ in range(samples):
        f = _sample_morphism(ctx, rng, universe)
        a, b = lhs(ctx, f), rhs(ctx, f)
        if a != b:
            yield _violation(why, a, b, f=f)


def _check_two_out_of_three(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    for _ in range(samples):
        f, g = _sample_composable(ctx, rng, universe)
        wf, wg, wgf = pred.weq(ctx, f), pred.weq(ctx, g), pred.weq(ctx, g @ f)
        cases = [
            (wf and wg and not wgf, "f,g in W but not g∘f"),
            (wf and wgf and not wg, "f,g∘f in W but not g"),
            (wg and wgf and not wf, "g,g∘f in W but not f"),
        ]
        for bad, why in cases:
            if bad:
                yield _violation(why, "membership", "non-membership", f=f, g=g)


def _check_retract_stability(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    for _ in range(samples):
        f = _sample_morphism(ctx, rng, universe)
        w = _pick(rng, universe)
        padded = _pad_identity(f, w)
        if pred.weq(ctx, padded) and not pred.weq(ctx, f):
            yield _violation("retract of a weak equivalence is not one", "weq", "not weq", f=f)
        if pred.fib(ctx, padded) and not pred.fib(ctx, f):
            yield _violation("retract of a fibration is not one",
                             "fibration", "not fibration", f=f)


def _check_pullback_fibration(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    for _ in range(samples):
        r = _random_hom(ctx, rng, _pick(rng, universe), _pick(rng, universe))
        fib = factorize1(ctx, r).right
        b = _random_hom(ctx, rng, _pick(rng, universe), fib.target)
        _, _, h = pullback(fib, b)
        if not pred.fib(ctx, h):
            yield _violation("pullback of a fibration is not a fibration",
                             "fibration", "not fibration", f=fib, b=b)
        # trivial fibration pulled back along a deflation with split-mono kernel
        y = _pick(rng, universe)
        phi = cofibrant_replacement(ctx, y).phi
        w = _pick(rng, universe)
        p = Morphism.hstack([Morphism.identity(y), _random_hom(ctx, rng, w, y)])
        _, _, h2 = pullback(phi, p)
        if not pred.trivfib(ctx, h2):
            yield _violation("pullback of a trivial fibration along a deflation is not trivial",
                             "trivial fibration", "not", p=p)


def _check_factorization1(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    for _ in range(samples):
        f = _random_hom(ctx, rng, _pick(rng, universe), _pick(rng, universe))
        fac = factorize1(ctx, f)
        if (fac.right @ fac.left) != f:
            yield _violation("factorization does not recompose", "f", "other", f=f)
        if not pred.fib(ctx, fac.right):
            yield _violation("right factor not a fibration", "fibration", "not", f=f)
        if not pred.weq(ctx, fac.left):
            yield _violation("left factor not a weak equivalence", "weq", "not", f=f)


def _check_factorization2(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    cofibrants = [m for _, m in universe if is_cofibrant(ctx, m)]
    if not cofibrants:
        return
    for _ in range(samples):
        x = rng.choice(cofibrants)
        f = _random_hom(ctx, rng, x, _pick(rng, universe))
        fac = factorize2(ctx, f)
        if (fac.right @ fac.left) != f:
            yield _violation("factorization does not recompose", "f", "other", f=f)
        if not pred.trivfib(ctx, fac.right):
            yield _violation("right factor not a trivial fibration", "trivial", "not", f=f)
        if not is_mono(fac.left):
            yield _violation("left factor not mono", "mono", "not", f=f)
        cok, _ = cokernel(fac.left)
        if not pred.cofibrant(ctx, cok):
            yield _violation("cokernel of left factor not cofibrant", "cofibrant", "not", f=f)


def _check_lifting_I_eq_JW(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    base = _base_lifting_elements(ctx, universe)
    return _agreement(
        ctx, rng, samples, universe, pred.trivfib,
        lambda ctx, f: (all(rlp_holds(ctx, g, f) for g in base)
                        and all(rlp_holds(ctx, g, f) for g in _tailored_lifting_elements(ctx, f))),
        "trivial-fibration predicate disagrees with lifting against presentation elements")


def _check_sq_J_in_W(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    for _ in range(samples):
        x = _pick(rng, universe)
        f = _canonical_injection(x, _u_object(ctx, rng))
        # conjugating by an automorphism stays in the lifting class
        endo = _random_hom(ctx, rng, f.target, f.target)
        theta = Morphism.identity(f.target) + endo
        if is_iso(theta):
            f = theta @ f
        if not pred.weq(ctx, f):
            yield _violation("left-lifting-class morphism is not a weak equivalence",
                             "weq", "not", f=f)


def weq_via_cones(ctx: RigidContext, f: Morphism) -> bool:
    """The cone characterization of weak equivalences, in both modes.

    Let C be the costable generator (maps out of the generator's injective
    summands factor through one), [I] the maps through an injective,
    r: I_Y -> Y the right add(injectives)-approximation of Y = f.target and
    F = (f -r): X ⊕ I_Y -> Y. The predicate is that Hom(C, f)/[I] is
    bijective, and it holds iff
    (i) Hom(C, F) is onto: if b = f a + h with h through an injective J,
    the map J -> Y factors through r, so h = r c and b = F(a; -c);
    conversely r c factors through I_Y; and
    (ii) ``kills_stably(C, ker F)``: a map into X ⊕ I_Y lies in [I] iff its
    X-part does; if f a lies in [I], then f a = r c and (a; c) lifts to
    ker F, and if (a; c) lies in ker F, then f a = r c lies in [I].
    In frobenius mode the projective cover is one such r. The verdict is
    reached by an approximation, a kernel and a hom rank, where the
    predicate uses stable-hom quotients and canonical forms."""
    r = approximation(ctx.alg.injectives(), f.target)
    big_f = Morphism.hstack([f, -r])
    return (_post_map_surjective(ctx, ctx.costable_gen, big_f)
            and kills_stably(ctx.costable_gen, kernel(big_f)[1]))


def _check_weq_cone_characterization(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    """``weq_via_cones`` against the predicate, on the draws of ``_agreement``.
    A weak equivalence's cone projection (u g): I(X) ⊕ Y -> Z also kills the
    generator stably: each b: C -> Y is f a + h with h through an injective,
    so g b = u ι a + g h, and both terms factor through injectives. That
    implication is tested on the same draws."""
    for _ in range(samples):
        f = _sample_morphism(ctx, rng, universe)
        a, b = pred.weq(ctx, f), weq_via_cones(ctx, f)
        if a != b:
            yield _violation("weq predicate disagrees with cone characterization", a, b, f=f)
        if a and not kills_stably(ctx.costable_gen, cone_sequence(f).p):
            yield _violation("weak equivalence whose cone projection does not kill the "
                             "generator stably", "kills stably", "not", f=f)


def _check_fib_cone_characterization(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    return _agreement(ctx, rng, samples, universe, pred.fib, fibration_via_cone,
                      "fibration predicate disagrees with cone characterization")


def in_copr_mho(ctx: RigidContext, x: Module) -> bool:
    """Existence of an inflation into add(U) with cokernel in add(U), tested
    on the left approximation by the summands of U (greedy rather than
    minimal), through which every map into add(U) factors. Any left
    approximation a gives this verdict: its pushout with a copresentation
    x -> U0 -> U1 is U0 ⊕ coker a, as x -> U0 factors through a, and also
    a's target ⊕ U1, as U is rigid. The proof needs that, Ext^1(U, U) = 0,
    which ``mho_rigid`` checks."""
    coev = left_approximation(ctx.U_components, x)
    if coev.target.is_zero():
        return x.is_zero()
    if not is_mono(coev):
        return False
    cok, _ = cokernel(coev)
    return in_add(cok, ctx.U)


def _check_copr_eq_pr(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    """Cofibrant iff copresentable in add(U) in frobenius mode; in exact mode
    only "cofibrant ⟹ copresentable" holds, and only it is tested. From a
    presentation 0 -> M1 -> M0 -> x -> 0: (1) its pushout along the envelope
    M1 -> I(M1) splits at the injective end, giving a conflation
    M0 -> I(M1) ⊕ x -> Ω⁻¹M1; (2) that one's pushout along M0 -> I(M0)
    splits again, giving I(M1) ⊕ x -> I(M0) ⊕ Ω⁻¹M1 -> Ω⁻¹M0; (3) composed
    with the split inflation x -> I(M1) ⊕ x it is an inflation whose
    cokernel, an extension of Ω⁻¹M0 by I(M1), splits: the conflation
    x -> I(M0) ⊕ Ω⁻¹M1 -> I(M1) ⊕ Ω⁻¹M0, whose last two terms lie in add(U)."""
    for name, x in universe:
        lhs = pred.cofibrant(ctx, x)
        if not lhs and ctx.mode != FROBENIUS:
            continue
        rhs = in_copr_mho(ctx, x)
        if lhs != rhs:
            yield _violation(f"presentable/copresentable mismatch on {name}",
                             f"pr={lhs}", f"copr={rhs}", object=x)


def _check_mho_rigid(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    """Ext^1(U, U) = 0. Stable Hom(U, cosyzygy U) equals it only when the
    injectives are projective: on ``aus2`` (exact mode) it is 0, Ext^1 is 1."""
    dim = ext1_dim(ctx.U, ctx.U)
    if dim != 0:
        yield _violation("cosyzygy class is not rigid", 0, dim)


def _check_pr_extension_closure(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    for _ in range(samples):
        a = _pick(rng, universe)
        v = _u_object(ctx, rng)
        omega, ses = syzygy(v)
        h = _random_hom(ctx, rng, omega, a)
        _, _, a_to_e = pushout(h, ses.i)
        e = a_to_e.target
        lhs, rhs = pred.cofibrant(ctx, a), pred.cofibrant(ctx, e)
        if lhs != rhs:
            yield _violation("extension by a cosyzygy-class object changes presentability",
                             f"A:{lhs}", f"E:{rhs}", A=a, V=v)


def _check_homotopy_G_agreement(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    cofibrants = [m for _, m in universe if is_cofibrant(ctx, m)]
    if not cofibrants:
        return
    for _ in range(samples):
        x = rng.choice(cofibrants)
        y = _pick(rng, universe)
        f = _random_hom(ctx, rng, x, y)
        g = _random_hom(ctx, rng, x, y)
        lhs = pred.homotopic(ctx, f, g)
        # G f = G g iff f - g kills stable hom from the generator: each basis
        # row is a combination of representatives plus a map through an injective
        rhs = kills_stably(ctx.costable_gen, f - g)
        if lhs != rhs:
            yield _violation("homotopy disagrees with functor-image equality", lhs, rhs, f=f, g=g)


def _check_wic_deflation(ctx, rng, samples, universe, pred) -> Iterator[Violation]:
    for _ in range(samples):
        f, g = _sample_composable(ctx, rng, universe)
        if pred.epi(ctx, g @ f) and not pred.epi(ctx, g):
            yield _violation("g∘f is a deflation but g is not", "deflation", "not", f=f, g=g)


_CHECKS: Dict[str, Tuple[Callable, Tuple[str, ...]]] = {
    "two_out_of_three": (_check_two_out_of_three, ("exact", "frobenius")),
    "retract_stability": (_check_retract_stability, ("exact", "frobenius")),
    "pullback_fibration": (_check_pullback_fibration, ("exact", "frobenius")),
    "factorization1": (_check_factorization1, ("exact", "frobenius")),
    "factorization2": (_check_factorization2, ("frobenius",)),
    "lifting_I_eq_JW": (_check_lifting_I_eq_JW, ("exact", "frobenius")),
    "sq_J_in_W": (_check_sq_J_in_W, ("exact", "frobenius")),
    "weq_cone_characterization": (_check_weq_cone_characterization, ("exact", "frobenius")),
    "fib_cone_characterization": (_check_fib_cone_characterization, ("frobenius",)),
    "copr_eq_pr": (_check_copr_eq_pr, ("exact", "frobenius")),
    "mho_rigid": (_check_mho_rigid, ("exact", "frobenius")),
    "pr_extension_closure": (_check_pr_extension_closure, ("exact", "frobenius")),
    "homotopy_G_agreement": (_check_homotopy_G_agreement, ("exact", "frobenius")),
    "wic_deflation": (_check_wic_deflation, ("exact", "frobenius")),
}


def registered_checks() -> List[str]:
    return list(_CHECKS)


def run_check(ctx: RigidContext, name: str, seed: int, samples: int,
              objects: Optional[Sequence[Tuple[str, Module]]] = None,
              predicates: Optional[PredicateSet] = None) -> CheckRun:
    """Run one named check with its own derived pseudorandom stream."""
    if name not in _CHECKS:
        raise InputError(f"unknown check {name!r}; known: {', '.join(_CHECKS)}")
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    if objects is not None and not objects:
        raise InputError("objects is empty: a check needs at least one object to sample")
    for obj_name, m in objects or ():
        if m.algebra is not ctx.alg:
            raise InputError(f"object {obj_name!r} belongs to another algebra than the context")
    fn, modes = _CHECKS[name]
    if ctx.mode not in modes:
        raise InputError(f"check {name!r} requires mode in {modes}, context is {ctx.mode!r}")
    rng = random.Random(_derive_seed(name, seed))
    universe = sample_universe(ctx, objects)
    pred = predicates or PredicateSet()
    return CheckRun(name, seed, samples, list(fn(ctx, rng, samples, universe, pred)))


def run_all(ctx: RigidContext, seed: int, samples: int,
            objects: Optional[Sequence[Tuple[str, Module]]] = None,
            predicates: Optional[PredicateSet] = None) -> SuiteReport:
    """Run every registered check applicable to the context's mode."""
    runs, skipped = [], []
    for name, (fn, modes) in _CHECKS.items():
        if ctx.mode not in modes:
            skipped.append(name)
            continue
        runs.append(run_check(ctx, name, seed, samples, objects, predicates))
    return SuiteReport(seed, runs, skipped)
