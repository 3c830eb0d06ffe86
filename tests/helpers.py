"""Helpers that only the tests call.

``random_morphism`` draws ``_random_hom`` on the stream seeded by (seed, x,
y); the golden digests pin that stream, so it must not change.
``search_fraction_witness`` is the tests' witness of right-fraction
equality until the library constructs one."""
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from frobcat.algebra_repr import Algebra, Module, Morphism, combine, compose_basis, hom_matrix
from frobcat.axiom_suite import _derive_seed, _random_hom
from frobcat.exact_linalg import Matrix
from frobcat.rigid_model import RigidContext, cofibrant_replacement, is_weak_equivalence


def path_basis(alg: Algebra) -> List[Tuple[str, Tuple[str, ...]]]:
    """The algebra's ordered basis as (source vertex, arrow-name path) pairs."""
    return [
        (alg.vertices[e.source], tuple(alg.arrows[a].name for a in e.path))
        for e in alg._elts
    ]


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
