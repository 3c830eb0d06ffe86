"""Homotopy-category hom-sets, the stable endomorphism algebra, and the
module-category side of the localization equivalence.

Morphisms of the localized category are represented canonically between the
fixed cofibrant replacements, modulo the subspace factoring through the
cosyzygy-class generator; right fractions are converted to this normal form
on entry. The module side (intertwiner solving over the stable endomorphism
algebra) is computed by an independent code path so the two sides of the
equivalence can be compared pair by pair.

``ho_hom`` builds the ``homological.QuotientHom`` between the fixed
replacements, the type stable hom has too, on every call (dl-verify asks
once per pair), and :func:`ho_class` takes a representative to its class.
The mod Ē side is held as arrays, as the E side is: the structure constants
are one (k, k, k) table, a module's action is one (k, n, n) stack, and
``ebar_hom_basis`` returns basis rows, one row-major module map per row, as
``hom_matrix`` does. The G side is one routine, :func:`_g_images`: the
G-images of a stack of maps, as rows of their hom basis, are one
``compose_pairs`` with the stable representatives and one ``coords``, and an
empty side gives a zero stack of the field's dtype. The stable endomorphism
table is ``_g_images`` of its own representatives, G(x) that of the
representatives into x, each read along other axes; dl-verify conjugates
such stacks by the replacement maps' G-images (:func:`_transport`).

This module's context stores are ``endo``, ``G`` and ``G_phi``. Each
object's G side is built once per context and cached per module key:
G(x) in ``ctx._caches["G"]``, and the pair (G(φ_x), G(φ_x)^-1) in
``ctx._caches["G_phi"]``, so dl-verify over n objects builds n of each, not
one per pair. Each cached value is a function of x.key alone: G(x) reads
only the cached stable Hom(costable_gen, x), itself cached per x.key, the
stable endomorphism algebra of the context, and x's dimensions; G(φ_x) reads
only x's cofibrant replacement, cached per x.key, and the stable hom spaces
of its ends. So objects with equal keys, built separately, get byte for byte
the values a fresh context would build.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import InputError, InternalCheckError
from .exact_linalg import Matrix, RowSpan, intertwiners, solve_in_span
from .algebra_repr import (Module, Morphism, _memo, combine, compose_basis, compose_pairs,
                           hom_matrix)
from .homological import QuotientHom, factors_through_add, solve_postcompose
from .rigid_model import RigidContext, cofibrant_replacement, is_weak_equivalence


@dataclass
class StableEndoAlgebra:
    """The stable endomorphism algebra of the generator in the canonical
    coset basis. ``basis`` holds the representatives as rows of the
    End(costable_gen) hom basis, the costable x costable block of End(M_gen)
    (see ``rigid_model``); ``table[i, j]`` holds the coordinates of e_i ∘ e_j."""

    ctx: RigidContext
    basis: np.ndarray
    table: np.ndarray
    unit: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def stable_endo(ctx: RigidContext) -> StableEndoAlgebra:
    return _memo(ctx._caches["endo"], "value", lambda: _build_stable_endo(ctx))


def _build_stable_endo(ctx: RigidContext) -> StableEndoAlgebra:
    """table[i, j] holds column j of G(e_i), the coordinates of e_i ∘ e_j."""
    space = ctx.stable_from_generator(ctx.costable_gen)
    m, reps = space.x, space.rep_rows
    return StableEndoAlgebra(ctx, reps, _g_images(ctx, m, m, reps).transpose(0, 2, 1),
                             space.coords(Morphism.identity(m).vec()))


@dataclass
class EbarModule:
    """A finite-dimensional right module over the stable endomorphism algebra.

    ``action`` is a (k, n, n) stack: action[j] sends the coordinate vector of
    a class h to the vector of h ∘ e_j, so ρ(e_i ∘ e_j) = action[j] @ action[i].
    """

    dim: int
    action: np.ndarray

    def verify(self, endo: StableEndoAlgebra) -> bool:
        """The unit acts as the identity, and ρ(e_i ∘ e_j) = ρ(e_j) ρ(e_i)
        for every pair, checked in one batched product."""
        field = endo.ctx.alg.field
        k, n = endo.dim, self.dim
        if not (k and n):
            return n == 0
        flat = self.action.reshape(k, n * n)
        if not np.array_equal(field.matmul(endo.unit[None], flat).reshape(n, n),
                              Matrix.identity(field, n).data):
            return False
        # entry [i, j] of both sides is ρ(e_i ∘ e_j)
        lhs = field.matmul(self.action[None, :], self.action[:, None])
        rhs = field.matmul(endo.table.reshape(k * k, k), flat).reshape(k, k, n, n)
        return bool(np.array_equal(lhs, rhs))


def _g_images(ctx: RigidContext, x: Module, y: Module, rows: np.ndarray) -> np.ndarray:
    """The G-images of maps x -> y given as rows in Hom(x, y) coordinates: a
    (k, dim G(y), dim G(x)) stack whose column c of image t holds the
    coordinates of row_t ∘ h_c, for h_c the stable representatives from the
    generator into x."""
    sx, sy = ctx.stable_from_generator(x), ctx.stable_from_generator(y)
    k, n, m = rows.shape[0], sy.dim, sx.dim
    if not (k and n and m):
        return Matrix.zeros(ctx.alg.field, k, n * m).data.reshape(k, n, m)
    # row c * k + t of the pairwise composites is row_t ∘ h_c
    coords = sy.coords(compose_pairs(sx.rep_rows, sx.x, x, rows, y))
    return coords.reshape(m, k, n).transpose(1, 2, 0)


def G_object(ctx: RigidContext, x: Module) -> EbarModule:
    """Stable hom from the generator, as a module over its stable endos,
    cached per x.key (module docstring)."""
    return _memo(ctx._caches["G"], x.key, lambda: _build_G_object(ctx, x))


def _build_G_object(ctx: RigidContext, x: Module) -> EbarModule:
    """action[j] sends h_c to h_c ∘ e_j: the G-images of the representatives
    h_c of stable Hom(costable_gen, x), transposed."""
    reps = ctx.stable_from_generator(x).rep_rows
    return EbarModule(len(reps), _g_images(ctx, ctx.costable_gen, x, reps).transpose(2, 1, 0))


def G_morphism(ctx: RigidContext, f: Morphism) -> Matrix:
    """The matrix of postcomposition by f on stable-hom coordinates."""
    return Matrix(ctx.alg.field, _g_images(ctx, f.source, f.target, f.vec()[None])[0])


def ebar_hom_basis(ctx: RigidContext, gx: EbarModule, gy: EbarModule) -> Matrix:
    """Basis of module maps N: gx -> gy over the stable endomorphism algebra,
    one row-major N per row, from the intertwiner equations
    N ρ_x(e_j) = ρ_y(e_j) N."""
    if gx.dim * gy.dim == 0:
        return Matrix.zeros(ctx.alg.field, 0, gy.dim * gx.dim)
    # a one-vertex algebra with a loop per e_j
    return intertwiners(ctx.alg.field, [gx.dim], [gy.dim],
                        [(0, 0, a, b) for a, b in zip(gx.action, gy.action)])


# -- homotopy-category hom sets ----------------------------------------------------


@dataclass
class HoClass:
    """A morphism of the localized category: a representative between the
    fixed cofibrant replacements plus its canonical coset form."""

    ctx: RigidContext
    x: Module
    y: Module
    rep: Morphism
    canonical: tuple

    def __eq__(self, other):
        return (
            isinstance(other, HoClass)
            and self.x.key == other.x.key
            and self.y.key == other.y.key
            and self.canonical == other.canonical
        )


def ho_hom(ctx: RigidContext, x: Module, y: Module) -> QuotientHom:
    """Hom in the localized category: Hom between the fixed replacements of
    x and y, modulo the maps factoring through the cosyzygy-class generator U.
    Built on every call; the replacements, hom bases and add(U) verdicts it
    reads are cached. Where either replacement lies in add(U) the whole hom
    space factors through U, so the quotient is zero and no composite is
    formed (:func:`~frobcat.homological.factors_through_add`)."""
    a_x, a_y = cofibrant_replacement(ctx, x).a, cofibrant_replacement(ctx, y).a
    return QuotientHom(a_x, a_y, factors_through_add(a_x, ctx.U, a_y))


def ho_class(ctx: RigidContext, x: Module, y: Module, rep: Morphism) -> HoClass:
    """The class in Ho(x, y) of a map between the fixed replacements."""
    q = ho_hom(ctx, x, y)
    if rep.source.key != q.x.key or rep.target.key != q.y.key:
        raise InputError("representative does not run between the fixed replacements")
    return HoClass(ctx, x, y, rep, tuple(q.canonical(rep.vec())))


def ho_class_of(ctx: RigidContext, f: Morphism) -> HoClass:
    """The class of an ordinary morphism f: x -> y, via lifted replacements."""
    rx = cofibrant_replacement(ctx, f.source)
    ry = cofibrant_replacement(ctx, f.target)
    tilde = solve_postcompose(ry.phi, f @ rx.phi)
    if tilde is None:
        raise InternalCheckError("morphism does not lift between replacements")
    return ho_class(ctx, f.source, f.target, tilde)


def ho_compose(a: HoClass, b: HoClass) -> HoClass:
    """Composition of classes a: y -> z and b: x -> y."""
    if a.ctx is not b.ctx:
        raise InputError("classes live over different contexts")
    if a.x.key != b.y.key:
        raise InputError("classes are not composable")
    return ho_class(a.ctx, b.x, a.y, a.rep @ b.rep)


def _ho_inverse(ctx: RigidContext, cls: HoClass) -> HoClass:
    """Inverse of an invertible class, by linear solving on coset forms."""
    back = ho_hom(ctx, cls.y, cls.x)
    fwd_endo = ho_hom(ctx, cls.y, cls.y)
    target = fwd_endo.canonical(Morphism.identity(fwd_endo.x).vec())
    images = fwd_endo.canonical(
        compose_basis(hom_matrix(back.x, back.y).data, back.x, back.y, left=cls.rep))
    coeffs = solve_in_span(ctx.alg.field, images, target)
    if coeffs is None:
        raise InputError("class is not invertible")
    t = combine(back.x, back.y, coeffs)
    inv = ho_class(ctx, cls.y, cls.x, t)
    # a right inverse of an invertible class is the inverse
    other = ho_hom(ctx, cls.x, cls.x)
    ident = other.canonical(Morphism.identity(other.x).vec())
    if tuple(other.canonical((t @ cls.rep).vec())) != tuple(ident):
        raise InternalCheckError("one-sided inverse is not two-sided")
    return inv


def fraction_to_ho(ctx: RigidContext, f: Morphism, s: Morphism) -> HoClass:
    """The class of the right fraction f ∘ s^{-1} for a weak equivalence s.

    f: A' -> Y and s: A' -> X present a morphism X -> Y of the localization.
    """
    if f.source.key != s.source.key:
        raise InputError("fraction legs need a common source")
    if not is_weak_equivalence(ctx, s):
        raise InputError("denominator is not a weak equivalence")
    s_cls = ho_class_of(ctx, s)
    f_cls = ho_class_of(ctx, f)
    return ho_compose(f_cls, _ho_inverse(ctx, s_cls))


# -- the two-sided verification --------------------------------------------------


@dataclass
class DlReport:
    """One pair's verdict and its parts: the connecting map kills the
    homotopy subspace (``well_defined``), its images are module maps
    (``in_mod_span``) and independent (``injective``), and it respects
    composition of endo-classes (``composition_ok``)."""

    pair: Tuple[str, str]
    dim_ho: int
    dim_mod: int
    well_defined: bool
    in_mod_span: bool
    injective: bool
    composition_ok: bool
    checksum: str

    @property
    def passed(self) -> bool:
        return (self.dim_ho == self.dim_mod and self.well_defined and self.in_mod_span
                and self.injective and self.composition_ok)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.pair[0]} -> {self.pair[1]}: dim_ho={self.dim_ho} "
            f"dim_mod={self.dim_mod} {status} checksum={self.checksum}"
        )


def _G_replacement(ctx: RigidContext, x: Module) -> Tuple[np.ndarray, np.ndarray]:
    """(G(φ_x), G(φ_x)^-1) for the fixed replacement φ_x of x, cached per
    x.key (module docstring)."""
    def build() -> Tuple[np.ndarray, np.ndarray]:
        g = G_morphism(ctx, cofibrant_replacement(ctx, x).phi)
        one = Matrix.identity(g.field, g.rows)
        # for square g, the c with c g = 1 is its inverse; g c = 1 is checked as well
        inv = solve_in_span(g.field, g.data, one.data) if g.rows == g.cols else None
        if inv is None or g @ Matrix(g.field, inv) != one:
            raise InternalCheckError("replacement does not induce an invertible G-image")
        return g.data, inv

    return _memo(ctx._caches["G_phi"], x.key, build)


def _transport(ctx: RigidContext, x: Module, y: Module) -> Callable[[np.ndarray], np.ndarray]:
    """rows -> G(φ_y) G(rows) G(φ_x)^-1: the G-images of maps between the
    fixed replacements of x and y, given as rows of their hom basis,
    conjugated back to maps G(x) -> G(y). G(φ_y) and G(φ_x)^-1 are read from
    the per-object store of :func:`_G_replacement`."""
    field = ctx.alg.field
    a_x, a_y = cofibrant_replacement(ctx, x).a, cofibrant_replacement(ctx, y).a
    inv = _G_replacement(ctx, x)[1]
    left = _G_replacement(ctx, y)[0]

    def transport(rows: np.ndarray) -> np.ndarray:
        images = _g_images(ctx, a_x, a_y, rows)
        if not images.size:
            return images
        return field.matmul(field.matmul(left, images), inv)

    return transport


def dl_verify(ctx: RigidContext, x: Module, y: Module,
              names: Tuple[str, str] = ("X", "Y")) -> DlReport:
    """Compare the localized hom-set with the module-side hom-set.

    The two dimensions come from independent code paths; the connecting map
    (class of a representative to its transported G-image) is checked to be
    well-defined on the quotient, injective, and compatible with composition
    of endo-classes.
    """
    q = ho_hom(ctx, x, y)
    gx, gy = G_object(ctx, x), G_object(ctx, y)
    mod_basis = ebar_hom_basis(ctx, gx, gy)
    field = ctx.alg.field
    transport = _transport(ctx, x, y)
    images = transport(q.rep_rows)
    k = len(images)
    # well-defined: anything in the homotopy subspace must map to zero
    well_defined = not np.any(transport(q.sub.rows) != 0)
    # images must be module maps and linearly independent
    image_rows = images.reshape(k, mod_basis.cols)
    mod_span = RowSpan(field, mod_basis.cols)
    mod_span.add(mod_basis.data)
    in_mod_span = mod_span.contains(image_rows)
    injective = Matrix(field, image_rows).rank() == k
    composition_ok = True
    if x.key == y.key and k:
        # row i * k + j of the pairwise composites is rep_j ∘ rep_i
        lhs = transport(compose_pairs(q.rep_rows, q.x, q.x, q.rep_rows, q.x))
        rhs = field.matmul(images[None, :], images[:, None]).reshape(lhs.shape)
        composition_ok = bool(np.array_equal(lhs, rhs))
    digest = hashlib.sha256()
    for img in images:
        for s in Matrix(field, img).format_entries():
            digest.update(s.encode())
        digest.update(b"|")
    return DlReport(
        pair=names,
        dim_ho=q.dim,
        dim_mod=mod_basis.rows,
        well_defined=well_defined,
        in_mod_span=in_mod_span,
        injective=injective,
        composition_ok=composition_ok,
        checksum=digest.hexdigest()[:16],
    )


def dl_verify_all(ctx: RigidContext, named: Sequence[Tuple[str, Module]]) -> List[DlReport]:
    reports = []
    for xn, x in named:
        for yn, y in named:
            reports.append(dl_verify(ctx, x, y, names=(xn, yn)))
    return reports
