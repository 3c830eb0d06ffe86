"""Homotopy-category hom-sets, the stable endomorphism algebra, and the
module-category side of the localization equivalence.

Morphisms of the localized category are represented canonically between the
fixed cofibrant replacements, modulo the subspace factoring through the
cosyzygy-class generator; right fractions are converted to this normal form
on entry. The module side (intertwiner solving over the stable endomorphism
algebra) is computed by an independent code path so the two sides of the
equivalence can be compared pair by pair.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InputError, InternalCheckError
from .exact_linalg import Matrix, RowSpan, intertwiners, solve_in_span
from .algebra_repr import Module, Morphism, _memo, combine
from .homological import QuotientSpace, quotient_hom
from .rigid_model import (
    RigidContext,
    cofibrant_replacement,
    is_weak_equivalence,
    solve_postcompose,
)


@dataclass
class StableEndoAlgebra:
    """The stable endomorphism algebra of the generator, with structure
    constants in the canonical coset basis."""

    ctx: RigidContext
    basis: List[Morphism]
    structure_constants: List[List[np.ndarray]]  # [i][j] = coords of e_i ∘ e_j
    unit: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)


def stable_endo(ctx: RigidContext) -> StableEndoAlgebra:
    return _memo(ctx._caches["endo"], "value", lambda: _build_stable_endo(ctx))


def _build_stable_endo(ctx: RigidContext) -> StableEndoAlgebra:
    space = ctx.stable_from_generator(ctx.M_gen)
    reps = space.rep_morphisms()
    table = [[space.coords(ei @ ej) for ej in reps] for ei in reps]
    if reps:
        unit = space.coords(Morphism.identity(ctx.M_gen))
    else:
        unit = np.empty(0, dtype=ctx.alg.field.dtype)
    return StableEndoAlgebra(ctx, reps, table, unit)


@dataclass
class EbarModule:
    """A finite-dimensional module over the stable endomorphism algebra.

    action[j] sends the coordinate vector of a class h to the vector of
    h ∘ e_j, so right multiplication by basis elements is matrix-vector.
    """

    dim: int
    action: List[Matrix]

    def verify(self, endo: StableEndoAlgebra) -> bool:
        field = endo.ctx.alg.field
        n = self.dim
        ident = Matrix.identity(field, n)
        if endo.dim == 0:
            return n == 0
        acc = Matrix.zeros(field, n, n)
        for k in range(endo.dim):
            acc = acc + self.action[k].scale(endo.unit[k])
        if acc != ident:
            return False
        for i in range(endo.dim):
            for j in range(endo.dim):
                # h ∘ (e_i ∘ e_j) applied via coordinates: rho(e_j) then rho(e_i)
                lhs = self.action[i] @ self.action[j]
                rhs = Matrix.zeros(field, n, n)
                for k, c in enumerate(endo.structure_constants[i][j]):
                    if c != 0:
                        rhs = rhs + self.action[k].scale(c)
                if lhs != rhs:
                    return False
        return True


def G_object(ctx: RigidContext, x: Module) -> EbarModule:
    """Stable hom from the generator, as a module over its stable endos."""
    endo = stable_endo(ctx)
    space = ctx.stable_from_generator(x)
    reps = space.rep_morphisms()
    n = space.dim
    action = []
    field = ctx.alg.field
    for e in endo.basis:
        m = Matrix.zeros(field, n, n)
        for col, h in enumerate(reps):
            m.data[:, col] = space.coords(h @ e)
        action.append(m)
    return EbarModule(n, action)


def G_morphism(ctx: RigidContext, f: Morphism) -> Matrix:
    """The matrix of postcomposition by f on stable-hom coordinates."""
    sx = ctx.stable_from_generator(f.source)
    sy = ctx.stable_from_generator(f.target)
    m = Matrix.zeros(ctx.alg.field, sy.dim, sx.dim)
    for col, h in enumerate(sx.rep_morphisms()):
        m.data[:, col] = sy.coords(f @ h)
    return m


def ebar_hom_basis(ctx: RigidContext, gx: EbarModule, gy: EbarModule) -> List[Matrix]:
    """Basis of module maps gx -> gy over the stable endomorphism algebra,
    by solving the intertwiner equations over the structure constants."""
    if gx.dim * gy.dim == 0:
        return []
    field = ctx.alg.field
    # N rho_x(e_j) = rho_y(e_j) N: a one-vertex algebra with a loop per e_j
    basis = intertwiners(field, [gx.dim], [gy.dim],
                         [(0, 0, gx.action[j].data, gy.action[j].data)
                          for j in range(stable_endo(ctx).dim)])
    return [Matrix(field, row.reshape(gy.dim, gx.dim)) for row in basis.data]


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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.canonical)


@dataclass
class HoHomSpace:
    ctx: RigidContext
    x: Module
    y: Module
    qx: Module
    qy: Module
    quotient: QuotientSpace
    ambient: List[Morphism]
    quotient_by: List[Morphism]

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def basis(self) -> List[HoClass]:
        return [
            HoClass(
                self.ctx, self.x, self.y, self.ambient[i],
                tuple(self.quotient.rep_canonicals[k]),
            )
            for k, i in enumerate(self.quotient.rep_indices)
        ]

    def class_of(self, rep: Morphism) -> HoClass:
        if rep.source.key != self.qx.key or rep.target.key != self.qy.key:
            raise InputError("representative does not run between the fixed replacements")
        return HoClass(self.ctx, self.x, self.y, rep,
                       tuple(self.quotient.canonical(rep.vec())))


def ho_hom(ctx: RigidContext, x: Module, y: Module) -> HoHomSpace:
    """Hom in the localized category: maps between replacements modulo those
    factoring through the cosyzygy-class generator."""
    return _memo(ctx._caches["ho_hom"], (x.key, y.key), lambda: _build_ho_hom(ctx, x, y))


def _build_ho_hom(ctx: RigidContext, x: Module, y: Module) -> HoHomSpace:
    qx = cofibrant_replacement(ctx, x).a
    qy = cofibrant_replacement(ctx, y).a
    ambient, q, sub = quotient_hom(qx, ctx.U, qy)
    return HoHomSpace(ctx, x, y, qx, qy, q, ambient, sub)


def ho_class_of(ctx: RigidContext, f: Morphism) -> HoClass:
    """The class of an ordinary morphism f: x -> y, via lifted replacements."""
    space = ho_hom(ctx, f.source, f.target)
    rx = cofibrant_replacement(ctx, f.source)
    ry = cofibrant_replacement(ctx, f.target)
    tilde = solve_postcompose(ry.phi, f @ rx.phi)
    if tilde is None:
        raise InternalCheckError("morphism does not lift between replacements")
    return space.class_of(tilde)


def ho_identity(ctx: RigidContext, x: Module) -> HoClass:
    return ho_class_of(ctx, Morphism.identity(x))


def ho_compose(a: HoClass, b: HoClass) -> HoClass:
    """Composition of classes a: y -> z and b: x -> y."""
    if a.ctx is not b.ctx:
        raise InputError("classes live over different contexts")
    if a.x.key != b.y.key:
        raise InputError("classes are not composable")
    space = ho_hom(a.ctx, b.x, a.y)
    return space.class_of(a.rep @ b.rep)


def _ho_inverse(ctx: RigidContext, cls: HoClass) -> HoClass:
    """Inverse of an invertible class, by linear solving on coset forms."""
    back = ho_hom(ctx, cls.y, cls.x)
    fwd_endo = ho_hom(ctx, cls.y, cls.y)
    target = fwd_endo.quotient.canonical(
        Morphism.identity(cofibrant_replacement(ctx, cls.y).a).vec()
    )
    images = [fwd_endo.quotient.canonical((cls.rep @ t).vec()) for t in back.ambient]
    coeffs = solve_in_span(ctx.alg.field, images, target)
    if coeffs is None:
        raise InputError("class is not invertible")
    t = combine(back.qx, back.qy, coeffs)
    inv = back.class_of(t)
    # a right inverse of an invertible class is the inverse
    other = ho_hom(ctx, cls.x, cls.x)
    ident = other.quotient.canonical(
        Morphism.identity(cofibrant_replacement(ctx, cls.x).a).vec()
    )
    if tuple(other.quotient.canonical((t @ cls.rep).vec())) != tuple(ident):
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


def fractions_equal(ctx: RigidContext, left: Tuple[Morphism, Morphism],
                    right: Tuple[Morphism, Morphism]) -> bool:
    """Equality of right fractions, decided on canonical forms."""
    a = fraction_to_ho(ctx, *left)
    b = fraction_to_ho(ctx, *right)
    return a == b


# -- the two-sided verification --------------------------------------------------


@dataclass
class DlReport:
    pair: Tuple[str, str]
    dim_ho: int
    dim_mod: int
    bijective: bool
    composition_ok: bool
    checksum: str

    @property
    def passed(self) -> bool:
        return self.dim_ho == self.dim_mod and self.bijective and self.composition_ok

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.pair[0]} -> {self.pair[1]}: dim_ho={self.dim_ho} "
            f"dim_mod={self.dim_mod} {status} checksum={self.checksum}"
        )


def _g_transport(ctx: RigidContext, x: Module, y: Module, rep: Morphism) -> Matrix:
    """G-image of a replacement-level morphism, conjugated back to x, y."""
    rx = cofibrant_replacement(ctx, x)
    ry = cofibrant_replacement(ctx, y)
    gphi_x = G_morphism(ctx, rx.phi)
    gphi_y = G_morphism(ctx, ry.phi)
    inv = gphi_x.inverse()
    if inv is None:
        raise InternalCheckError("replacement does not induce an invertible G-image")
    return gphi_y @ G_morphism(ctx, rep) @ inv


def dl_verify(ctx: RigidContext, x: Module, y: Module,
              names: Tuple[str, str] = ("X", "Y")) -> DlReport:
    """Compare the localized hom-set with the module-side hom-set.

    The two dimensions come from independent code paths; the connecting map
    (class of a representative to its transported G-image) is checked to be
    well-defined on the quotient, injective, and compatible with composition
    of endo-classes.
    """
    space = ho_hom(ctx, x, y)
    gx, gy = G_object(ctx, x), G_object(ctx, y)
    mod_basis = ebar_hom_basis(ctx, gx, gy)
    field = ctx.alg.field
    images = []
    for cls in space.basis():
        images.append(_g_transport(ctx, x, y, cls.rep))
    # well-defined: anything in the homotopy subspace must map to zero
    well_defined = True
    for m in space.quotient_by:
        if not _g_transport(ctx, x, y, m).is_zero():
            well_defined = False
            break
    # images must be module maps and linearly independent
    width = gy.dim * gx.dim
    mod_rows, image_rows = (
        np.array([m.data.reshape(-1) for m in ms], dtype=field.dtype).reshape(len(ms), width)
        for ms in (mod_basis, images))
    mod_span = RowSpan(field, width)
    mod_span.add(mod_rows)
    in_mod_span = mod_span.contains(image_rows)
    injective = RowSpan(field, width).add(image_rows) == len(images)
    bijective = (
        well_defined
        and in_mod_span
        and injective
        and len(images) == len(mod_basis) == space.dim
    )
    composition_ok = True
    if x.key == y.key:
        basis = space.basis()
        for a in basis:
            for b in basis:
                lhs = _g_transport(ctx, x, y, ho_compose(a, b).rep)
                rhs = _g_transport(ctx, x, y, a.rep) @ _g_transport(ctx, x, y, b.rep)
                if lhs != rhs:
                    composition_ok = False
    digest = hashlib.sha256()
    for img in images:
        for s in img.format_entries():
            digest.update(s.encode())
        digest.update(b"|")
    return DlReport(
        pair=names,
        dim_ho=space.dim,
        dim_mod=len(mod_basis),
        bijective=bijective,
        composition_ok=composition_ok,
        checksum=digest.hexdigest()[:16],
    )


def dl_verify_all(ctx: RigidContext, named: Sequence[Tuple[str, Module]]) -> List[DlReport]:
    reports = []
    for xn, x in named:
        for yn, y in named:
            reports.append(dl_verify(ctx, x, y, names=(xn, yn)))
    return reports
