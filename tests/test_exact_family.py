"""Exact mode on the truncated linear algebras kA_n/rad^l, generator P ⊕ I.

None of them is self-injective, so each context runs in exact mode: the
family on which ROADMAP item 1 (the exact-mode cone check) is to be mended.
dl-verify passes on every pair; the known disagreements of the battery are
pinned as strict xfails, so a mend shows as an unexpected pass.
"""
import functools

import pytest

from frobcat.axiom_suite import default_objects, run_check
from frobcat.exact_linalg import prime_field, rational_field
from frobcat.localization import dl_verify_all
from frobcat.rigid_model import EXACT, build_context
from helpers import truncated_linear

FIELDS = {"F5": prime_field(5), "Q": rational_field()}


@functools.lru_cache(maxsize=None)
def _context(n: int, l: int, field: str):
    """The context with generator P ⊕ I: the projectives, then the
    injectives that are not projective."""
    alg = truncated_linear(n, l, FIELDS[field])
    keys = {p.key for p in alg.projectives()}
    gen = alg.projectives() + [i for i in alg.injectives() if i.key not in keys]
    return build_context(alg, gen, EXACT)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("n,l", [(3, 2), (4, 3), (5, 3)])
def test_dl_verify_passes_on_every_pair(n, l, field):
    ctx = _context(n, l, field)
    objects = default_objects(ctx)
    reports = dl_verify_all(ctx, objects)
    assert len(reports) == len(objects) ** 2
    assert all(r.passed for r in reports)


def test_mho_rigid_reports_ext1_of_u():
    """Over kA4/rad^3, U is not rigid: Ext^1(U, U) has dimension 3."""
    run = run_check(_context(4, 3, "F5"), "mho_rigid", 42, 20)
    assert [v.observed for v in run.violations] == ["3"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: in exact mode the cone characterization is sufficient "
    "for a weak equivalence, not necessary"))
def test_weq_cone_characterization_holds_on_ka3_mod_rad2():
    """3 violations at seed 42 with 20 samples over F_5."""
    assert run_check(_context(3, 2, "F5"), "weq_cone_characterization", 42, 20).passed


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: over kA5/rad^3 some objects are copresentable in add(U) "
    "but not cofibrant"))
def test_copr_eq_pr_holds_on_ka5_mod_rad3():
    """11 violations over F_5: S2 and its two-fold sums in the sample
    universe are copresentable but not cofibrant."""
    assert run_check(_context(5, 3, "F5"), "copr_eq_pr", 42, 20).passed
