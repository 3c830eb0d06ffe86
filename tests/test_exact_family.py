"""Exact mode on the truncated linear algebras kA_n/rad^l, generator P ⊕ I.

None of them is self-injective, so each context runs in exact mode: the
family on which the exact-mode cone check and the one direction of
``copr_eq_pr`` that holds there are cross-checked. dl-verify passes on
every pair.
"""
import functools
import random

import pytest

from frobcat.axiom_suite import (_derive_seed, _sample_morphism, default_objects, run_check,
                                 sample_universe, weq_via_cones)
from frobcat.exact_linalg import prime_field, rational_field
from frobcat.localization import dl_verify_all
from frobcat.rigid_model import EXACT, build_context, is_weak_equivalence
from helpers import truncated_linear, weq_via_projective_cover

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


def test_weq_cone_characterization_holds_on_ka3_mod_rad2():
    """Seed 42 with 20 samples over F_5."""
    assert run_check(_context(3, 2, "F5"), "weq_cone_characterization", 42, 20).passed


def test_the_projective_cover_check_fails_where_the_mend_holds():
    """On the draws of ``weq_cone_characterization`` at seed 42 with 20
    samples over kA3/rad^2: the check that read the projective cover
    disagrees with the predicate on 3 of them, the mended check on none."""
    ctx = _context(3, 2, "F5")
    rng = random.Random(_derive_seed("weq_cone_characterization", 42))
    universe = sample_universe(ctx, None)
    draws = [_sample_morphism(ctx, rng, universe) for _ in range(20)]
    weq = [is_weak_equivalence(ctx, f) for f in draws]
    assert sum(weq_via_projective_cover(ctx, f) != w for f, w in zip(draws, weq)) == 3
    assert all(weq_via_cones(ctx, f) == w for f, w in zip(draws, weq))


def test_copr_eq_pr_holds_on_ka5_mod_rad3():
    """Over F_5, S2 and its two-fold sums in the sample universe are
    copresentable but not cofibrant: 11 violations of the iff, none of the
    implication that exact mode tests."""
    assert run_check(_context(5, 3, "F5"), "copr_eq_pr", 42, 20).passed


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("n,l", [(3, 2), (4, 3), (5, 3), (6, 4)])
def test_mended_checks_pass_at_100_samples(n, l, field):
    ctx = _context(n, l, field)
    for name in ("weq_cone_characterization", "copr_eq_pr"):
        run = run_check(ctx, name, 42, 100)
        assert run.passed, run.to_text()
