import random

import pytest

from frobcat.exact_linalg import prime_field, rational_field
from frobcat.algebra_repr import Algebra, direct_sum, preprojective
from frobcat.axiom_suite import _sample_morphism, sample_universe
from frobcat.fixtures import build_fixture
from frobcat.rigid_model import build_context


@pytest.fixture(scope="session")
def pa2():
    """Preprojective algebra of A2 over F_5 with its named indecomposables."""
    alg = preprojective(2, prime_field(5))
    mods = {
        "S1": alg.simple("1"),
        "S2": alg.simple("2"),
        "P1": alg.projective("1"),
        "P2": alg.projective("2"),
    }
    return alg, mods


@pytest.fixture(scope="session")
def pa2_ctx(pa2):
    alg, mods = pa2
    return build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "frobenius")


@pytest.fixture(scope="session")
def pa2_deg_ctx(pa2):
    alg, mods = pa2
    return build_context(alg, [mods["P1"], mods["P2"]], "frobenius")


@pytest.fixture(scope="session")
def semi_ctx():
    alg = Algebra(prime_field(5), ["1"], [], [])
    return build_context(alg, [alg.simple("1")], "frobenius")


@pytest.fixture(scope="session")
def pa3():
    alg = preprojective(3, prime_field(2))
    mods = {}
    for v in alg.vertices:
        mods[f"S{v}"] = alg.simple(v)
        mods[f"P{v}"] = alg.projective(v)
    return alg, mods


@pytest.fixture(scope="session")
def pa3_ctx(pa3):
    alg, mods = pa3
    return build_context(alg, [mods["P1"], mods["P2"], mods["P3"]], "frobenius")


@pytest.fixture(scope="session")
def pa3_s_ctx(pa3):
    """pa3 with generator P1+P2+P3+S1+S3: a nonzero stable category."""
    alg, mods = pa3
    return build_context(alg, [mods[n] for n in ("P1", "P2", "P3", "S1", "S3")], "frobenius")


@pytest.fixture(scope="session")
def a2q():
    """Preprojective A2 over Q, its generator P1+P2+S1, and the simples,
    projectives and S1+S1 as objects."""
    alg = preprojective(2, rational_field())
    mods = {"S1": alg.simple("1"), "S2": alg.simple("2"),
            "P1": alg.projective("1"), "P2": alg.projective("2")}
    mods["S1+S1"] = direct_sum([mods["S1"], mods["S1"]])[0]
    ctx = build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "frobenius")
    return ctx, mods


@pytest.fixture(scope="session")
def ka2():
    """The hereditary path algebra of A2 (no relations), not self-injective."""
    return Algebra(rational_field(), ["1", "2"], [("a", "1", "2")])


@pytest.fixture(scope="session")
def small_algebras():
    """Small algebras over F_2, F_5, F_1048583 (the object-dtype residue path)
    and Q, keyed "<algebra>/<field>".

    Three are not self-injective: hereditary kA2 and kA3, and the Auslander
    algebra of kA2 (linear A3 1 -> 2 -> 3 with ab = 0: projectives (1,1,0),
    (0,1,1), (0,0,1), injectives (1,0,0), (1,1,0), (0,1,1)). Two are:
    preprojective A2, and the 3-cycle with rad^2 = 0, whose Nakayama
    permutation moves the projectives' dimension vectors.
    """
    fields = {"F2": prime_field(2), "F5": prime_field(5), "F1048583": prime_field(1048583),
              "Q": rational_field()}
    linear = (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    cycle = [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")]
    out = {}
    for name, field in fields.items():
        out[f"kA2/{name}"] = Algebra(field, ["1", "2"], [("a", "1", "2")])
        out[f"kA3/{name}"] = Algebra(field, *linear)
        out[f"aus-kA2/{name}"] = Algebra(field, *linear, [[("1", ("a", "b"))]])
        out[f"pa2/{name}"] = preprojective(2, field)
        out[f"cycle3/{name}"] = Algebra(field, ["1", "2", "3"], cycle, [
            [("1", ("a", "b"))], [("1", ("b", "c"))], [("1", ("c", "a"))]])
    return out


@pytest.fixture(scope="session")
def pa2_ss_ctx(pa2):
    """pa2 with generator P1+P2+S1+S1: its stable endomorphism algebra is the
    2 x 2 matrices, so products and actions do not commute."""
    alg, mods = pa2
    return build_context(alg, [mods[n] for n in ("P1", "P2", "S1", "S1")], "frobenius")


@pytest.fixture(scope="session")
def pa2_big():
    """pa2 over F_1048583, the smallest prime whose residues are Python ints in
    object arrays, with its generator P1+P2+S1 and its four indecomposables."""
    alg = preprojective(2, prime_field(1048583))
    mods = {"S1": alg.simple("1"), "S2": alg.simple("2"),
            "P1": alg.projective("1"), "P2": alg.projective("2")}
    return build_context(alg, [mods["P1"], mods["P2"], mods["S1"]], "frobenius"), mods


@pytest.fixture(params=["pa2", "pa2-deg", "pa2+S1+S1", "pa3+S1+S3", "a2q", "pa2/F1048583"])
def row_case(request, pa2, pa2_ctx, pa2_deg_ctx, pa2_ss_ctx, pa3, pa3_s_ctx, a2q, pa2_big):
    """A context and its objects: the pa2 and pa3 fixtures (pa3 with S1+S3
    added, whose G-image is 2-dimensional), A2/Q with S1+S1, pa2 over the
    generator P1+P2+S1+S1 with S1+S1 added, pa2-deg, where the stable
    category is zero and every stack is empty, and pa2 over F_1048583, on
    the object-residue path."""
    if request.param == "a2q":
        return a2q
    if request.param == "pa2/F1048583":
        return pa2_big
    if request.param == "pa3+S1+S3":
        mods = dict(pa3[1])
        mods["S1+S3"] = direct_sum([mods["S1"], mods["S3"]])[0]
        return pa3_s_ctx, mods
    if request.param == "pa2+S1+S1":
        mods = dict(pa2[1])
        mods["S1+S1"] = direct_sum([mods["S1"], mods["S1"]])[0]
        return pa2_ss_ctx, mods
    return (pa2_ctx if request.param == "pa2" else pa2_deg_ctx), pa2[1]


@pytest.fixture(scope="session")
def sampled_maps():
    """(algebra, generator, mode, universe, maps) for the cold/warm verdict
    tests: the pa2 and aus2 fixtures (aus2 in exact mode) and preprojective
    A3/Q over P1+P2+P3+S1 with its default objects. maps are 100 seeded
    ``_sample_morphism`` draws, made on a context of their own so that the
    contexts under test see only the calls the tests make."""
    out = []
    for tag in ("pa2", "aus2"):
        alg, mods, project = build_fixture(tag)
        gen = [mods[n] for n in project["M_gen"]]
        out.append((alg, gen, project["mode"], sorted(mods.items())))
    a3 = preprojective(3, rational_field())
    out.append((a3, a3.projectives() + [a3.simple("1")], "frobenius", None))
    cases = []
    for alg, gen, mode, objects in out:
        ctx = build_context(alg, gen, mode)
        universe = sample_universe(ctx, objects)
        rng = random.Random(20)
        cases.append((alg, gen, mode, universe,
                      [_sample_morphism(ctx, rng, universe) for _ in range(100)]))
    return cases
