import argparse
import json

import pytest

from frobcat.axiom_suite import run_all, run_check
from frobcat.cli import build_parser, dispatch
from frobcat.fixtures import FIXTURE_TAGS, build_fixture, emit_fixture
from frobcat.rigid_model import build_context


@pytest.fixture(scope="module")
def pa2_project(tmp_path_factory):
    root = tmp_path_factory.mktemp("proj") / "pa2"
    emit_fixture("pa2", str(root))
    return str(root)


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("tag", FIXTURE_TAGS)
def test_emit_then_validate_round_trip(tmp_path, tag):
    dest = tmp_path / tag
    assert dispatch(["fixtures", "emit", tag, str(dest)]) == 0
    assert (dest / "project.json").is_file()
    assert dispatch(["validate", "--project", str(dest)]) == 0


def test_validate_output(pa2_project, capsys):
    assert dispatch(["validate", "--project", pa2_project]) == 0
    out = capsys.readouterr().out
    assert "context accepted" in out
    assert "M_gen = P1 + P2 + S1" in out


def test_hom_and_ext(pa2_project, capsys):
    assert dispatch(["hom", "P1", "P2", "--project", pa2_project]) == 0
    assert "dim Hom(P1, P2) = 1" in capsys.readouterr().out
    assert dispatch(["ext", "S2", "S1", "--project", pa2_project]) == 0
    assert "= 1" in capsys.readouterr().out


def test_predicate_exit_codes(pa2_project, tmp_path, capsys):
    weq_file = _write(tmp_path / "weq.json", {"source": "0", "target": "S2", "comps": {}})
    assert dispatch(["weq", "--morphism", weq_file, "--project", pa2_project]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert dispatch(["fib", "--morphism", weq_file, "--project", pa2_project]) == 1
    assert capsys.readouterr().out.strip() == "false"
    not_weq = _write(tmp_path / "nw.json", {"source": "0", "target": "S1", "comps": {}})
    assert dispatch(["weq", "--morphism", not_weq, "--project", pa2_project]) == 1


def test_cofibrant_and_replace(pa2_project, capsys):
    assert dispatch(["cofibrant", "S2", "--project", pa2_project]) == 0
    capsys.readouterr()
    assert dispatch(["replace", "S1", "--project", pa2_project]) == 0
    out = capsys.readouterr().out
    assert "trivial fibration" in out


def test_factorizations(pa2_project, tmp_path, capsys):
    top = _write(tmp_path / "top.json",
                 {"source": "P2", "target": "S2", "comps": {"2": ["1"]}})
    assert dispatch(["factor1", "--morphism", top, "--project", pa2_project]) == 0
    assert "weq-then-fib" in capsys.readouterr().out
    assert dispatch(["factor2", "--morphism", top, "--project", pa2_project]) == 0
    assert "cof-then-trivfib" in capsys.readouterr().out


def test_homotopic_command(pa2_project, tmp_path, capsys):
    f = _write(tmp_path / "f.json", {"source": "S2", "target": "S2", "comps": {"2": ["1"]}})
    g = _write(tmp_path / "g.json", {"source": "S2", "target": "S2", "comps": {}})
    assert dispatch(["homotopic", "--f", f, "--g", g, "--project", pa2_project]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_ho_hom_and_dl_verify(pa2_project, capsys):
    assert dispatch(["ho-hom", "S1", "S1", "--project", pa2_project]) == 0
    assert "= 1" in capsys.readouterr().out
    assert dispatch(["dl-verify", "S1", "S1", "--project", pa2_project]) == 0
    assert dispatch(["dl-verify", "--all-pairs", "--project", pa2_project]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") >= 16


def test_axioms_single_check(pa2_project, capsys):
    code = dispatch(["axioms", "--check", "wic_deflation", "--seed", "1",
                     "--samples", "5", "--project", pa2_project])
    assert code == 0
    assert "violations=0" in capsys.readouterr().out


def test_json_output_is_stable(pa2_project, capsys):
    assert dispatch(["--json", "validate", "--project", pa2_project]) == 0
    first = capsys.readouterr().out
    assert dispatch(["--json", "validate", "--project", pa2_project]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["tool"].startswith("frobcat ")
    assert doc["M_gen"] == ["P1", "P2", "S1"]


# each subcommand, in the order --help lists them, with its arguments in the order
# they were added: option strings for an option, the name of a positional
SUBCOMMANDS = {
    "validate": [["--project"]],
    "hom": [["--project"], "x", "y"],
    "ext": [["--project"], "x", "y"],
    "weq": [["--project"], ["--morphism"]],
    "fib": [["--project"], ["--morphism"]],
    "cofibrant": [["--project"], "x"],
    "replace": [["--project"], "x"],
    "factor1": [["--project"], ["--morphism"]],
    "factor2": [["--project"], ["--morphism"]],
    "homotopic": [["--project"], ["--f"], ["--g"]],
    "ho-hom": [["--project"], "x", "y"],
    "dl-verify": [["--project"], "x", "y", ["--all-pairs"]],
    "axioms": [["--project"], ["--check"], ["--seed"], ["--samples"]],
    "fixtures": ["action", "tag", "dir"],
}


def test_subcommands_and_their_arguments():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [a.option_strings or a.dest for a in p._actions
               if not isinstance(a, argparse._HelpAction)]
        for name, p in sub.choices.items()
    }
    assert list(found) == list(SUBCOMMANDS)
    assert found == SUBCOMMANDS


def test_input_error_exit_codes(pa2_project, tmp_path, capsys):
    assert dispatch(["hom", "Nope", "S1", "--project", pa2_project]) == 2
    assert dispatch(["validate", "--project", str(tmp_path / "missing")]) == 2
    assert dispatch(["frobnicate", "--project", pa2_project]) == 2


def test_an_engine_error_is_not_reported_as_invalid_input(pa2_project, monkeypatch, capsys):
    # only an InputError means invalid input; a KeyError from the engine is a bug and propagates
    def broken(x, y):
        raise KeyError("engine")
    monkeypatch.setattr("frobcat.cli.ext1_dim", broken)
    with pytest.raises(KeyError, match="engine"):
        dispatch(["ext", "S2", "S1", "--project", pa2_project])
    assert capsys.readouterr().out == ""


def test_context_rejection_exit_code(pa2_project, tmp_path, capsys):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(pa2_project, bad)
    cfg = json.loads((bad / "project.json").read_text())
    cfg["M_gen"] = ["S2"]
    (bad / "project.json").write_text(json.dumps(cfg))
    assert dispatch(["validate", "--project", str(bad)]) == 2
    assert "rejected" in capsys.readouterr().out


def test_emitted_pa2_matches_stated_matrices(tmp_path):
    emit_fixture("pa2", str(tmp_path / "x"))
    p1 = json.loads((tmp_path / "x" / "P1.json").read_text())
    assert p1["dims"] == {"1": 1, "2": 1}
    assert p1["action"]["a1"] == ["1"]
    assert p1["action"]["a1*"] == ["0"]
    cfg = json.loads((tmp_path / "x" / "project.json").read_text())
    assert cfg["M_gen"] == ["P1", "P2", "S1"]
    assert cfg["mode"] == "frobenius"


def _with_file(name, text):
    def mutate(root):
        (root / name).write_text(text)
    return mutate


def _with_bytes(name, data):
    def mutate(root):
        (root / name).write_bytes(data)
    return mutate


def _with_options(**options):
    def mutate(root):
        cfg = json.loads((root / "project.json").read_text())
        cfg["options"].update(options)
        (root / "project.json").write_text(json.dumps(cfg))
    return mutate


def _edited(name, edit):
    def mutate(root):
        doc = json.loads((root / name).read_text())
        edit(doc)
        (root / name).write_text(json.dumps(doc))
    return mutate


def _rational(mutate):
    """The project over Q, where pa2's relations and modules hold as well,
    then `mutate`."""
    def over_q(root):
        _edited("algebra.json", lambda d: d.update(field={"kind": "rational"}))(root)
        mutate(root)
    return over_q


AXIOMS = ["axioms", "--check", "mho_rigid"]
WEQ = ["weq", "--morphism", "{root}/f.json"]
HOM = ["hom", "S1", "P1"]

# case -> (project mutation, command, the file the error line must name, or a tuple of
# the file and the key it must name)
MALFORMED = {
    "zero-samples": (None, AXIOMS + ["--samples", "0"], None),
    "negative-samples": (None, AXIOMS + ["--samples", "-5"], None),
    "module-not-json": (_with_file("S1.json", "{not json"), AXIOMS, "S1.json"),
    "algebra-not-json": (_with_file("algebra.json", "{not json"), HOM, "algebra.json"),
    "module-bad-dim": (_with_file("S1.json", json.dumps({"dims": {"1": "x"}})), AXIOMS,
                       "S1.json"),
    "morphism-not-json": (_with_file("f.json", "{bad"), WEQ, "f.json"),
    "morphism-bad-entry": (_with_file("f.json", json.dumps(
        {"source": "S2", "target": "S2", "comps": {"2": ["x"]}})), WEQ, "f.json"),
    "morphism-missing-key": (_with_file("f.json", json.dumps({"target": "S2", "comps": {}})),
                             WEQ, "f.json"),
    # JSON numbers other than integers are refused, not truncated by int()
    "module-float-entry": (_edited("P1.json", lambda d: d["action"].update(a1=[0.5])), HOM,
                           "P1.json"),
    "module-float-dim": (_edited("S1.json", lambda d: d["dims"].update({"1": 1.5})), HOM,
                         "S1.json"),
    "module-bool-entry": (_edited("P1.json", lambda d: d["action"].update(a1=[True])), HOM,
                          "P1.json"),
    "morphism-float-entry": (_with_file("f.json", json.dumps(
        {"source": "S2", "target": "S2", "comps": {"2": [0.5]}})), WEQ, "f.json"),
    "algebra-float-coeff": (_edited("algebra.json",
                                    lambda d: d["relations"][1][0].update(coeff=4.7)), HOM, None),
    "algebra-float-characteristic": (_edited("algebra.json", lambda d: d["field"].update(p=5.9)),
                                     HOM, None),
    "algebra-unparsable-characteristic": (
        _edited("algebra.json", lambda d: d["field"].update(p="abc")), HOM, None),
    "options-samples-not-int": (_with_options(samples="many"), AXIOMS, "project.json"),
    "options-seed-not-int": (_with_options(seed="x"), AXIOMS, "project.json"),
    "options-samples-float": (_with_options(samples=2.9), AXIOMS, "project.json"),
    "options-seed-bool": (_with_options(seed=True), AXIOMS, "project.json"),
    # a JSON container of the wrong type is refused where its file is loaded
    "project-top-level-array": (_with_file("project.json", json.dumps(["algebra.json"])),
                                AXIOMS, "project.json"),
    "project-modules-list": (_edited("project.json", lambda d: d.update(
        modules=sorted(d["modules"].values()))), AXIOMS, "project.json"),
    "project-m-gen-entry-list": (_edited("project.json", lambda d: d["M_gen"].append(["S1"])),
                                 AXIOMS, "project.json"),
    "algebra-arrow-string": (_edited("algebra.json", lambda d: d["arrows"].__setitem__(0, "ab")),
                             HOM, "algebra.json"),
    "module-dims-list": (_edited("S1.json", lambda d: d.update(dims=[1, 0])), HOM, "S1.json"),
    "module-action-number": (_edited("P1.json", lambda d: d["action"].update(a1=5)), HOM,
                             "P1.json"),
    "algebra-relations-number": (_edited("algebra.json", lambda d: d.update(relations=5)), HOM,
                                 "algebra.json"),
    "algebra-relation-term-number": (_edited("algebra.json",
                                             lambda d: d["relations"][0].__setitem__(0, 5)),
                                     HOM, "algebra.json"),
    # a missing key is named with its file, not reported as a bare KeyError
    "project-missing-algebra": (_edited("project.json", lambda d: d.pop("algebra")), AXIOMS,
                                ("project.json", "'algebra'")),
    "algebra-missing-field": (_edited("algebra.json", lambda d: d.pop("field")), HOM,
                              ("algebra.json", "'field'")),
    "algebra-missing-field-kind": (_edited("algebra.json", lambda d: d["field"].pop("kind")),
                                   HOM, ("algebra.json", "'kind'")),
    "algebra-missing-arrow-end": (_edited("algebra.json", lambda d: d["arrows"][0].pop("from")),
                                  HOM, ("algebra.json", "'from'")),
    "algebra-missing-term-path": (_edited("algebra.json",
                                          lambda d: d["relations"][0][0].pop("path")),
                                  HOM, ("algebra.json", "'path'")),
    "module-missing-dims": (_edited("S1.json", lambda d: d.pop("dims")), HOM,
                            ("S1.json", "'dims'")),
    # an unknown arrow or vertex is refused, not dropped into a different module
    "algebra-unknown-relation-arrow": (
        _edited("algebra.json", lambda d: d["relations"][0][0]["path"].__setitem__(0, "zz")),
        HOM, ("algebra.json", "'zz'")),
    "module-unknown-action-arrow": (
        _edited("P1.json", lambda d: d["action"].update(a1x=d["action"].pop("a1"))), HOM,
        ("P1.json", "'a1x'")),
    "module-unknown-dims-vertex": (_edited("P1.json", lambda d: d["dims"].update({"9": 1})), HOM,
                                   ("P1.json", "'9'")),
    "morphism-unknown-comps-vertex": (_with_file("f.json", json.dumps(
        {"source": "S2", "target": "S2", "comps": {"2": ["1"], "9": ["1"]}})), WEQ,
        ("f.json", "'9'")),
    # a JSON null is refused, not loaded as a zero matrix
    "module-null-action": (_edited("P1.json", lambda d: d["action"].update(a1=None)), HOM,
                           ("P1.json", "action of a1")),
    "morphism-null-comps": (_with_file("f.json", json.dumps(
        {"source": "S2", "target": "S2", "comps": {"2": None}})), WEQ,
        ("f.json", "component at vertex 2")),
    # "0" names the zero module, so a project module of that name would be shadowed
    "project-module-named-zero": (_edited("project.json", lambda d: d["modules"].update(
        {"0": d["modules"]["S1"]})), ["hom", "0", "S1"], ("project.json", '"0"')),
    # a key outside an object's documented set is refused, not dropped
    "project-unknown-key": (_edited("project.json", lambda d: d.update(Mgen=d.pop("M_gen"))),
                            AXIOMS, ("project.json", "'Mgen'")),
    "options-unknown-key": (_with_options(sampels=5), AXIOMS, ("project.json", "'sampels'")),
    "algebra-unknown-key": (_edited("algebra.json", lambda d: d.update(relatoins=[])), HOM,
                            ("algebra.json", "'relatoins'")),
    "algebra-unknown-field-key": (_edited("algebra.json", lambda d: d["field"].update(q=7)), HOM,
                                  ("algebra.json", "'q'")),
    "algebra-unknown-arrow-key": (_edited("algebra.json",
                                          lambda d: d["arrows"][0].update(label="x")),
                                  HOM, ("algebra.json", "'label'")),
    "algebra-unknown-term-key": (_edited("algebra.json",
                                         lambda d: d["relations"][0][0].update(weight=1)),
                                 HOM, ("algebra.json", "'weight'")),
    "module-unknown-key": (_edited("P1.json", lambda d: d.update(actoin=d.pop("action"))),
                           ["hom", "P1", "S2"], ("P1.json", "'actoin'")),
    "morphism-unknown-key": (_with_file("f.json", json.dumps(
        {"source": "S2", "target": "S2", "comp": {"2": ["1"]}})), WEQ, ("f.json", "'comp'")),
    # a name that is not a string is refused naming its key, not hashed or matched
    "algebra-vertex-list": (_edited("algebra.json", lambda d: d["vertices"].__setitem__(0, ["1"])),
                            HOM, ("algebra.json", "'vertices'")),
    "algebra-vertex-object": (_edited("algebra.json",
                                      lambda d: d["vertices"].__setitem__(1, {"2": 2})),
                              HOM, ("algebra.json", "'vertices'")),
    "algebra-vertex-integer": (_edited("algebra.json", lambda d: d["vertices"].__setitem__(0, 1)),
                               HOM, ("algebra.json", "'vertices'")),
    "algebra-arrow-name-list": (_edited("algebra.json", lambda d: d["arrows"][0].update(
        name=["a1"])), HOM, ("algebra.json", "'name'")),
    "algebra-arrow-from-object": (_edited("algebra.json", lambda d: d["arrows"][1].update(
        {"from": {"v": "2"}})), HOM, ("algebra.json", "'from'")),
    "algebra-arrow-to-list": (_edited("algebra.json", lambda d: d["arrows"][0].update(
        to=["2"])), HOM, ("algebra.json", "'to'")),
    "morphism-source-list": (_with_file("f.json", json.dumps(
        {"source": ["S2"], "target": "S2", "comps": {}})), WEQ, ("f.json", "'source'")),
    "morphism-target-object": (_with_file("f.json", json.dumps(
        {"source": "S2", "target": {"S2": 1}, "comps": {}})), WEQ, ("f.json", "'target'")),
    # a characteristic of 2^64 or more is refused at once, not trial-divided
    "algebra-characteristic-2^89-1": (_edited("algebra.json", lambda d: d["field"].update(
        p=2**89 - 1)), HOM, ("algebra.json", "2^64")),
    # a file that cannot be read as UTF-8 text is refused naming it, not a traceback
    "module-file-directory": (_edited("project.json", lambda d: d["modules"].update(S1=".")),
                              HOM, "module S1 (file .)"),
    "algebra-file-directory": (_edited("project.json", lambda d: d.update(algebra=".")), HOM,
                               "algebra file ."),
    "algebra-not-utf8": (_with_bytes("algebra.json", b'{"field": "\xff"}'), HOM,
                         ("algebra.json", "utf-8")),
    "project-not-utf8": (_with_bytes("project.json", b'{"mode": "\xff"}'), HOM,
                         ("project.json", "utf-8")),
    "morphism-directory": (None, ["weq", "--morphism", "{root}"], "morphism file"),
    # over Q, a zero denominator is refused naming its key, not raised as ZeroDivisionError
    "q-module-zero-denominator": (
        _rational(_edited("P1.json", lambda d: d["action"].update(a1=["1/0"]))), HOM,
        ("P1.json", "action of a1", "zero denominator")),
    "q-morphism-zero-denominator": (_rational(_with_file("f.json", json.dumps(
        {"source": "S2", "target": "S2", "comps": {"2": ["1/0"]}}))), WEQ,
        ("f.json", "component at vertex 2", "zero denominator")),
    "q-relation-zero-denominator": (
        _rational(_edited("algebra.json", lambda d: d["relations"][0][0].update(coeff="1/0"))),
        HOM, ("algebra.json", "relation 0: coefficient", "zero denominator")),
    # over Q, a numerator or denominator longer than Python prints is refused naming its key,
    # not loaded for str() to raise on, and a large exponent is refused before 10^n is built
    "q-module-exponent-5000": (
        _rational(_edited("P1.json", lambda d: d["action"].update(a1=["1e5000"]))), HOM,
        ("P1.json", "action of a1", "digits")),
    "q-relation-exponent-5000": (
        _rational(_edited("algebra.json", lambda d: d["relations"][0][0].update(coeff="1e5000"))),
        HOM, ("algebra.json", "relation 0: coefficient", "digits")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_line(pa2_project, tmp_path, capsys, case):
    import shutil
    mutate, command, named = MALFORMED[case]
    root = tmp_path / case
    shutil.copytree(pa2_project, root)
    if mutate is not None:
        mutate(root)
    argv = [a.format(root=root) for a in command] + ["--project", str(root)]
    code = dispatch(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for part in (named,) if isinstance(named, str) else named or ():
        assert part in lines[0]


def test_the_rational_project_of_the_zero_denominator_cases_loads(pa2_project, tmp_path, capsys):
    import shutil
    root = tmp_path / "q"
    shutil.copytree(pa2_project, root)
    _rational(_with_file("f.json", json.dumps(
        {"source": "S2", "target": "S2", "comps": {"2": ["1/2"]}})))(root)
    assert dispatch(HOM + ["--project", str(root)]) == 0
    assert dispatch([a.format(root=root) for a in WEQ] + ["--project", str(root)]) == 0
    assert capsys.readouterr().out.splitlines() == ["dim Hom(S1, P1) = 0", "true"]


def test_validate_reports_summed_cosyzygy(tmp_path, capsys):
    # P1+P2+P3+S1+S3 on pa3: the cosyzygy of M_gen is summed from its components
    dest = tmp_path / "pa3"
    emit_fixture("pa3", str(dest))
    config = json.loads((dest / "project.json").read_text())
    config["M_gen"] = ["P1", "P2", "P3", "S1", "S3"]
    (dest / "project.json").write_text(json.dumps(config))
    assert dispatch(["--json", "validate", "--project", str(dest)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mho_M_gen_dims"] == [1, 2, 1]


def test_validate_reports_the_costable_generator(tmp_path, capsys):
    # S1 is the one summand of pa2's generator that is not injective, pa2-deg has none,
    # and P3 is the one of aus2's
    for tag, dims in [("pa2", [1, 0]), ("pa2-deg", [0, 0]), ("aus2", [0, 0, 1])]:
        dest = tmp_path / tag
        emit_fixture(tag, str(dest))
        assert dispatch(["--json", "validate", "--project", str(dest)]) == 0
        assert json.loads(capsys.readouterr().out)["costable_M_gen_dims"] == dims
        assert dispatch(["validate", "--project", str(dest)]) == 0
        line = f"costable generator (non-injective summands): dims {tuple(dims)}"
        assert line in capsys.readouterr().out.splitlines()


def test_dl_verify_json_reports_sub_verdicts(pa2_project, capsys):
    assert dispatch(["--json", "dl-verify", "--all-pairs", "--project", pa2_project]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    assert len(pairs) == 16
    for p in pairs:
        parts = [p["dim_ho"] == p["dim_mod"]] + [
            p[k] for k in ("well_defined", "in_mod_span", "injective", "composition_ok")]
        assert p["pass"] is all(parts) is True


@pytest.mark.parametrize("tag,checks", [("pa2", 14), ("aus2", 12)])
def test_each_check_alone_reports_its_block_of_the_battery(tmp_path, capsys, tag, checks):
    """At seed 42 with 20 samples, each check run alone on a fresh context
    reports what it reported inside one run_all, whose context was warm from
    the checks before it; ``axioms --check`` prints that run and exits 1
    exactly when it has violations."""
    alg, mods, project = build_fixture(tag)
    gen = [mods[n] for n in project["M_gen"]]
    objects = sorted(mods.items())
    battery = run_all(build_context(alg, gen, project["mode"]), 42, 20, objects)
    assert len(battery.runs) == checks
    dest = str(tmp_path / tag)
    emit_fixture(tag, dest)
    for run in battery.runs:
        cold = run_check(build_context(alg, gen, project["mode"]), run.check_name, 42, 20, objects)
        assert cold == run
        code = dispatch(["axioms", "--project", dest, "--seed", "42", "--samples", "20",
                         "--check", run.check_name])
        assert code == (1 if run.violations else 0)
        assert capsys.readouterr().out == run.to_text() + "\n"
