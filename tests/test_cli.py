"""End-to-end command line tests via main(argv)."""

import json

import pytest

from bayesalg.cli import main


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload) if isinstance(payload, dict)
                        else payload)
        return str(path)

    paths = {
        "algebra": write("algebra.json", {"atoms": ["a", "c", "d"]}),
        "dist": write("dist.json", {
            "stage": 0, "masses": {"a": "1/4", "c": "1/4", "d": "1/2"}}),
        "dist2": write("dist2.json", {
            "stage": 0, "masses": {"a": "1/6", "c": "1/3", "d": "1/2"}}),
        "degenerate": write("degenerate.json", {
            "stage": 0, "masses": {"a": "0", "c": "0", "d": "1"}}),
        "tower": str(tmp_path / "tower.json"),
        "dir": tmp_path,
    }
    assert main(["build", paths["algebra"], "-o", paths["tower"]]) == 0
    return paths


def test_build_reports_stage_zero(files, capsys):
    capsys.readouterr()
    assert main(["build", files["algebra"], "-o", files["tower"]]) == 0
    assert capsys.readouterr().out == "stage 0: 3 atoms\n"
    dump = json.loads(open(files["tower"]).read())
    assert dump["atoms"] == ["a", "c", "d"]
    assert dump["steps"] == []


def test_build_to_stdout(files, capsys):
    capsys.readouterr()
    assert main(["build", files["algebra"]]) == 0
    assert json.loads(capsys.readouterr().out)["atoms"] == ["a", "c", "d"]


def test_build_rejects_bad_algebras(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"atoms": []}')
    assert main(["build", str(empty)]) == 2
    dup = tmp_path / "dup.json"
    dup.write_text('{"atoms": ["a", "a"]}')
    assert main(["build", str(dup)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["build", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "at least one atom" in err
    assert "duplicate" in err


@pytest.mark.parametrize("atoms", ["acd", ["a", 3]], ids=["string", "number"])
def test_atoms_must_be_a_list_of_labels(tmp_path, files, capsys, atoms):
    path = tmp_path / "bad-algebra.json"
    path.write_text(json.dumps({"atoms": atoms}))
    for argv in (["build", str(path)],
                 ["lewis", str(path), files["dist"], "{a}", "{c}"]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert f'"atoms" must be a list of atom labels, got {atoms!r}' in err


def test_extend_updates_in_place(files, capsys):
    capsys.readouterr()
    assert main(["extend", files["tower"], "{a,c}"]) == 0
    out = capsys.readouterr().out
    assert out == ("stage 0: 3 atoms\n"
                   "stage 1: conditioned on {a,c}, 4 atoms\n")
    dump = json.loads(open(files["tower"]).read())
    assert dump["steps"] == [
        {"kind": "extend", "atom_count": 4, "base": ["a", "c"]}]


def test_cond_prints_element_and_stage(files, capsys):
    capsys.readouterr()
    assert main(["cond", files["tower"], "{a,c}", "{a}"]) == 0
    assert capsys.readouterr().out == "stage 1: {(a,d),(d,a)}\n"
    assert main(["cond", files["tower"], "{a,c}", "{a}",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "stage": 1, "element": "{(a,d),(d,a)}"}


def test_cond_does_not_persist(files):
    before = open(files["tower"]).read()
    assert main(["cond", files["tower"], "{a,c}", "{a}"]) == 0
    assert open(files["tower"]).read() == before


def test_prob_conditional_query(files, capsys):
    capsys.readouterr()
    assert main(["prob", files["tower"], files["dist"], "[{a,c}]{a}"]) == 0
    assert capsys.readouterr().out == "1/2\n"


def test_prob_plain_element(files, capsys):
    capsys.readouterr()
    assert main(["prob", files["tower"], files["dist"], "{a,d}"]) == 0
    assert capsys.readouterr().out == "3/4\n"


def test_prob_null_event_needs_eps(files, capsys):
    capsys.readouterr()
    assert main(["prob", files["tower"], files["degenerate"],
                 "[{a,c}]{a}"]) == 1
    assert "null event" in capsys.readouterr().err
    assert main(["prob", files["tower"], files["degenerate"],
                 "[{a,c}]{a}", "--field", "eps"]) == 0
    assert capsys.readouterr().out == "1/2\n"


def test_prob_infinitesimal_output(files, capsys):
    assert main(["extend", files["tower"], "{a,c}"]) == 0
    capsys.readouterr()
    assert main(["prob", files["tower"], files["degenerate"],
                 "{(a,d)}", "--field", "eps"]) == 0
    assert capsys.readouterr().out == "e/3\n"
    assert main(["prob", files["tower"], files["degenerate"],
                 "{(a,d)}", "--field", "eps", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "query": "{(a,d)}", "value": "e/3", "standard": "0"}


def test_verify_reports_axioms_and_law(files, capsys):
    capsys.readouterr()
    assert main(["verify", files["tower"], files["dist"]]) == 0
    assert capsys.readouterr().out == (
        "axioms: ok\n"
        "conditional law: 64 pairs, 0 product failures, 0 marginal failures,"
        " 0 independence failures, 0 skipped (null event)\n")


def test_verify_eps_handles_null_blocks(files, capsys):
    capsys.readouterr()
    assert main(["verify", files["tower"], files["degenerate"],
                 "--field", "eps", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["skipped_null"] == 0
    assert report["witnesses"] == []


def test_verify_json_names_failing_witnesses(files, capsys, monkeypatch):
    from bayesalg import prob

    images_of = prob._conditional_atom_images

    def wrong_image_of_a(tower, x):
        fork, new, images = images_of(tower, x)
        images["a"] = fork.algebra(new).bottom
        return fork, new, images

    monkeypatch.setattr(prob, "_conditional_atom_images", wrong_image_of_a)
    capsys.readouterr()
    assert main(["verify", files["tower"], files["dist"], "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["axiom_failures"] == []
    assert 0 < len(report["witnesses"]) <= 5
    assert report["witnesses"][0] == {"law": "product", "x": "{a}", "y": "{a}"}
    assert main(["verify", files["tower"], files["dist"]]) == 1
    assert capsys.readouterr().out.startswith("axioms: ok\nconditional law: 64 pairs, ")


def test_lewis_reports_no_shared_candidate(files, capsys):
    capsys.readouterr()
    assert main(["lewis", files["algebra"], files["dist"], files["dist2"],
                 "{a,c}", "{a,d}"]) == 0
    assert capsys.readouterr().out == (
        "P({a,d} | {a,c}) under distribution 1: 1/2\n"
        "P({a,d} | {a,c}) under distribution 2: 1/3\n"
        "elements with that probability in every distribution: none\n")


def test_lewis_single_distribution_has_candidates(files, capsys):
    capsys.readouterr()
    assert main(["lewis", files["algebra"], files["dist"],
                 "{a,c}", "{a,d}"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(
        "elements with that probability in every distribution: {a,c}, {d}\n")


def test_dbl_eval(files, capsys):
    seqs = files["dir"] / "seqs.txt"
    seqs.write_text("# demo\n~x || [x]x\n[x]y <-> y\n")
    capsys.readouterr()
    assert main(["dbl", "eval", str(seqs), "--atoms", "a,c,d",
                 "--let", "x={a,c}", "--let", "y={a,d}"]) == 1
    assert capsys.readouterr().out == (
        "line 2: holds  ~x || [x]x\n"
        "line 3: fails  [x]y <-> y\n")


def test_dbl_eval_requires_bindings(files, capsys):
    seqs = files["dir"] / "seqs.txt"
    seqs.write_text("x | y\n")
    assert main(["dbl", "eval", str(seqs), "--atoms", "a,c,d",
                 "--let", "x={a}"]) == 2
    assert "unbound variables: y" in capsys.readouterr().err


def test_dbl_search(files, capsys):
    seqs = files["dir"] / "seqs.txt"
    seqs.write_text("~x || [x]x\n[x]y <-> y\n")
    capsys.readouterr()
    assert main(["dbl", "search", str(seqs)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "line 1: no counterexample within budget  ~x || [x]x"
    assert out[1].startswith("line 2: counterexample over ")
    assert main(["dbl", "search", str(seqs), "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["counterexample"] is None
    assert set(rows[1]["counterexample"]["assignment"]) == {"x", "y"}


def test_dbl_check_corpus_roundtrip(files, capsys):
    capsys.readouterr()
    assert main(["dbl", "corpus"]) == 0
    names = capsys.readouterr().out.split()
    assert "self-support" in names and len(names) == 23
    assert main(["dbl", "corpus", "self-support"]) == 0
    blob = capsys.readouterr().out
    path = files["dir"] / "self-support.json"
    path.write_text(blob)
    assert main(["dbl", "check", str(path)]) == 0
    assert capsys.readouterr().out == "self-support: ok (2 steps)\n"


def test_dbl_check_diagnoses_bad_step(files, capsys):
    steps = [
        {"conclusion": "x -> y", "rule": "TAUT", "premises": []},
    ]
    path = files["dir"] / "broken.json"
    path.write_text(json.dumps(steps))
    capsys.readouterr()
    assert main(["dbl", "check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "broken: step 0 TAUT: no member is a propositional tautology"
        " over its opaque letters\n")


def test_dbl_corpus_unknown_name(files, capsys):
    assert main(["dbl", "corpus", "nope"]) == 2
    assert "unknown derivation" in capsys.readouterr().err


def test_pairing(capsys):
    assert main(["pairing", "4"]) == 0
    assert capsys.readouterr().out == "1 1\n"
    assert main(["pairing", "1", "1"]) == 0
    assert capsys.readouterr().out == "4\n"
    assert main(["pairing", "1", "2", "3"]) == 2
    assert main(["pairing", "-1"]) == 2


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("payload, message", [
    ({"masses": {"a": "1/2 +", "c": "1/4", "d": "1/4"}}, "unexpected end of input"),
    ({"masses": {"a": "1/3", "c": "1/4", "d": "1/2"}}, "masses sum to 13/12, not 1"),
    ({"masses": {"a": "-1/4", "c": "3/4", "d": "1/2"}}, "negative mass at a"),
    ({"stage": 0}, "expected an object with a \"masses\" mapping"),
    ({"stage": 3, "masses": {"a": "1/4", "c": "1/4", "d": "1/2"}},
     "stage 3 is not a stage of the tower (0..0)"),
], ids=["unparsable-mass", "sum-13/12", "negative-mass", "no-masses", "stage-3"])
def test_bad_distribution_exits_two_with_one_line(files, capsys, payload, message):
    path = files["dir"] / "bad.json"
    path.write_text(json.dumps(payload))
    for argv in (["prob", files["tower"], str(path), "{a}"],
                 ["verify", files["tower"], str(path)],
                 ["lewis", files["algebra"], str(path), "{a,c}", "{a}"]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert message in err


@pytest.mark.parametrize("step, message", [
    ({"kind": "extend", "atom_count": 4}, "missing key 'base'"),
    ({"kind": "extend", "atom_count": 4, "base": ["a,c"]},
     "unknown atom 'a,c' in a step base"),
    ({"kind": "extend", "atom_count": 4, "base": "ac"},
     "a step base must be a list of atom labels, got 'ac'"),
    ({"kind": "trivial", "atom_count": 3}, "unknown step kind 'trivial'"),
    ("extend", "string indices must be integers"),
], ids=["no-base", "joined-labels", "string-base", "trivial-kind", "step-not-object"])
def test_bad_tower_dump_exits_two_with_one_line(files, capsys, step, message):
    path = files["dir"] / "bad-tower.json"
    path.write_text(json.dumps({"atoms": ["a", "c", "d"], "steps": [step]}))
    for argv in (["cond", str(path), "{a}", "{c}"],
                 ["prob", str(path), files["dist"], "{a}"],
                 ["extend", str(path), "{a}"],
                 ["verify", str(path), files["dist"]]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert message in err


@pytest.mark.parametrize("argv, message", [
    (["cond", "@tower", "{a}", "{c}", "--max-atoms", "3"],
     "extension needs 4 atoms, budget is 3"),
    (["prob", "@tower", "@dist", "[{a}]{c}", "--max-atoms", "3"],
     "extension needs 4 atoms, budget is 3"),
    (["verify", "@tower", "@dist", "--max-atoms", "3"],
     "extension needs 4 atoms, budget is 3"),
    (["extend", "@tower", "{a}", "--max-atoms", "3"],
     "extension needs 4 atoms, budget is 3"),
    (["extend", "@tower", "{}"], "conditioning event must be nontrivial"),
    (["extend", "@tower", "{a,c,d}"], "conditioning event must be nontrivial"),
], ids=["cond", "prob", "verify", "extend", "extend-bottom", "extend-top"])
def test_growth_guard_and_trivial_events_exit_two(files, capsys, argv, message):
    argv = [files[arg[1:]] if arg.startswith("@") else arg for arg in argv]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dump_over_its_own_budget_exits_two(files, capsys):
    path = files["dir"] / "small-budget.json"
    path.write_text(json.dumps({
        "atoms": ["a", "c", "d"], "max_atoms": 2,
        "steps": [{"kind": "extend", "atom_count": 4, "base": ["a"]}]}))
    for argv in (["cond", str(path), "{a}", "{c}"],
                 ["prob", str(path), files["dist"], "{a}"],
                 ["extend", str(path), "{a}"],
                 ["verify", str(path), files["dist"]]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: extension needs 4 atoms, budget is 2\n")


def _w_tower(files, *events):
    """A tower dump over w0, w1, w2, extended by each event in turn."""
    algebra = files["dir"] / "w.json"
    algebra.write_text(json.dumps({"atoms": ["w0", "w1", "w2"]}))
    path = str(files["dir"] / f"w{len(events)}.json")
    assert main(["build", str(algebra), "-o", path]) == 0
    for event in events:
        assert main(["extend", path, event]) == 0
    return path


def test_verify_eps_perturbs_a_null_base_before_extending(files, capsys):
    tower = _w_tower(files, "{w1}")
    dist = files["dir"] / "null-w0.json"
    dist.write_text(json.dumps({"masses": {"w0": "0", "w1": "7/10", "w2": "3/10"}}))
    capsys.readouterr()
    assert main(["verify", tower, str(dist), "--field", "eps"]) == 0
    assert capsys.readouterr().out == (
        "axioms: ok\nconditional law: 256 pairs, 0 product failures,"
        " 0 marginal failures, 0 independence failures,"
        " 0 skipped (null event)\n")


def test_null_atom_in_eps_masses_exits_one_with_one_line(files, capsys):
    dist = files["dir"] / "eps-null.json"
    dist.write_text(json.dumps({"masses": {"w0": "0", "w1": "1 - e", "w2": "e"}}))
    for argv in (["prob", _w_tower(files), str(dist), "[{w0}]{w0}", "--field", "eps"],
                 ["verify", _w_tower(files, "{w1}"), str(dist), "--field", "eps"]):
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("null event: ")
        assert captured.err.count("\n") == 1
        assert "--field eps" not in captured.err


@pytest.mark.parametrize("premises", [["0"], [True], "0", [0.0]],
                         ids=["string", "bool", "not-a-list", "float"])
def test_dbl_check_rejects_premises_that_are_not_indices(files, capsys, premises):
    steps = [
        {"conclusion": "x -> x", "rule": "TAUT", "premises": []},
        {"conclusion": "x -> x", "rule": "mP", "premises": premises},
    ]
    path = files["dir"] / "bad-premises.json"
    path.write_text(json.dumps(steps))
    capsys.readouterr()
    assert main(["dbl", "check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: step 1: \"premises\" must be a list of step indices,"
        f" got {premises!r}\n")


@pytest.mark.parametrize("label", ["(a", "(a,b,c)"])
def test_malformed_pair_label_in_a_file_exits_two_with_one_line(files, capsys, label):
    algebra = files["dir"] / "bad-label.json"
    algebra.write_text(json.dumps({"atoms": [label, "d"]}))
    dump = files["dir"] / "bad-label-tower.json"
    dump.write_text(json.dumps({"atoms": [label, "d"], "steps": []}))
    for argv, path in ((["build", str(algebra)], algebra),
                       (["cond", str(dump), "{d}", "{d}"], dump)):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1



@pytest.mark.parametrize("field, value, message", [
    ("max_atoms", "x", "\"max_atoms\" must be a positive integer, got 'x'"),
    ("max_atoms", 3.5, "\"max_atoms\" must be a positive integer, got 3.5"),
    ("max_atoms", True, "\"max_atoms\" must be a positive integer, got True"),
    ("max_atoms", 0, "\"max_atoms\" must be a positive integer, got 0"),
    ("steps", {}, "\"steps\" must be a list, got {}"),
], ids=["budget-string", "budget-float", "budget-bool", "budget-zero",
        "steps-object"])
def test_bad_dump_fields_exit_two_with_one_line(files, capsys, field, value,
                                                message):
    path = files["dir"] / "bad-field.json"
    path.write_text(json.dumps({"atoms": ["a", "c", "d"], field: value}))
    for argv in (["cond", str(path), "{a}", "{c}"],
                 ["prob", str(path), files["dist"], "{a}"],
                 ["extend", str(path), "{a}"],
                 ["verify", str(path), files["dist"]]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("payload, message", [
    ([5], "step 0: expected an object, got 5"),
    ("abc", "expected a list of steps, got 'abc'"),
    ({"steps": {"conclusion": "x -> x"}},
     "expected a list of steps, got {'conclusion': 'x -> x'}"),
    ([{"conclusion": "x -> x", "rule": "TAUT", "witness": ["X", "x"]}],
     "step 0: \"witness\" must be an object, got ['X', 'x']"),
    ([{"conclusion": 7, "rule": "TAUT"}],
     "step 0: \"conclusion\" must be a string, got 7"),
    ([{"conclusion": "x -> x", "rule": ["TAUT"]}],
     "step 0: \"rule\" must be a string, got ['TAUT']"),
], ids=["number-step", "string-file", "steps-object", "witness-list",
        "conclusion-number", "rule-list"])
def test_dbl_check_rejects_malformed_files(files, capsys, payload, message):
    path = files["dir"] / "bad-derivation.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["dbl", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
