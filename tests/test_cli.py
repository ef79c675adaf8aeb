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
        images[tower.top.atoms.index("a")] = fork.algebra(new).bottom
        return fork, new, images

    monkeypatch.setattr(prob, "_conditional_atom_images", wrong_image_of_a)
    capsys.readouterr()
    assert main(["verify", files["tower"], files["dist"], "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    # the structural laws read the same atom images, so they fail too
    assert report["ok"] is False
    assert report["axiom_failures"][:2] == [
        "atom images of [{a}]- do not partition the extension",
        "[{a}]- collapses atom a"]
    assert 0 < len(report["witnesses"]) <= 5
    assert report["witnesses"][0] == {"law": "product", "x": "{a}", "y": "{a}"}
    assert main(["verify", files["tower"], files["dist"]]) == 1
    out = capsys.readouterr().out
    assert out.startswith("axiom failure: atom images of [{a}]- do not partition")
    assert "\nconditional law: 64 pairs, " in out


def test_verify_refuses_a_top_stage_above_sixteen_atoms(files, capsys):
    names = [f"w{i}" for i in range(17)]
    algebra = files["dir"] / "big.json"
    algebra.write_text(json.dumps({"atoms": names}))
    dist = files["dir"] / "big-dist.json"
    dist.write_text(json.dumps(
        {"stage": 0, "masses": {name: "1/17" for name in names}}))
    tower = str(files["dir"] / "big-tower.json")
    assert main(["build", str(algebra), "-o", tower]) == 0
    capsys.readouterr()
    assert main(["verify", tower, str(dist)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verify takes a top stage of at most 16 atoms, this one has 17\n")


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


@pytest.mark.parametrize("lets, message", [
    (["T={a}"], "--let 'T={a}': 'T' is not a formula variable"),
    (["1x={c}"], "--let '1x={c}': '1x' is not a formula variable"),
    (["x y={c}"], "--let 'x y={c}': 'x y' is not a formula variable"),
    (["x={a}", "x={c}"], "--let binds 'x' more than once"),
], ids=["constant", "digit-first", "space", "twice"])
def test_dbl_eval_rejects_bindings_no_formula_can_use(files, capsys, lets,
                                                      message):
    seqs = files["dir"] / "seqs.txt"
    seqs.write_text("x | ~x\n")
    argv = ["dbl", "eval", str(seqs), "--atoms", "a,c,d"]
    capsys.readouterr()
    assert main(argv + [arg for let in lets for arg in ("--let", let)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    # a variable no line uses stays accepted
    assert main(argv + ["--let", "x={a}", "--let", "g_2={c}"]) == 0


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
    ({"masses": {"a": "1/2", "d": "1/2"}}, "masses must cover exactly the algebra's atoms"),
    ({"masses": {"a": "1/4", "c": "1/4", "d": "1/2", "f": "0"}},
     "masses must cover exactly the algebra's atoms"),
], ids=["unparsable-mass", "sum-13/12", "negative-mass", "no-masses", "stage-3",
        "missing-label", "extra-label"])
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


def test_masses_out_of_atom_order_land_on_their_atoms(files, capsys):
    shuffled = files["dir"] / "shuffled.json"
    shuffled.write_text(json.dumps({"masses": {"d": "1/2", "c": "3/8", "a": "1/8"}}))
    capsys.readouterr()
    for query, expected in (("{a}", "1/8"), ("{c}", "3/8"), ("{d}", "1/2"),
                            ("[{a,c}]{a}", "1/4")):
        assert main(["prob", files["tower"], str(shuffled), query]) == 0
        assert capsys.readouterr().out == expected + "\n"
    # verify names the one null atom of Q(e) masses
    shuffled.write_text(json.dumps({"masses": {"d": "e", "c": "0", "a": "1 - e"}}))
    assert main(["verify", files["tower"], str(shuffled), "--field", "eps"]) == 1
    assert capsys.readouterr().err.startswith("null event: c has probability 0 ")


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


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["build", "@algebra"],
    ["extend", "@tower", "{a}"],
    ["cond", "@tower", "{a}", "{c}"],
    ["prob", "@tower", "@dist", "[{a}]{c}"],
    ["verify", "@tower", "@dist"],
    ["dbl", "eval", "@seqs", "--atoms", "a,c,d", "--let", "x={a}"],
    ["dbl", "search", "@seqs"],
], ids=["build", "extend", "cond", "prob", "verify", "dbl-eval", "dbl-search"])
def test_max_atoms_below_one_exits_two_with_one_line(files, capsys, argv,
                                                     value):
    files["seqs"] = files["dir"] / "seqs.txt"
    files["seqs"].write_text("x || ~x\n")
    argv = [str(files[arg[1:]]) if arg.startswith("@") else arg for arg in argv]
    capsys.readouterr()
    assert main(argv + ["--max-atoms", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --max-atoms must be a positive integer, got {value}\n")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_search_budget_below_one_exits_two_with_one_line(files, capsys, budget):
    seqs = files["dir"] / "seqs.txt"
    seqs.write_text("x || ~x\n")
    capsys.readouterr()
    assert main(["dbl", "search", str(seqs)]) == 1
    capsys.readouterr()
    assert main(["dbl", "search", str(seqs), "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --budget must be a positive integer, got {budget}\n")


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


@pytest.mark.parametrize("command, deep", [
    ("eval", "(" * 3000 + "x" + ")" * 3000),
    ("search", "~" * 5000 + "x"),
    ("check", "~" * 5000 + "x"),
], ids=["eval", "search", "check"])
def test_deep_nesting_exits_two_with_one_line(files, capsys, command, deep):
    def run(text):
        if command == "check":
            path = files["dir"] / "deep.json"
            path.write_text(json.dumps([{"conclusion": text, "rule": "TAUT"}]))
        else:
            path = files["dir"] / "deep.txt"
            path.write_text(text + "\n")
        argv = ["dbl", command, str(path)]
        if command == "eval":
            argv += ["--atoms", "a,b", "--let", "x={a}"]
        capsys.readouterr()
        return main(argv), capsys.readouterr(), path

    # at the bound, parsing, evaluation, search and TAUT all run
    rc, captured, _ = run("~" * 198 + "(x -> x)")
    assert (rc, captured.err) == (0, "")
    rc, captured, path = run(deep)
    assert (rc, captured.out) == (2, "")
    where = path if command == "check" else f"{path}:1"
    assert captured.err == (
        f"error: {where}: formula nested too deeply (at position 201)\n")


def test_tautology_over_the_letter_limit_exits_two_naming_the_step(files, capsys):
    steps = [{"conclusion": "x -> x", "rule": "TAUT"},
             {"conclusion": " -> ".join(f"v{i}" for i in range(18)),
              "rule": "TAUT"}]
    path = files["dir"] / "many-letters.json"
    path.write_text(json.dumps(steps))
    capsys.readouterr()
    assert main(["dbl", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: step 1 TAUT: tautology check over 18 letters exceeds"
        " the limit of 16\n")
