"""The benchmark's tracer still finds every package name it wraps.

`bench/spans.py` times the layers by replacing functions and methods of
the package from outside. A renamed or deleted name would break only the
traced benchmark run; installing the tracer here makes it fail the suite.
Its counters also pin how much work one `verify` does.
"""

import json
from pathlib import Path

from bayesalg import boolalg, cli, prob
from bayesalg.bayes import Tower

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_counts_and_uninstalls(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    originals = (prob.prob_of, boolalg.parse_element, Tower.extend)
    tracer = Tracer()
    try:
        tracer.install()
        algebra = boolalg.FiniteBooleanAlgebra.from_names("a,c,d")
        tower = Tower(algebra)
        x = boolalg.parse_element(algebra, "{a,c}")
        tower.extend(x)
        dist = prob.base_distribution(algebra, ["1/4", "1/4", "1/2"])
        prob.prob_of(prob.extend_distribution(tower, dist), tower.push(x, 0, 1))
        before = dict(tracer.counts)
        (tmp_path / "tower.json").write_text(json.dumps(Tower(algebra).to_json()))
        (tmp_path / "dist.json").write_text(json.dumps(
            {"stage": 0, "masses": {"a": "1/4", "c": "1/4", "d": "1/2"}}))
        assert cli.main(["verify", str(tmp_path / "tower.json"),
                         str(tmp_path / "dist.json")]) == 0
    finally:
        tracer.uninstall()
    assert before["bayes.extend.calls"] == 1
    assert before["prob.prob_of.calls"] >= 1
    assert before["prob.extend.calls"] == 1
    # the 4 atoms of stage 1, each given its mass once
    assert before["prob.atoms_massed"] == 4
    # verify extends the 3-atom stage 0 once per nontrivial x, for both
    # the structural and the probability laws
    assert tracer.counts["bayes.extend.calls"] - before["bayes.extend.calls"] == 6
    assert tracer.counts["prob.extend.calls"] > before["prob.extend.calls"]
    assert capsys.readouterr().out.startswith("axioms: ok\n")
    assert tracer.time["boolalg.parse"] > 0
    assert (prob.prob_of, boolalg.parse_element, Tower.extend) == originals


def test_tracer_counts_fresh_and_shortcut_conditionals(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    tower = Tower(boolalg.FiniteBooleanAlgebra.from_names("a,c,d"))
    tower.extend(boolalg.parse_element(tower.top, "{a,c}"))
    dump = tmp_path / "tower.json"
    dump.write_text(json.dumps(tower.to_json()))
    tracer = Tracer()
    try:
        tracer.install()
        # {(a,d)} conditions on something new; {(a,d),(c,d)}, the image of
        # {a,c}, repeats step 1, which answers it without growing
        assert cli.main(["cond", str(dump), "{(a,d)}", "{(a,d),(d,a)}"]) == 0
        assert cli.main(["cond", str(dump), "{(a,d),(c,d)}", "{(a,d),(d,a)}"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.splitlines() == [
        "stage 2: {((a,d),(c,d)),((a,d),(d,a)),((a,d),(d,c)),"
        "((c,d),(a,d)),((d,a),(a,d)),((d,c),(a,d))}",
        "stage 1: {(a,d),(d,a)}",
    ]
    counts = tracer.counts
    assert (counts["bayes.conditional.calls"], counts["bayes.conditional.nontrivial"],
            counts["bayes.conditional.shortcut"]) == (2, 2, 1)
