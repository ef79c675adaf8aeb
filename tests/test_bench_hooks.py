"""The benchmark's tracer still finds every package name it wraps.

`bench/spans.py` times the layers by replacing functions and methods of
the package from outside. A renamed or deleted name would break only the
traced benchmark run; installing the tracer here makes it fail the suite.
"""

from pathlib import Path

from bayesalg import boolalg, prob
from bayesalg.bayes import Tower

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_counts_and_uninstalls(monkeypatch):
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
    finally:
        tracer.uninstall()
    assert tracer.counts["bayes.extend.calls"] == 1
    assert tracer.counts["prob.prob_of.calls"] >= 1
    assert tracer.counts["prob.extend.calls"] == 1
    assert tracer.time["boolalg.parse"] > 0
    assert (prob.prob_of, boolalg.parse_element, Tower.extend) == originals
