"""The traced benchmark wraps library names given as strings (bench/spans.py).

A refactor that renames or removes one of them breaks ``bench/run.py
--trace 1``; these tests catch it with a tiny traced solve of each solver.
"""

import sys
from pathlib import Path

import pytest

import metabox as mb

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    """The bench's span module, with every solver module already imported:
    the package imports them on first use, and ``instrument`` would import
    them after a test's ``before`` snapshot."""
    import metabox.bayesian, metabox.direct_search, metabox.gp  # noqa: F401
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    return spans


def library_bindings():
    """Every callable attribute of every metabox module and of every class
    they define (module-level caches filled on first use are left out)."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "metabox" or name.startswith("metabox."))]
    bindings = {}
    for module in modules:
        for attr, value in vars(module).items():
            if callable(value):
                bindings[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    if callable(member):
                        bindings[(value.__qualname__, name)] = member
    return bindings


@pytest.mark.parametrize("solve, layer", [
    (lambda problem: mb.run_direct_search(problem, mb.SearchConfig(budget=30, seed=0)),
     "direct_search.subproblem"),
    (lambda problem: mb.run_bo(problem, mb.BOConfig(budget=12, seed=0)),
     "bayesian.acquisition"),
], ids=["direct", "bo"])
def test_traced_solve_records_spans_and_restores_the_library(spans, toy_problem,
                                                             solve, layer):
    before = library_bindings()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        solve(toy_problem)
    assert len(tracer) > 0
    assert {"blackbox.evaluate", "domain.membership", layer} <= set(tracer.labels)
    after = library_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_lookahead_opens_each_backend_span_inside_its_evaluate(spans, monkeypatch,
                                                                     tmp_path, toy_problem):
    # Two command children at once: every backend wait must happen in the
    # thread that settles the point, under that point's evaluate span.
    monkeypatch.setattr(mb.blackbox, "_cpus", lambda: 2)
    script = tmp_path / "bb.py"
    script.write_text('import json, sys\n'
                      'data = json.load(sys.stdin)\n'
                      'out = {"objective": (data["standard"]["k"] - 1) ** 2}\n'
                      'if data["meta"]["m"] == "B":\n'
                      '    out["constraints"] = {"branch_cap": -1.0}\n'
                      'json.dump(out, sys.stdout)\n')
    problem = mb.Problem(domain=toy_problem.domain, constraints=toy_problem.constraints,
                         command=(sys.executable, "-I", "-S", str(script)), timeout=20.0)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        result = mb.run_direct_search(problem, mb.SearchConfig(budget=12, seed=0))
    assert result.evaluator.budget.used == 12
    labels = [tracer.labels[i] for i in tracer.name]
    parents = [labels[p] if p >= 0 else None
               for p, label in zip(tracer.parent, labels) if label == "blackbox.backend"]
    assert len(parents) == 12
    assert set(parents) == {"blackbox.evaluate"}
