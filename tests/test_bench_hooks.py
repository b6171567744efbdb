"""The benchmark's tracer (perfbench/tracer.py) patches named entry points of
the package from outside; this fails when one of those names goes away."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_tracer_installs_and_uninstalls(tracer_module):
    from repident import equivalence, verifier

    decide = verifier._Session.__dict__["decide"]
    compare_all = equivalence.compare_all
    t = tracer_module.Tracer()
    t.install()
    try:
        assert verifier._Session.__dict__["decide"] is not decide
        assert equivalence.compare_all is not compare_all
    finally:
        t.uninstall()
    assert verifier._Session.__dict__["decide"] is decide
    assert equivalence.compare_all is compare_all
