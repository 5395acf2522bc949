"""The benchmark's tracer rebinds names that exist and puts the originals back.

``perfbench/tracing.py`` replaces package entry points (module globals, a
class attribute, a strategy-table entry) with timing wrappers.  A rename or
deletion in the package would break only the benchmark, which the suite
does not collect, so this test installs and uninstalls the tracer here.
"""

import importlib
from pathlib import Path

import semirandom
from semirandom import process, rng
from semirandom.harness import oracle, trials
from semirandom.ode import systems
from semirandom.strategies import hamilton, matching, mindeg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (rng.SquareSource, mindeg, matching, hamilton, trials, oracle, systems,
          mindeg.MIN_DEGREE_STRATEGIES)


def _bindings(owner) -> dict:
    return dict(owner) if isinstance(owner, dict) else dict(vars(owner))


def _lookup(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_install_and_uninstall_restore_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = {id(owner): _bindings(owner) for owner in OWNERS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert original is before[id(owner)][attr]
            assert _lookup(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert not tracer._saved
    for owner, attr, original in saved:
        assert _lookup(owner, attr) is original, attr
    for owner in OWNERS:
        bound, after = before[id(owner)], _bindings(owner)
        assert after.keys() == bound.keys()
        assert all(after[name] is bound[name] for name in bound)


def test_tracer_wraps_the_only_edge_rule():
    # every module the tracer rebinds ``add_edge`` in holds the kernel's one-round call
    assert semirandom.add_edge is mindeg.add_edge is matching.add_edge is hamilton.add_edge
    assert not hasattr(process, "add_edge") and not hasattr(process.DegreeBuckets, "move")
