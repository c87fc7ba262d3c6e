"""The names the benchmark's tracer looks up must keep resolving.

``bench/tracing.py`` wraps lalg functions that it finds with ``getattr``; a
renamed or deleted function makes it fail at install time, outside the
tier-1 suite.  This test imports the tracer as it stands and resolves every
name it will look up.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = []
    for table in (tracing.SPANNED, tracing.COUNTED):
        for layer, names in table.items():
            module = importlib.import_module(f"lalg.{layer}")
            missing += [f"{layer}.{name}" for name in names if not callable(getattr(module, name, None))]
    assert missing == []
    from lalg import constructions, ideals, laws

    assert callable(constructions.enumerate_all)
    assert "__init__" in vars(ideals.IdealLattice)
    # each law id the tracer reports a per-law time for is still a law
    assert set(tracing.LAW_IDS) <= set(laws.law_ids())
