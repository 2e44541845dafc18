"""The benchmark's tracer, perfbench/traced.py, wraps functions by name.

A rename in the package would make `perfbench/run.py --trace 1` fail or
silently lose a span, so every name the tracer rebinds must resolve.
"""

import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # importing installs nothing
    targets = [t for pairs in traced.SPANS.values() for t in pairs]
    targets.append((traced.manifest, "check_location"))
    for owner, attr in targets:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
