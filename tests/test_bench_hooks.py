"""The benchmark's tracer wraps library functions by module attribute
name, so a refactor that renames or drops one of them crashes a traced
benchmark run. Wrapping and unwrapping every hook here turns that into a
test failure."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from sgbench import offline_child, server_child  # noqa: E402
from sgbench.spans import Tracer  # noqa: E402


@pytest.mark.parametrize("wrap", [offline_child._wrap_offline, server_child._wrap_serving],
                         ids=["offline", "serving"])
def test_every_trace_hook_resolves(wrap):
    tracer = Tracer()
    try:
        wrap(tracer)        # getattr raises AttributeError for a missing hook
    finally:
        tracer.unwrap_all()
