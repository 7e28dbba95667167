"""The benchmark's tracer wraps dualcap attributes by name; a refactor must keep every name.

``perfbench/tracer.py`` reports a per-layer metric as missing when its
wrap target no longer resolves, so a moved function would silently turn
a measured metric into "missing".  The file is read as it is.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrap_target_and_the_flop_counter_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [target for target, _ in tracer.TARGETS] + [tracer.FLOP_COUNTER]
    assert len(targets) > 1
    assert [target for target in targets if tracer.resolve(target) is None] == []
