"""The benchmark's tracer finds every ipscert function and method it wraps."""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_tracer_resolves_its_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    assert tracer._replacements()
    for cls, attr, _name, _after in tracer._methods():
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
