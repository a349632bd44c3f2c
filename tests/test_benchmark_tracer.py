"""The benchmark's tracer finds every ipscert function and method it wraps."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
MODULES = ("circuit", "cli", "gadget", "instances", "poly", "rank", "refute", "verify")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def ipscert_bindings() -> dict:
    """(module name, attribute) -> bound object, over every ipscert module."""
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ipscert" or name.startswith("ipscert."))
            for attr, value in vars(mod).items()}


def test_tracer_resolves_its_targets():
    tracer = load_tracer()
    assert tracer._replacements()
    for cls, attr, _name, _after in tracer._methods():
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"


def test_tracer_wraps_every_target_where_it_is_bound_and_restores_it():
    # A target bound nowhere would read 0 in every traced run, silently.
    for name in MODULES:
        importlib.import_module(f"ipscert.{name}")
    tracer = load_tracer()
    targets = [original for original, _ in tracer._replacements().values()]
    before = ipscert_bindings()
    methods = {(cls, attr): cls.__dict__[attr] for cls, attr, _, _ in tracer._methods()}
    tracer.install()
    try:
        during = ipscert_bindings()
        for fn in targets:
            bound = [key for key, value in before.items() if value is fn]
            assert bound, f"{fn.__module__}.{fn.__qualname__} is bound in no ipscert module"
            for key in bound:
                assert during[key] is not fn, f"{'.'.join(key)} was not wrapped"

        # Imported after install(), so verify_pit is the traced binding.
        from ipscert.refute import assemble_refutation
        from ipscert.circuit import cvar
        from ipscert.poly import Var
        from ipscert.verify import PitConfig, verify_pit

        cert = assemble_refutation(cvar(Var("x", 1)))
        tracer.current_op = 0
        assert verify_pit(cert, PitConfig(trials=3)).ok
        calls, _, _ = tracer.summary()
        assert calls["verify.verify_pit"] == 1
        assert calls["circuit.compiled_eval"] == 1
        assert tracer.counters["verify.verify_pit.evaluations"] == 2 * len(cert.axioms) * 3
    finally:
        tracer.uninstall()
    after = ipscert_bindings()
    assert all(after[key] is value for key, value in before.items())
    assert all(cls.__dict__[attr] is raw for (cls, attr), raw in methods.items())
