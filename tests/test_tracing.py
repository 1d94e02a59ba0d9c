"""The benchmark's tracer (perfbench/tracing.py) still finds every package
function it wraps, and puts each one back."""

import importlib.util
import sys
from pathlib import Path

import mi_decode  # noqa: F401  (loads every module the tracer wraps)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _target(mod_name, attr):
    """The object a tracer target names, as its owner holds it now."""
    owner = sys.modules[f"mi_decode.{mod_name}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth]
    return getattr(owner, attr)


def _module_attrs():
    return {(name, key): value
            for name, mod in list(sys.modules.items())
            if name == "mi_decode" or name.startswith("mi_decode.")
            for key, value in vars(mod).items()}


def test_tracer_wraps_every_target_and_restores_it(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    originals = {(m, a): _target(m, a) for m, a, _, _ in tracing.TARGETS}
    before = _module_attrs()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod_name, attr), orig in originals.items():
            wrapped = _target(mod_name, attr)
            assert wrapped is not orig, f"{mod_name}.{attr} is not wrapped"
            assert wrapped.__wrapped__ is orig
    finally:
        tracer.uninstall()
    for (mod_name, attr), orig in originals.items():
        assert _target(mod_name, attr) is orig, f"{mod_name}.{attr} not restored"
    after = _module_attrs()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
