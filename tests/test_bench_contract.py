"""The benchmark's trace mode patches nrabi names; each of them must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

MODULES = {name: importlib.import_module(f"nrabi.{name}") for name in {p[0] for p in tracer.PATCHES}}


@pytest.mark.parametrize(
    "module, attr", [p[:2] for p in tracer.PATCHES], ids=[f"{p[0]}.{p[1]}" for p in tracer.PATCHES]
)
def test_patched_name_exists(module, attr):
    assert callable(getattr(MODULES[module], attr, None)), f"nrabi.{module} has no {attr}"


def test_install_and_uninstall_restore_every_name():
    before = {(m, a): getattr(MODULES[m], a) for m, a, *_ in tracer.PATCHES}
    tr = tracer.Tracer(MODULES)
    tr.install()
    try:
        assert all(getattr(MODULES[m], a) is not fn for (m, a), fn in before.items())
    finally:
        tr.uninstall()
    assert all(getattr(MODULES[m], a) is fn for (m, a), fn in before.items())
