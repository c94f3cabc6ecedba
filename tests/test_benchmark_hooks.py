"""The benchmark's tracer patches evsikit names from outside the package.

`evsibench/tracing.py` lists them in `TARGETS` and `DESIGN_TARGETS`; a
refactor that renames or removes one breaks the traced benchmark run, so
this suite checks that every one of them still exists.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from evsikit.casemodels import StudyDesign

_TRACING = Path(__file__).resolve().parents[1] / "evsibench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("evsibench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()


@pytest.mark.parametrize("module_name, attr, cls_name", [
    target[:3] for target in _tracing.TARGETS
])
def test_traced_attribute_exists(module_name, attr, cls_name):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        # the tracer patches the class's own entry, not an inherited one
        assert callable(getattr(owner, cls_name).__dict__[attr])
    else:
        assert callable(getattr(owner, attr))


def test_traced_design_fields_exist():
    fields = {f.name for f in dataclasses.fields(StudyDesign)}
    assert {field for field, _ in _tracing.DESIGN_TARGETS} <= fields
