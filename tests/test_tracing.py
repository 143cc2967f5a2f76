"""The benchmark tracer's span names still name code in cupgeo.

``perfbench/tracing.py`` skips a listed name that no longer resolves and only
reports it under ``missing``, so a refactor that renames a check or a
geometry stage would silently drop its span from every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _listed_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, member) for layer in ("verify", "geometry")
            for member in tracing._METHODS[layer]]


@pytest.mark.parametrize("layer, member", _listed_names(), ids=lambda v: v)
def test_a_traced_name_resolves(layer, member):
    module = importlib.import_module(f"cupgeo.{layer}")
    owner, _, attr = member.rpartition(".")
    if owner:
        cls = vars(module).get(owner)
        assert isinstance(cls, type) and attr in vars(cls), f"{layer}.{member}"
    else:
        assert callable(vars(module).get(attr)), f"{layer}.{member}"
