"""The exported names: every one resolves, and the retired ones are gone."""

import importlib

import pytest

import rectconv

MODULES = ["edge", "ensemble", "experiments", "freeconv", "quantiles", "spectrum", "stieltjes"]

REMOVED = {
    "RegularityReport": "spectrum",
    "regularity_check": "spectrum",
    "spectrum_to_text": "spectrum",
    "spectrum_to_json": "spectrum",
    "spectrum_from_json": "spectrum",
    "empirical_stieltjes": "ensemble",
    "write_trial": "ensemble",
    "read_trial": "ensemble",
    "scan_to_json": "freeconv",
}


@pytest.mark.parametrize("name", ["rectconv"] + [f"rectconv.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    for attr in exported:
        assert hasattr(module, attr), f"{name}.{attr}"


def test_removed_names_not_exported():
    for attr, home in REMOVED.items():
        module = importlib.import_module(f"rectconv.{home}")
        assert attr not in rectconv.__all__ and not hasattr(rectconv, attr)
        assert attr not in getattr(module, "__all__", []) and not hasattr(module, attr)
