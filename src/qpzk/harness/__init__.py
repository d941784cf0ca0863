"""Configuration, seeded experiment orchestration, result persistence.

Importing the package loads no submodule: each name below loads its
submodule on first access. A run loads the runner of its kind alone, from
`qpzk.harness.kinds`."""

import importlib

_NAMES = {
    "config": ("EXPERIMENT_KINDS", "ExperimentConfig", "config_from_dict", "load_config"),
    "experiments": ("run_experiment",),
    "records": ("ExperimentRecord", "MetricRow", "load_record", "save_record"),
    "report": ("report",),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name == _HOME[name]:
        # Loading `report` bound its submodule here; the package name is the function.
        globals()[name] = value
    return value
