"""qndsim: heterodyne non-demolition probing of cold atoms in a ring cavity.

Modules model the folded cavity (cavity), the crossed dipole trap (trap),
the modulation/detection chain (heterodyne), collective-spin dynamics
(atoms), and simulated experiments with fitting (harness). The command line
entry point lives in qndsim.cli. Each module is imported on first access,
so a run loads only the modules its scenarios use.
"""

__all__ = [
    "atoms",
    "cavity",
    "constants",
    "errors",
    "harness",
    "heterodyne",
    "trap",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
