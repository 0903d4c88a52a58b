"""qndsim: heterodyne non-demolition probing of cold atoms in a ring cavity.

Subpackages model the folded cavity (cavity), the crossed dipole trap
(trap), the modulation/detection chain (heterodyne), collective-spin
dynamics (atoms), and simulated experiments with fitting (harness).
The command line entry point lives in qndsim.cli.
"""

from . import atoms, cavity, constants, errors, harness, heterodyne, trap

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
