"""Resource caps for the dense simulator and the exact enumerators.

Defaults are desk-scale; a caller raises one through the matching argument
(``n_max=``, ``q_max=``) or CLI flag (``--n-max``, ``--q-max``). Whatever the
caps, a dense allocation whose estimated peak exceeds physical memory is
refused before anything is allocated.

The clause routes and the Monte Carlo sample default live here too, so that
the CLI can list them without loading ``analytic``, which re-exports them.
"""

from __future__ import annotations

import os

N_MAX_DEFAULT = 24
Q_MAX_DEFAULT = 26
BRUTE_FORCE_N_MAX_DEFAULT = 28

#: Clause routes: every clause exact, Monte Carlo above the support cap, or all Monte Carlo.
MODES = ("exact", "auto", "mc")

#: Samples of a Monte Carlo clause term unless a caller asks for others.
MC_SAMPLES = 100_000


class MemoryCapError(ValueError):
    """A run's estimated peak memory exceeds the machine's physical memory."""


def require_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, a run estimated to hold ``nbytes`` at its peak."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        raise MemoryCapError(
            f"{what} needs about {nbytes} bytes at its peak, more than the {physical} bytes of physical memory"
        )
