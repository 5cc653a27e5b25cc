"""Resource caps for the dense simulator and the exact enumerators.

Defaults are desk-scale and can be raised through environment variables:
``E3LIN2_NMAX`` caps the statevector qubit count, ``E3LIN2_QMAX`` caps the
support size for exact neighborhood enumeration. Whatever the caps, a dense
allocation whose estimated peak exceeds physical memory is refused before
anything is allocated.
"""

from __future__ import annotations

import os

N_MAX_DEFAULT = 24
Q_MAX_DEFAULT = 26
BRUTE_FORCE_N_MAX_DEFAULT = 28


class MemoryCapError(ValueError):
    """A run's estimated peak memory exceeds the machine's physical memory."""


def require_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, a run estimated to hold ``nbytes`` at its peak."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        raise MemoryCapError(
            f"{what} needs about {nbytes} bytes at its peak, more than the {physical} bytes of physical memory"
        )


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def default_n_max() -> int:
    return _env_int("E3LIN2_NMAX", N_MAX_DEFAULT)


def default_q_max() -> int:
    return _env_int("E3LIN2_QMAX", Q_MAX_DEFAULT)


def default_brute_force_n_max() -> int:
    return _env_int("E3LIN2_BRUTE_NMAX", BRUTE_FORCE_N_MAX_DEFAULT)
