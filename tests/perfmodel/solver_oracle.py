"""The per-scenario solve loop: the oracle for the batched solver.

:func:`repro.perfmodel.solve_colocation_many` sends more than one
scenario through the batched solver.  The loop below — one scalar
fixed point per scenario — is what it must reproduce bit for bit; the
differential tests compare against it.
"""

from __future__ import annotations

from repro.perfmodel import solve_colocation


def solve_many_scalar(machine, scenarios):
    """One :func:`solve_colocation` per scenario, in order."""
    return [solve_colocation(machine, list(instances)) for instances in scenarios]
