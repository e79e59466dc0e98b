"""Reads of a :class:`LocalModuleState` table for the swap tests."""

from __future__ import annotations

import numpy as np


def table_row(state, mod_id: int) -> tuple[float, float, int]:
    """``(exit, sum_p, members)`` of *mod_id* in the state's table.

    Raises :class:`KeyError` when the table does not hold *mod_id*.
    """
    t = state.table_arrays()
    i = int(np.searchsorted(t.mod_ids, mod_id))
    if i == t.mod_ids.size or t.mod_ids[i] != mod_id:
        raise KeyError(mod_id)
    return float(t.exit[i]), float(t.sum_p[i]), int(t.members[i])

