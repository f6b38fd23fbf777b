"""Low-index subgroup enumeration by backtracking over partial coset tables.

The search fills table cells in the fixed scan order (coset, then alphabet
position x1, x1^-1, x2, x2^-1, ...), always branching on the first
undefined cell and introducing fresh cosets in increasing order.  A
completed table is therefore automatically in BFS-canonical form, so every
subgroup of index <= max_index is produced exactly once, with no conjugacy
collapsing.  Relator scans after each assignment force deductions and prune
dead branches early.
"""

from __future__ import annotations

from typing import Optional

from .config import DEFAULT_CONFIG, RunConfig
from .cosets import Subgroup
from .errors import BudgetExceeded
from .words import Presentation


def _letter(col: int) -> int:
    """Alphabet position -> signed letter (0 -> +1, 1 -> -1, 2 -> +2, ...)."""
    j = col // 2 + 1
    return j if col % 2 == 0 else -j


def _col(letter: int) -> int:
    return (letter - 1) * 2 if letter > 0 else (-letter - 1) * 2 + 1


def low_index_subgroups(
    pres: Presentation,
    max_index: int,
    config: Optional[RunConfig] = None,
) -> list[Subgroup]:
    """All subgroups of index <= max_index, sorted by (index, table)."""
    cfg = config or DEFAULT_CONFIG
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    if max_index > cfg.max_index:
        raise BudgetExceeded(
            f"max_index {max_index} above configured cap {cfg.max_index}"
        )
    k = pres.generator_count
    width = 2 * k
    relators = [tuple(r) for r in pres.relators]
    tab = [[-1] * width for _ in range(max_index)]
    state = {"n": 1, "nodes": 0}
    results: list[Subgroup] = []

    def assign(c: int, col: int, d: int, trail: list[tuple[int, int]]) -> bool:
        """Define cell (c, col) = d together with its mirror; False on clash."""
        cur = tab[c][col]
        if cur != -1:
            return cur == d
        mirror = tab[d][col ^ 1]
        if mirror != -1 and mirror != c:
            return False
        tab[c][col] = d
        trail.append((c, col))
        if tab[d][col ^ 1] == -1:
            tab[d][col ^ 1] = c
            trail.append((d, col ^ 1))
        return True

    def scan_relators(trail: list[tuple[int, int]]) -> bool:
        """Trace every relator at every coset, deducing forced cells."""
        changed = True
        while changed:
            changed = False
            for r in relators:
                length = len(r)
                for c in range(state["n"]):
                    # Forward from the start.
                    f, cf = 0, c
                    while f < length:
                        nxt = tab[cf][_col(r[f])]
                        if nxt == -1:
                            break
                        cf = nxt
                        f += 1
                    # Backward from the end.
                    b, cb = length, c
                    while b > f:
                        prev = tab[cb][_col(-r[b - 1])]
                        if prev == -1:
                            break
                        cb = prev
                        b -= 1
                    if f == b:
                        if cf != cb:
                            return False
                    elif f + 1 == b:
                        before = len(trail)
                        if not assign(cf, _col(r[f]), cb, trail):
                            return False
                        if len(trail) > before:
                            changed = True
        return True

    def first_undefined() -> Optional[tuple[int, int]]:
        for c in range(state["n"]):
            for col in range(width):
                if tab[c][col] == -1:
                    return c, col
        return None

    def dfs() -> None:
        cell = first_undefined()
        if cell is None:
            n = state["n"]
            table = tuple(
                tuple(tab[c][_col(j)] for j in range(1, k + 1)) for c in range(n)
            )
            results.append(Subgroup(pres, table))
            return
        c, col = cell
        limit = state["n"] + (1 if state["n"] < max_index else 0)
        for d in range(limit):
            state["nodes"] += 1
            if state["nodes"] > cfg.max_search_nodes:
                raise BudgetExceeded(
                    f"enumeration exceeded {cfg.max_search_nodes} nodes"
                )
            grew = d == state["n"]
            if grew:
                state["n"] += 1
            trail: list[tuple[int, int]] = []
            if assign(c, col, d, trail) and scan_relators(trail):
                dfs()
            for cc, ccol in reversed(trail):
                tab[cc][ccol] = -1
            if grew:
                state["n"] -= 1

    dfs()
    results.sort(key=lambda s: (s.index, s.table))
    return results
