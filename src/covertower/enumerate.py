"""Low-index subgroup enumeration by backtracking over partial coset tables.

The search fills table cells in the fixed scan order (coset, then alphabet
position x1, x1^-1, x2, x2^-1, ...), always branching on the first
undefined cell and introducing fresh cosets in increasing order.  A
completed table is therefore automatically in BFS-canonical form, so every
subgroup of index <= max_index is produced exactly once, with no conjugacy
collapsing.  Each new cell goes on a deduction stack; popping it traces only
the relator cycles that start with that cell, which forces further cells
and prunes dead branches early.  A first-undefined pointer passed down the
search only moves forward along a branch.  A complete table has had every
relator cycle traced through every cell, so it is relator-closed as well as
canonical and transitive, and it is built by ``Subgroup._trusted``
without a second check.  Each subgroup is handed on as
the search completes it; ``low_index_subgroups`` collects and sorts them.
Tables share their rows: one search passes every completed row through one
dict, so a row that recurs across tables (genus 2 up to index 4 has 256
distinct rows among 21,791) is held once.
"""

from __future__ import annotations

from typing import Callable, Optional

from .config import DEFAULT_CONFIG, RunConfig
from .cosets import Subgroup
from .errors import BudgetExceeded
from .words import Presentation


def _col(letter: int) -> int:
    return (letter - 1) * 2 if letter > 0 else (-letter - 1) * 2 + 1


def _cycles(pres: Presentation) -> list[list[tuple[int, ...]]]:
    """Distinct cyclic conjugates of the relators and their inverses, as
    columns, bucketed by first column."""
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(2 * pres.generator_count)]
    for r in pres.relators:
        for w in (r, tuple(-x for x in reversed(r))):
            cols = [_col(x) for x in w]
            for i in range(len(cols)):
                cyc = tuple(cols[i:] + cols[:i])
                if cyc not in buckets[cyc[0]]:
                    buckets[cyc[0]].append(cyc)
    return buckets


def low_index_subgroups(
    pres: Presentation,
    max_index: int,
    config: Optional[RunConfig] = None,
) -> list[Subgroup]:
    """All subgroups of index <= max_index, sorted by (index, table)."""
    subs: list[Subgroup] = []
    _each_subgroup(pres, max_index, config or DEFAULT_CONFIG, subs.append)
    subs.sort(key=lambda s: (s.index, s.table))
    return subs


def _each_subgroup(
    pres: Presentation, max_index: int, cfg: RunConfig, emit: Callable[[Subgroup], None]
) -> None:
    """Pass every subgroup of index <= max_index to ``emit`` as the search
    completes it, each once; an exception from ``emit`` stops the search."""
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    if max_index > cfg.max_index:
        raise BudgetExceeded(
            f"max_index {max_index} above configured cap {cfg.max_index}"
        )
    width = 2 * pres.generator_count
    buckets = _cycles(pres)
    # A one-letter cycle has a gap before any of its cells is defined, so it
    # is traced when its coset gets a first cell, as a full relator scan would.
    units = [col for col in range(width) if (col,) in buckets[col]]
    tab = [-1] * (max_index * width)
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    nodes = top = found = 0

    def deduce(stack: list[tuple[int, int]], trail: list[int]) -> bool:
        """Trace the cycles through each stacked cell; False on a clash."""
        while stack:
            c, x = stack.pop()
            for cyc in buckets[x]:
                length = len(cyc)
                f, cf = 0, c
                while f < length:
                    nxt = tab[cf * width + cyc[f]]
                    if nxt < 0:
                        break
                    cf = nxt
                    f += 1
                b, cb = length, c
                while b > f:
                    prev = tab[cb * width + (cyc[b - 1] ^ 1)]
                    if prev < 0:
                        break
                    cb = prev
                    b -= 1
                if b == f:
                    if cf != cb:
                        return False
                elif b == f + 1:
                    # One gap: cf --y--> cb is forced; both cells are free.
                    y = cyc[f]
                    tab[cf * width + y] = cb
                    tab[cb * width + (y ^ 1)] = cf
                    trail += (cf * width + y, cb * width + (y ^ 1))
                    stack.append((cf, y))
        return True

    def dfs(n: int, pos: int) -> None:
        nonlocal nodes, top, found
        top = max(top, n)
        end = n * width
        while pos < end and tab[pos] >= 0:
            pos += 1
        if pos == end:
            table = []
            for c in range(n):
                row = tuple(tab[c * width : (c + 1) * width : 2])
                table.append(rows.setdefault(row, row))
            found += 1
            emit(Subgroup._trusted(pres, tuple(table)))
            return
        c, col = divmod(pos, width)
        for d in range(n + (n < max_index)):
            nodes += 1
            if nodes > cfg.max_search_nodes:
                raise BudgetExceeded(
                    f"enumeration exceeded {cfg.max_search_nodes} nodes (visited "
                    f"{cfg.max_search_nodes}, subgroups found {found}, "
                    f"largest index reached {top})"
                )
            mirror = d * width + (col ^ 1)
            if tab[mirror] >= 0:
                continue
            tab[pos] = d
            tab[mirror] = c
            trail = [pos, mirror]
            stack = [(c, col)]
            if d == n:
                stack += [(d, u) for u in units]
            if pos == 0:  # coset 0 gets its first cell at the root
                stack += [(0, u) for u in units]
            if deduce(stack, trail):
                dfs(n + (d == n), pos + 1)
            for p in trail:
                tab[p] = -1

    dfs(1, 0)
