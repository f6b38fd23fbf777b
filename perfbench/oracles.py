"""Independent oracles for the benchmark's output checks.

Standard library only; nothing here imports covertower, so a defect in
the package cannot hide itself by also breaking its check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _character_degree(shape: tuple[int, ...]) -> int:
    """Hook length formula for the irreducible character of Sym(n)."""
    n = sum(shape)
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (columns[j] - i - 1) + 1
    return factorial(n) // hooks


def surface_hom_count(genus: int, n: int) -> int:
    """|Hom(pi_1 of the closed genus-g surface, Sym(n))| (Frobenius-Mednykh)."""
    order = factorial(n)
    total = sum(
        Fraction(order, _character_degree(shape)) ** (2 * genus - 2)
        for shape in _partitions(n)
    )
    count = order * total
    assert count.denominator == 1
    return int(count)


def subgroup_counts(genus: int, max_index: int) -> dict[int, int]:
    """Subgroups of each index <= max_index, by Hall's recurrence."""
    homs = [surface_hom_count(genus, n) if n else 1 for n in range(max_index + 1)]
    transitive = [0] * (max_index + 1)
    counts = {}
    for n in range(1, max_index + 1):
        transitive[n] = homs[n] - sum(
            comb(n - 1, k - 1) * transitive[k] * homs[n - k] for k in range(1, n)
        )
        counts[n] = transitive[n] // factorial(n - 1)
    return counts


def surface_relator(genus: int) -> tuple[int, ...]:
    """[x1, x2][x3, x4]...: the relator of the standard presentation."""
    out: list[int] = []
    for h in range(genus):
        a, b = 2 * h + 1, 2 * h + 2
        out.extend((a, b, -a, -b))
    return tuple(out)


def inverse_columns(table) -> list[list[int]]:
    k = len(table[0])
    inv = [[0] * len(table) for _ in range(k)]
    for c, row in enumerate(table):
        for j, d in enumerate(row):
            inv[j][d] = c
    return inv


def walk(table, inverse, start: int, word) -> int:
    """Coset reached from ``start`` along ``word`` (letter j acts by column j-1)."""
    c = start
    for x in word:
        c = table[c][x - 1] if x > 0 else inverse[-x - 1][c]
    return c


def table_problems(table, genus: int, basepoint: int) -> list[str]:
    """Reasons a raw table is not a canonical coset table of the surface group."""
    n = len(table)
    k = 2 * genus
    if n == 0 or any(len(row) != k for row in table):
        return ["ragged or empty table"]
    for j in range(k):
        if sorted(row[j] for row in table) != list(range(n)):
            return [f"column {j + 1} is not a permutation"]
    inverse = inverse_columns(table)
    problems = []
    relator = surface_relator(genus)
    if any(walk(table, inverse, c, relator) != c for c in range(n)):
        problems.append("relator acts nontrivially")
    # Canonical form: BFS from the basepoint over x1, x1^-1, x2, ... visits
    # the cosets in the order 0, 1, 2, ...
    order = [basepoint]
    seen = {basepoint}
    for c in order:
        for j in range(k):
            for d in (table[c][j], inverse[j][c]):
                if d not in seen:
                    seen.add(d)
                    order.append(d)
    if len(order) != n:
        problems.append("not transitive")
    elif order != list(range(n)) or basepoint != 0:
        problems.append("not in BFS-canonical order")
    return problems


def homology_member(word, n: int, generators: int) -> bool:
    """Membership in the mod-n homology kernel: every exponent sum is 0 mod n."""
    sums = [0] * generators
    for x in word:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return all(s % n == 0 for s in sums)


def mumford_exponent(m: int) -> int:
    return 6 * m * m - 6 * m + 1


def mobius_act_exact(entries, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    """(a tau + b)/(c tau + d) for tau = x + iy, in exact rational arithmetic."""
    (a, b), (c, d) = entries
    den = (c * x + d) ** 2 + (c * y) ** 2
    real = ((a * x + b) * (c * x + d) + a * c * y * y) / den
    imag = y * (a * d - b * c) / den
    return real, imag


def mat_mul(m, n):
    return tuple(
        tuple(sum(m[i][t] * n[t][j] for t in range(2)) for j in range(2))
        for i in range(2)
    )
