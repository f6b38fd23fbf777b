"""Reference arithmetic on raw coset tables, independent of covertower.

A raw table is a sequence of rows, ``rows[c][j]`` being the coset reached
from ``c`` by generator j+1, together with a basepoint.  Nothing here calls
the package, so a reference built from these helpers does not go through
the ``Subgroup`` constructor it is meant to check.
"""

from collections import deque
from itertools import permutations, product
from math import lcm


def alphabet(k):
    """BFS scan order x1, x1^-1, x2, x2^-1, ..."""
    return tuple(x for j in range(1, k + 1) for x in (j, -j))


def inverse_rows(rows):
    inv = [[0] * len(rows[0]) for _ in rows]
    for c, row in enumerate(rows):
        for j, d in enumerate(row):
            inv[d][j] = c
    return inv


def walk(rows, inv, c, w):
    for x in w:
        c = rows[c][x - 1] if x > 0 else inv[c][-x - 1]
    return c


def schreier_edge_ids(rows):
    """``ids[c][j]`` for a canonical table: 0 if the edge from coset c along
    generator j+1 is in the BFS tree from coset 0 (scanning x1, x1^-1, x2,
    ...), else i+1 for the i-th non-tree edge in (c, j) order."""
    k = len(rows[0])
    inv = inverse_rows(rows)
    tree, seen, queue = set(), {0}, deque([0])
    while queue:
        c = queue.popleft()
        for letter in alphabet(k):
            d = walk(rows, inv, c, (letter,))
            if d not in seen:
                seen.add(d)
                queue.append(d)
                # The tree edge in positive form: c.x = d, or d.x = c.
                tree.add((c, letter - 1) if letter > 0 else (d, -letter - 1))
    ids, count = [], 0
    for c in range(len(rows)):
        row = []
        for j in range(k):
            if (c, j) in tree:
                row.append(0)
            else:
                count += 1
                row.append(count)
        ids.append(row)
    return ids


def bfs_canonical(rows, basepoint):
    """Relabel by BFS from the basepoint, then rebuild the table."""
    k = len(rows[0])
    inv = inverse_rows(rows)
    order = [basepoint]
    label = {basepoint: 0}
    queue = deque([basepoint])
    while queue:
        c = queue.popleft()
        for letter in alphabet(k):
            d = walk(rows, inv, c, (letter,))
            if d not in label:
                label[d] = len(order)
                order.append(d)
                queue.append(d)
    return tuple(tuple(label[rows[old][j]] for j in range(k)) for old in order)


def transitive_tables(k, relators, max_index):
    """Canonical tables of all subgroups of index <= max_index, by brute force.

    Every k-tuple of permutations of {0..n-1} that is transitive and satisfies
    the relators is relabelled by BFS from 0; the distinct results are sorted
    by (index, table).
    """
    found = set()
    for n in range(1, max_index + 1):
        for perms in product(permutations(range(n)), repeat=k):
            rows = tuple(tuple(p[c] for p in perms) for c in range(n))
            inv = inverse_rows(rows)
            if all(walk(rows, inv, c, r) == c for r in relators for c in range(n)):
                table = bfs_canonical(rows, 0)
                if len(table) == n:
                    found.add(table)
    return sorted(found, key=lambda t: (len(t), t))


def sym_kernel_intersection(k, relators, n):
    """Canonical table of the intersection of the kernels of every
    homomorphism from <x1..xk | relators> to Sym(n), by brute force.

    Every k-tuple of permutations that satisfies the relators is a
    homomorphism.  A group element acts on the tuple of its images under all
    of them at once; the intersection of the kernels is the stabilizer of the
    all-identity tuple, so its cosets are the orbit of that tuple.
    """
    homs = []
    for perms in product(permutations(range(n)), repeat=k):
        rows = tuple(tuple(p[c] for p in perms) for c in range(n))
        inv = inverse_rows(rows)
        if all(walk(rows, inv, c, r) == c for r in relators for c in range(n)):
            homs.append((rows, inv))

    def act(state, letter):
        return tuple(
            tuple(walk(rows, inv, c, (letter,)) for c in image)
            for (rows, inv), image in zip(homs, state)
        )

    identity = tuple(tuple(range(n)) for _ in homs)
    label = {identity: 0}
    order = [identity]
    for state in order:  # grows while it is walked
        for letter in alphabet(k):
            nxt = act(state, letter)
            if nxt not in label:
                label[nxt] = len(order)
                order.append(nxt)
    table = tuple(
        tuple(label[act(state, j)] for j in range(1, k + 1)) for state in order
    )
    return bfs_canonical(table, 0)


def homology_table(k, n):
    """Canonical table of the mod-n homology cover of a surface with k
    generators, by the base-n walk: H1 (x) Z/n is (Z/n)^k, coded in base n,
    and generator j adds 1 to digit j."""
    powers = [n**j for j in range(k)]
    rows = []
    for c in range(n**k):
        row = []
        for j in range(k):
            digit = (c // powers[j]) % n
            row.append(c + (((digit + 1) % n) - digit) * powers[j])
        rows.append(tuple(row))
    return bfs_canonical(rows, 0)


def mod_two_kernel_table(k, relators):
    """Canonical table of the kernel of <x1..xk | relators> -> H1 (x) Z/2, by
    the F2 walk: a word's coset is its exponent-parity row, a bit per
    generator, reduced modulo an echelon basis of the relators' rows."""
    basis = []  # (leading bit, row), leading bits decreasing

    def reduce(v):
        for lead, row in basis:
            if v >> lead & 1:
                v ^= row
        return v

    for r in relators:
        v = 0
        for x in r:
            v ^= 1 << (abs(x) - 1)
        v = reduce(v)
        if v:
            basis = sorted(basis + [(v.bit_length() - 1, v)], reverse=True)
    label = {0: 0}
    order = [0]
    rows = []
    for v in order:  # grows while it is walked
        row = []
        for j in range(k):
            w = reduce(v ^ (1 << j))
            if w not in label:
                label[w] = len(order)
                order.append(w)
            row.append(label[w])
        rows.append(tuple(row))
    return bfs_canonical(rows, 0)


def abelian_kernel_table(k, relators, n):
    """Canonical table of the kernel of <x1..xk | relators> -> H1 (x) Z/n, by
    brute force over (Z/n)^k: a coset is the least vector of its class
    modulo the span of the relators' exponent rows, and generator j adds 1
    to coordinate j."""
    span = {(0,) * k}
    for r in relators:  # the span so far plus every multiple of the new row
        row = [0] * k
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        span = {tuple((a + m * b) % n for a, b in zip(v, row)) for v in span for m in range(n)}

    def rep(v):
        return min(tuple((a + b) % n for a, b in zip(v, r)) for r in span)

    def step(v, j):
        return rep(tuple((a + (i == j)) % n for i, a in enumerate(v)))

    zero = (0,) * k
    label = {zero: 0}
    order = [zero]
    for v in order:  # grows while it is walked
        for j in range(k):
            w = step(v, j)
            if w not in label:
                label[w] = len(order)
                order.append(w)
    rows = tuple(tuple(label[step(v, j)] for j in range(k)) for v in order)
    return bfs_canonical(rows, 0)


def deck_group_by_bfs(rows):
    """Order, abelian flag and exponent of the group that the generators'
    columns of a normal subgroup's table generate, found by breadth-first
    search over permutation tuples; element orders by repeated products."""
    n = len(rows)
    gens = [tuple(row[j] for row in rows) for j in range(len(rows[0]))]

    def mul(p, q):
        return tuple(q[p[i]] for i in range(n))

    identity = tuple(range(n))
    elements = {identity}
    queue = deque([identity])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = mul(p, g)
            if q not in elements:
                elements.add(q)
                queue.append(q)
    abelian = all(mul(a, b) == mul(b, a) for a in gens for b in gens)
    exponent = 1
    for p in elements:
        order, q = 1, p
        while q != identity:
            order, q = order + 1, mul(q, p)
        exponent = lcm(exponent, order)
    return len(elements), abelian, exponent
