"""Root-system identification for negative-definite sublattices of K-perp.

One lex-ordered pass finds the simple roots (v is simple iff v.s != -1 for every
simple s < v); each component graph is matched once against the ADE Dynkin shapes.
The sorted components give both the ADE label and the canonical order of the
returned simple roots, so downstream golden outputs are stable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby

from .lattice import LatticeError, PicClass, Sublattice, dot_tuples, enumerate_vectors


def lex_positive(v: PicClass) -> bool:
    """Whether the first nonzero coefficient is positive (never for zero)."""
    for c in v.coeffs:
        if c:
            return c > 0
    return False


def _simple_roots(roots: list[PicClass]) -> list[PicClass]:
    """Indecomposable positive roots of a lattice's whole root set, in one pass in lex order."""
    simple: list[PicClass] = []
    for v in sorted(filter(lex_positive, roots)):
        if all(dot_tuples(v.coeffs, s.coeffs) != -1 for s in simple):
            simple.append(v)
    return simple


def _components(nodes: list[PicClass]) -> tuple[list[list[int]], list[list[int]]]:
    """The adjacency lists of the simple system's graph and its components."""
    n = len(nodes)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = nodes[i].dot(nodes[j])
            if d not in (0, 1):
                raise LatticeError(f"not a simple system: pairing {d} between {nodes[i]} and {nodes[j]}")
            if d == 1:
                adj[i].append(j)
                adj[j].append(i)
    seen: set[int] = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        stack, comp = [i], []
        seen.add(i)
        while stack:
            k = stack.pop()
            comp.append(k)
            for j in adj[k]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return adj, comps


def _walk_arm(adj: list[list[int]], start: int, first: int) -> list[int]:
    arm = [first]
    prev, cur = start, first
    while True:
        nxt = [j for j in adj[cur] if j != prev]
        if not nxt:
            return arm
        if len(nxt) > 1:
            raise LatticeError("unsupported Dynkin shape: nested branch")
        prev, cur = cur, nxt[0]
        arm.append(cur)


def _classify_component(nodes: list[PicClass], adj: list[list[int]],
                        comp: list[int]) -> tuple[str, list[int]]:
    n = len(comp)
    if n == 1:
        return "A1", comp
    degrees = {i: len(adj[i]) for i in comp}
    deg3 = [i for i in comp if degrees[i] == 3]
    if any(degrees[i] > 3 for i in comp) or len(deg3) > 1:
        return "unknown", comp
    if not deg3:
        ends = [i for i in comp if degrees[i] == 1]
        if len(ends) != 2:
            return "unknown", comp
        paths = [[e] + _walk_arm(adj, e, adj[e][0]) for e in ends]
        ordered = min(paths, key=lambda p: [nodes[i].coeffs for i in p])
        return f"A{n}", ordered
    center = deg3[0]
    arms = [_walk_arm(adj, center, j) for j in adj[center]]
    arms.sort(key=lambda a: (len(a), [nodes[i].coeffs for i in a]))
    lens = [len(a) for a in arms]
    if sum(lens) + 1 != n:
        return "unknown", comp
    if lens[0] == 1 and lens[1] == 1:
        # D_n: long arm far-to-near, center, then the two short nodes.
        chain = arms[2][::-1] + [center, arms[0][0]]
        return f"D{n}", chain + [arms[1][0]]
    if lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
        chain = arms[1][::-1] + [center] + arms[2]
        return f"E{n}", chain + [arms[0][0]]
    return "unknown", comp


@lru_cache(maxsize=None)
def identify(lat: Sublattice) -> tuple[str, tuple[PicClass, ...]]:
    """ADE label of the root system of lat and its canonical simple system: the
    components sorted by rank (descending), label and roots, each in Dynkin order.
    Memoized on the lattice: the class lattices and their complements repeat."""
    simple = _simple_roots(enumerate_vectors(lat, -2))
    blocks = []
    adj, comps = _components(simple)
    for comp in comps:
        label, order = _classify_component(simple, adj, comp)
        blocks.append((label, [simple[i] for i in order]))
    blocks.sort(key=lambda b: (-len(b[1]), b[0], [v.coeffs for v in b[1]]))
    ordered = tuple(v for _, vs in blocks for v in vs)
    labels = [label for label, _ in blocks]
    if "unknown" in labels:
        return "unknown", ordered
    runs = [(label, len(list(run))) for label, run in groupby(labels)]
    return "+".join(f"{n}{label}" if n > 1 else label for label, n in runs) or "0", ordered


def root_system_type(lat: Sublattice) -> str:
    """ADE label of the root set of lat ("0" if rootless, "unknown" if not ADE)."""
    return identify(lat)[0]


def cartan_gram(label: str) -> tuple[tuple[int, ...], ...]:
    """Negated Cartan matrix (diag -2, bonds +1) in this module's canonical node order."""
    sizes = []
    for part in label.split("+") if label not in ("0", "") else []:
        mult = 1
        while part[0].isdigit():
            mult = int(part[0])
            part = part[1:]
        sizes.extend([part] * mult)
    edges: list[tuple[int, int]] = []
    offset = 0
    total = 0
    for part in sizes:
        n = int(part[1:])
        total += n
        if part[0] == "A":
            edges += [(offset + i, offset + i + 1) for i in range(n - 1)]
        elif part[0] == "D":
            edges += [(offset + i, offset + i + 1) for i in range(n - 2)]
            edges.append((offset + n - 3, offset + n - 1))
        elif part[0] == "E":
            edges += [(offset + i, offset + i + 1) for i in range(n - 2)]
            edges.append((offset + 2, offset + n - 1))
        else:
            raise LatticeError(f"unsupported label {label}")
        offset += n
    g = [[0] * total for _ in range(total)]
    for i in range(total):
        g[i][i] = -2
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    return tuple(tuple(row) for row in g)
