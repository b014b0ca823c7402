"""Seeded corpus of gem files for the analyze-files workload.

Every file comes with its expected answers, computed here without gemtk:

* random connected 3-colored graphs (every one encodes a closed surface);
  chi is counted from bicolored cycles and orientability is bipartiteness,
  so the homology follows from the classification of surfaces;
* graph connected sums of the small gems in ``gems/`` (S3, RP3, L(3,1) and
  S4); H1 of a connected sum is the direct sum of the summands' H1.

The composition of the corpus (sizes and summand counts) is fixed, so every
seed gives the same amount of work; the seed chooses the random matchings,
the order of the summands, the vertices the sums join at, and the labels of
each file's relabeled twin.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

GEM_DIR = Path(__file__).resolve().parent / "gems"

# summand name -> (file, H1 torsion as prime powers); all four are orientable
SUMMANDS = {
    "s3": ("s3.gem", ()),
    "rp3": ("rp3.gem", (2,)),
    "l31": ("l31.gem", (3,)),
    "s4": ("s4.gem", ()),
}

# (name, p, orientable) for the random 3-colored surfaces
SURFACES = [("surf24", 24, False), ("surf96", 96, True), ("surf200", 200, False)]

# (name, {summand: count}); p = sum(p_i) - 2 * (summands - 1)
SUMS = [
    ("m3_26", {"rp3": 1, "l31": 1, "s3": 1}),
    ("m3_96", {"rp3": 5, "l31": 4, "s3": 1}),
    ("m3_200", {"rp3": 10, "l31": 9, "s3": 2}),
    ("s4_26", {"s4": 4}),
    ("s4_50", {"s4": 8}),
]


def read_gem(text: str) -> list[list[int]]:
    """Involution arrays of a gem file (no validation; trusted input)."""
    invs: list[list[int]] = []
    p = 0
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("vertices"):
            p = int(line.split()[1])
        elif line.startswith("color "):
            inv = [-1] * p
            for tok in line.split(":", 1)[1].split():
                a, b = map(int, tok.split("-"))
                inv[a] = b
                inv[b] = a
            invs.append(inv)
    return invs


def format_gem(invs: list[list[int]]) -> str:
    """The gem file text with sorted pairs, the form gemtk's writer produces."""
    p = len(invs[0])
    lines = ["gem 1", f"colors {len(invs)}", f"vertices {p}"]
    for c, inv in enumerate(invs):
        pairs = " ".join(f"{v}-{inv[v]}" for v in range(p) if v < inv[v])
        lines.append(f"color {c}: {pairs}")
    return "\n".join(lines) + "\n"


def relabel(invs: list[list[int]], perm: list[int]) -> list[list[int]]:
    out = []
    for inv in invs:
        row = [-1] * len(inv)
        for v, u in enumerate(inv):
            row[perm[v]] = perm[u]
        out.append(row)
    return out


def component_sizes(invs: list[list[int]], colors) -> list[int]:
    """Sizes of the connected components of the residue on ``colors``."""
    rows = [invs[c] for c in colors]
    p = len(invs[0])
    seen = bytearray(p)
    sizes = []
    for start in range(p):
        if seen[start]:
            continue
        seen[start] = 1
        stack = [start]
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for inv in rows:
                u = inv[v]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
        sizes.append(size)
    return sizes


def components(invs: list[list[int]], colors) -> int:
    return len(component_sizes(invs, colors))


def is_3manifold(invs: list[list[int]]) -> bool:
    """Connected, and g_ij + g_ik + g_jk = 2 g_ijk + p/2 for every color
    triple of a 4-colored graph."""
    p = len(invs[0])
    if len(invs) != 4 or components(invs, range(4)) != 1:
        return False
    for triple in itertools.combinations(range(4), 3):
        pairs = sum(components(invs, pair) for pair in itertools.combinations(triple, 2))
        if pairs != 2 * components(invs, triple) + p // 2:
            return False
    return True


def bipartite(invs: list[list[int]]) -> bool:
    p = len(invs[0])
    side = [-1] * p
    for start in range(p):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for inv in invs:
                u = inv[v]
                if side[u] < 0:
                    side[u] = side[v] ^ 1
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def cyclic_orders(n: int) -> list[tuple[int, ...]]:
    """One cyclic color order per rotation/reflection class, starting at 0."""
    if n < 3:
        return [tuple(range(n))]
    return sorted(
        (0,) + rest
        for rest in itertools.permutations(range(1, n))
        if rest[0] < rest[-1]
    )


def embedding_chis(invs: list[list[int]]) -> dict[tuple[int, ...], int]:
    """Euler characteristic of the regular embedding for each cyclic order."""
    n, p = len(invs), len(invs[0])
    out = {}
    for order in cyclic_orders(n):
        faces = sum(
            components(invs, (order[i], order[(i + 1) % n])) for i in range(n)
        )
        out[order] = p - n * p // 2 + faces
    return out


def invariant_factors(prime_powers) -> list[int]:
    """Invariant factors d1 | d2 | ... of a direct sum of cyclic groups of
    prime-power order."""
    by_prime: dict[int, list[int]] = {}
    for q in prime_powers:
        prime = next(d for d in range(2, q + 1) if q % d == 0)
        by_prime.setdefault(prime, []).append(q)
    for powers in by_prime.values():
        powers.sort(reverse=True)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for powers in by_prime.values():
            if i < len(powers):
                f *= powers[i]
        factors.append(f)
    return factors[::-1]


def connected_sum(a: list[list[int]], b: list[list[int]], v: int, w: int):
    """Graph connected sum: drop vertex v of a and w of b and join, color by
    color, the two vertices they were paired with."""
    pa, pb = len(a[0]), len(b[0])
    ida = [x if x < v else x - 1 for x in range(pa)]
    idb = [pa - 1 + (x if x < w else x - 1) for x in range(pb)]
    out = []
    for inv_a, inv_b in zip(a, b):
        row = [-1] * (pa + pb - 2)
        for x in range(pa):
            if x != v:
                u = inv_a[x]
                row[ida[x]] = idb[inv_b[w]] if u == v else ida[u]
        for x in range(pb):
            if x != w:
                u = inv_b[x]
                row[idb[x]] = ida[inv_a[v]] if u == w else idb[u]
        out.append(row)
    return out


def random_surface(rng: random.Random, p: int, orientable: bool):
    """A random connected 3-colored graph; bipartite when ``orientable``."""
    while True:
        invs = []
        for _ in range(3):
            inv = [-1] * p
            if orientable:
                evens = list(range(0, p, 2))
                odds = list(range(1, p, 2))
                rng.shuffle(odds)
                pairs = zip(evens, odds)
            else:
                order = list(range(p))
                rng.shuffle(order)
                pairs = zip(order[0::2], order[1::2])
            for x, y in pairs:
                inv[x] = y
                inv[y] = x
            invs.append(inv)
        if components(invs, range(3)) == 1:
            return invs


def surface_homology(chi: int, orientable: bool) -> dict:
    if orientable:
        return {"betti": [1, 2 - chi, 1], "torsion": [[], [], []]}
    return {"betti": [1, 1 - chi, 0], "torsion": [[], [2], []]}


def generate(seed: int, out_dir: Path) -> list[dict]:
    """Write the corpus for ``seed`` into ``out_dir`` and return one record per
    file: its paths and expected answers."""
    rng = random.Random(seed)
    small = {
        name: read_gem((GEM_DIR / fname).read_text(encoding="ascii"))
        for name, (fname, _) in SUMMANDS.items()
    }
    graphs = []
    for name, p, orientable in SURFACES:
        invs = random_surface(rng, p, orientable)
        chi = embedding_chis(invs)[(0, 1, 2)]
        graphs.append((name, invs, surface_homology(chi, orientable)))
    for name, counts in SUMS:
        parts = [s for s, k in sorted(counts.items()) for _ in range(k)]
        rng.shuffle(parts)
        invs = small[parts[0]]
        for part in parts[1:]:
            nxt = small[part]
            invs = connected_sum(
                invs, nxt, rng.randrange(len(invs[0])), rng.randrange(len(nxt[0]))
            )
        dim = len(invs) - 1
        torsion = [[] for _ in range(dim + 1)]
        torsion[1] = invariant_factors(q for s in parts for q in SUMMANDS[s][1])
        betti = [1] + [0] * (dim - 1) + [1]
        graphs.append((name, invs, {"betti": betti, "torsion": torsion}))

    records = []
    for name, invs, hom in graphs:
        p = len(invs[0])
        # sums keep the labels they were built with, as a program writing
        # them would; random labels would spread one file's SNF cost by 14%
        perm = list(range(p))
        rng.shuffle(perm)
        relabeled = relabel(invs, perm)
        path = out_dir / f"{name}.gem"
        twin = out_dir / f"{name}.relabeled.gem"
        path.write_text(format_gem(invs), encoding="ascii")
        twin.write_text(format_gem(relabeled), encoding="ascii")
        records.append(
            {
                "name": name,
                "path": str(path),
                "twin": str(twin),
                "colors": len(invs),
                "p": p,
                "homology": hom,
                "orientable": bipartite(invs),
                "chis": {",".join(map(str, k)): v for k, v in embedding_chis(invs).items()},
            }
        )
    return records
