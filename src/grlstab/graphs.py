"""Graph topology, 1-hop receptive fields, and sparsity statistics.

The receptive field of vertex i is the index set Xi(i) whose features feed
the prediction at i. Fields must contain their own vertex and be symmetric
(j in Xi(i) iff i in Xi(j)). The normalized sparsity d_i = |Xi(i)| / N and
its aggregates drive every bound computed elsewhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .seeding import child_rng


class GraphError(ValueError):
    """Invalid graph or receptive-field construction."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with a dense boolean adjacency matrix.

    Intended for desk scale (N up to a few thousand); no sparse storage.
    Immutable after construction.
    """

    n: int
    edges: frozenset  # frozenset of (i, j) tuples with i < j
    adjacency: np.ndarray  # (n, n) bool, symmetric, zero diagonal


@dataclass(frozen=True, eq=False)
class ReceptiveFieldMap:
    """Receptive fields Xi(i) with cardinalities and sparsity statistics.

    ``d`` holds d_i = |Xi(i)| / N, ``d_bar`` the sum of the d_i, and
    ``sup_d`` their maximum. ``d_bar == 1`` exactly when every field is
    the singleton {i} (the independent reduction).
    """

    n: int
    xi: tuple  # tuple of sorted index tuples, xi[i] = sorted members of Xi(i)
    sizes: np.ndarray  # (n,) int, |Xi(i)|
    d: np.ndarray  # (n,) float, sizes / n
    d_bar: float
    sup_d: float

    @functools.cached_property
    def size_groups(self) -> tuple:
        """(vertices, members) int arrays per field size, members[r] = xi[vertices[r]]."""
        groups = []
        # not np.unique: it imports numpy.ma, about 1 MB of resident memory
        for size in sorted(set(self.sizes.tolist())):
            vertices = np.flatnonzero(self.sizes == size)
            members = np.array([self.xi[i] for i in vertices.tolist()], dtype=np.intp)
            vertices.flags.writeable = members.flags.writeable = False  # shared by callers
            groups.append((vertices, members))
        return tuple(groups)

    def outside(self, i: int) -> np.ndarray:
        """Vertices j with j not in Xi(i)."""
        inside = np.zeros(self.n, dtype=bool)
        inside[list(self.xi[i])] = True
        return np.nonzero(~inside)[0]


def build_graph(n: int, edges) -> Graph:
    """Build a validated Graph from a vertex count and an edge pair list.

    Pairs are deduplicated and symmetrized; self loops and out-of-range
    indices are rejected.
    """
    if n < 1:
        raise GraphError(f"vertex count must be >= 1, got {n}")
    canonical = set()
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise GraphError(f"self loop at vertex {i} not allowed")
        canonical.add((min(i, j), max(i, j)))
    adjacency = np.zeros((n, n), dtype=bool)
    for i, j in canonical:
        adjacency[i, j] = True
        adjacency[j, i] = True
    return Graph(n=n, edges=frozenset(canonical), adjacency=adjacency)


def one_hop_receptive_fields(g: Graph) -> ReceptiveFieldMap:
    """Xi(i) = {i} union neighbors(i), the 1-hop construction."""
    xi = []
    for i in range(g.n):
        members = set(np.nonzero(g.adjacency[i])[0].tolist())
        members.add(i)
        xi.append(tuple(sorted(members)))
    return receptive_fields_from_map(g.n, xi)


def receptive_fields_from_map(n: int, xi) -> ReceptiveFieldMap:
    """Validated constructor for an explicit receptive-field map.

    Checks self-inclusion (i in Xi(i)) and symmetry (j in Xi(i) iff
    i in Xi(j)); ``one_hop_receptive_fields`` builds its maps through it.
    """
    if len(xi) != n:
        raise GraphError(f"expected {n} fields, got {len(xi)}")
    xi = tuple(tuple(sorted(set(int(j) for j in members))) for members in xi)
    for i, members in enumerate(xi):
        if any(j < 0 or j >= n for j in members):
            raise GraphError(f"field of vertex {i} has out-of-range members")
        if i not in members:
            raise GraphError(f"vertex {i} missing from its own receptive field")
        for j in members:
            if i not in xi[j]:
                raise GraphError(f"field symmetry violated for pair ({i}, {j})")
    sizes = np.array([len(members) for members in xi], dtype=int)
    d = sizes / float(n)
    return ReceptiveFieldMap(
        n=n, xi=xi, sizes=sizes, d=d, d_bar=float(d.sum()), sup_d=float(d.max())
    )


def mask_from_fields(rf: ReceptiveFieldMap) -> np.ndarray:
    """Boolean support mask with (i, j) allowed iff j in Xi(i)."""
    mask = np.zeros((rf.n, rf.n), dtype=bool)
    for i in range(rf.n):
        mask[i, list(rf.xi[i])] = True
    return mask


# ---------------------------------------------------------------------------
# Generators


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return build_graph(n, [(0, i) for i in range(1, n)])


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with edges drawn from the stream (seed, "erdos-renyi")."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = child_rng(seed, "erdos-renyi")
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return build_graph(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))


GENERATORS = {
    "empty": empty_graph,
    "complete": complete_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
}


# ---------------------------------------------------------------------------
# Edge-list text format: one "i j" pair per line, 0-indexed, blank lines ignored.


def parse_edge_list(text: str):
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'i j', got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return edges


def read_edge_list(path, n: int) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return build_graph(n, parse_edge_list(fh.read()))
