"""Graph topology, 1-hop receptive fields, and sparsity statistics.

The receptive field of vertex i is the index set Xi(i) whose features feed
the prediction at i. Fields must contain their own vertex and be symmetric
(j in Xi(i) iff i in Xi(j)). A map keeps the boolean membership matrix it
was validated on as its read-only ``mask``, the one mask that the GNN
support, the Ising coupling and the SGD case codes read. The normalized
sparsity d_i = |Xi(i)| / N and its aggregates drive every bound computed
elsewhere.
"""

from __future__ import annotations

import functools
import itertools
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
    adjacency: np.ndarray  # (n, n) bool, symmetric, zero diagonal


@dataclass(frozen=True, eq=False)
class ReceptiveFieldMap:
    """Receptive fields Xi(i) with cardinalities and sparsity statistics.

    ``mask`` is the read-only boolean membership matrix, mask[i, j] iff j
    in Xi(i), on which the map was validated; it is symmetric with a true
    diagonal. ``d`` holds d_i = |Xi(i)| / N, ``d_bar`` the sum of the d_i,
    and ``sup_d`` their maximum. ``d_bar == 1`` exactly when every field is
    the singleton {i} (the independent reduction).
    """

    n: int
    xi: tuple  # tuple of sorted index tuples, xi[i] = sorted members of Xi(i)
    mask: np.ndarray  # (n, n) bool, read-only
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
        return np.flatnonzero(~self.mask[i])


def build_graph(n: int, edges) -> Graph:
    """Build a validated Graph from a vertex count and an edge pair list.

    Pairs are deduplicated and symmetrized; the first pair, in input order,
    that is out of range or a self loop is rejected (range checked first).
    """
    if n < 1:
        raise GraphError(f"vertex count must be >= 1, got {n}")
    pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    out_of_range = ((pairs < 0) | (pairs >= n)).any(axis=1)
    bad = np.flatnonzero(out_of_range | (pairs[:, 0] == pairs[:, 1]))
    if bad.size:
        i, j = pairs[bad[0]].tolist()
        if out_of_range[bad[0]]:
            raise GraphError(f"edge ({i}, {j}) out of range for n={n}")
        raise GraphError(f"self loop at vertex {i} not allowed")
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[pairs[:, 0], pairs[:, 1]] = adjacency[pairs[:, 1], pairs[:, 0]] = True
    return Graph(n=n, adjacency=adjacency)


def one_hop_receptive_fields(g: Graph) -> ReceptiveFieldMap:
    """Xi(i) = {i} union neighbors(i), the 1-hop construction."""
    closed = g.adjacency | np.eye(g.n, dtype=bool)
    return receptive_fields_from_map(g.n, [np.flatnonzero(row).tolist() for row in closed])


def receptive_fields_from_map(n: int, xi) -> ReceptiveFieldMap:
    """Validated constructor for an explicit receptive-field map.

    Checks that members are in range, self-inclusion (i in Xi(i)) and
    symmetry (j in Xi(i) iff i in Xi(j)) on one boolean membership matrix,
    and reports the first vertex that fails; that matrix is kept as the
    map's ``mask``. ``one_hop_receptive_fields`` builds its maps through it.
    """
    if len(xi) != n:
        raise GraphError(f"expected {n} fields, got {len(xi)}")
    xi = tuple(tuple(sorted(set(int(j) for j in members))) for members in xi)
    # members are sorted, so a field is in range iff its two ends are
    out_of_range = np.array([bool(m) and (m[0] < 0 or m[-1] >= n) for m in xi], dtype=bool)
    in_range = [tuple(j for j in m if 0 <= j < n) if bad else m for m, bad in zip(xi, out_of_range)]
    counts = [len(m) for m in in_range]
    member = np.zeros((n, n), dtype=bool)  # member[i, j]: j in Xi(i)
    member[np.repeat(np.arange(n), counts),
           np.fromiter(itertools.chain.from_iterable(in_range), dtype=np.intp, count=sum(counts))] = True
    asymmetric = member & ~member.T
    failed = np.flatnonzero(out_of_range | ~member.diagonal() | asymmetric.any(axis=1))
    if failed.size:  # the first failing vertex, its checks in the order listed above
        i = int(failed[0])
        if out_of_range[i]:
            raise GraphError(f"field of vertex {i} has out-of-range members")
        if not member[i, i]:
            raise GraphError(f"vertex {i} missing from its own receptive field")
        raise GraphError(f"field symmetry violated for pair ({i}, {int(np.argmax(asymmetric[i]))})")
    member.flags.writeable = False  # shared by every reader of the map
    sizes = np.array([len(members) for members in xi], dtype=int)
    d = sizes / float(n)
    return ReceptiveFieldMap(
        n=n, xi=xi, mask=member, sizes=sizes, d=d, d_bar=float(d.sum()), sup_d=float(d.max())
    )


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
    return build_graph(n, np.column_stack((iu[keep], ju[keep])))


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
        try:
            i, j = map(int, line.split())
        except ValueError:  # wrong arity or a token that is not an integer
            raise GraphError(f"line {lineno}: expected 'i j', got {raw!r}") from None
        edges.append((i, j))
    return edges


def read_edge_list(path, n: int) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return build_graph(n, parse_edge_list(fh.read()))
