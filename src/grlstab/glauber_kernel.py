"""One-chain Glauber kernels, generated per neighbour structure.

A kernel runs sweeps of single-site Glauber updates on one chain as
straight-line Python: one statement per site, spins held in local 0/1 ints.
It reads ranks, not floats. Each conditional table entry is replaced by its
position p among the sorted distinct entries of the spec's tables, a
uniform u by its rank r = #{entries <= u}, and u < entry exactly when
r <= p. A site's positions are nested tuples indexed by its neighbours'
bits (first neighbour outermost), bound as arguments and never written
into the source. ``sampling`` builds the ranks and positions; this module
only generates and binds the code.

A spec of more than WINDOW sites is swept by one function per window of
sites: each runs one sweep of its window and reads the spins beyond its
edges from one shared state list, so no single compile grows with n.

``sampling`` imports this module on the first one-chain draw, not at import
time. The package may run without cached bytecode, and compiling this
source in every process, Ising or not, raises its peak memory.
"""

from __future__ import annotations

import functools

# Most sites one generated function updates as straight-line code.
# Straight-line code for a 5000-site cycle took 0.33 s and 50 MB of peak
# memory to compile on a 2-core VM; 256 sites took 12 ms.
WINDOW = 256

_LOOP = """
def bind({p}):
    def sweeps(state, rows):
        {s} = state
        for {r} in rows:
            {updates}
        return [{s}]
    return sweeps
"""

_WINDOW = """
def bind({p}):
    def window(state, row):
        {s} = state[{a}:{b}]
        {outside}
        {r} = row[{a}:{b}]
        {updates}
        state[{a}:{b}] = {s}
    return window
"""


@functools.lru_cache(maxsize=64)
def _code(a: int, b: int, neighbours: tuple, loop: bool):
    """``bind(p_a, ..., p_{b-1})`` -> the one-chain update of sites a..b-1.

    neighbours[i - a] holds site i's neighbours. Site i's statement reads its
    rank r_i and the spins s_k of its neighbours k, each a 0/1 int, and sets
    s_i = 1 exactly when r_i <= p_i[s_k1][s_k2]..., its positions indexed by
    the neighbour bits. With ``loop`` (a = 0, b = n) the function is
    ``sweeps(state, rows)``: one sweep per row of ranks, returning the new
    state. Otherwise it is ``window(state, row)``: one sweep of the window,
    reading the spins outside it from the shared state list and writing its
    own back.
    """
    def seq(fmt):
        return ", ".join(fmt.format(i=i) for i in range(a, b)) + ","

    updates = [f"s{i} = 1 if r{i} <= p{i}{''.join(f'[s{k}]' for k in nb)} else 0"
               for i, nb in enumerate(neighbours, a)]
    outside = sorted({k for nb in neighbours for k in nb if not a <= k < b})
    source = (_LOOP if loop else _WINDOW).format(
        p=seq("p{i}"), s=seq("s{i}"), r=seq("r{i}"), a=a, b=b,
        outside="; ".join(f"s{k} = state[{k}]" for k in outside) or "pass",
        updates=("\n" + " " * (12 if loop else 8)).join(updates),
    )
    namespace = {}
    exec(source, namespace)
    return namespace["bind"]


def one_chain_kernel(neighbours: list, positions: list):
    """``sweeps(state, rows)`` for one spec.

    neighbours[i] is the tuple of site i's neighbours and positions[i] its
    nested position tuples. state holds the n spins as 0/1 ints and each
    row the n ranks of one sweep; returns the state after all rows.
    """
    n, w = len(neighbours), WINDOW
    if n <= w:
        return _code(0, n, tuple(neighbours), True)(*positions)
    windows = [_code(a, min(a + w, n), tuple(neighbours[a:a + w]), False)(*positions[a:a + w])
               for a in range(0, n, w)]

    def sweeps(state, rows):
        for row in rows:
            for window in windows:
                window(state, row)
        return state
    return sweeps
