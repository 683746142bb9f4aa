import os
import random

import pytest

from ramsey3k.degseq import ClosurePlan, PlanRow
from ramsey3k.graphs import Graph, is_maximal_triangle_free, z_value
from ramsey3k.oracle import brute_force_graphs
from ramsey3k.pipeline import JobManifest, run_manifest
from ramsey3k.store import write_lines


def petersen() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return Graph.from_edges(10, outer + spokes + inner)


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_triangle_free(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph.empty(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() < p and not g.adj[u] & g.adj[v]:
            g = g.add_edge(u, v)
    return g


def min_degree_store(directory, k, n, e_max, oracle=brute_force_graphs):
    """The (3,k;n,<=e_max)-store glued by run_manifest at one worker from a
    certified manifest whose rows are the minimum-degree rows, with inputs
    from ``oracle(m, k - 1, ceiling)``.

    A vertex of minimum degree d has Z >= d*d, so its local subgraph has at
    most c = e_max - d*d edges: the row (d, m = n-d-1, ceiling c) covers it
    whenever c reaches e(3,k-1,m), and every member has such a vertex.
    """
    rows, inputs = [], []
    for d in range(min(k, n)):
        m, c = n - d - 1, e_max - d * d
        members = oracle(m, k - 1, c) if c >= 0 else {}
        if not members:  # e(3,k-1,m) is infinite or above c
            continue
        base = min(g.edge_count() for g in members.values())
        path = os.path.join(directory, f"d{d}.g6")
        write_lines(path, sorted(members))
        rows.append(PlanRow(d, m, base, c - base + 1, c))
        inputs.append((d, path))
    manifest = os.path.join(directory, "job.manifest")
    JobManifest(target_k=k, n=n, e_max=e_max, inputs=inputs,
                plan=ClosurePlan(k, n, e_max, rows)).write(manifest)
    return run_manifest(manifest, os.path.join(directory, "out.g6"), workers=1)


# Reference forms with no caller in the package: vertex deficiencies and
# their degree-sequence sum, the exact e(3,k,n) of oracle-sized classes,
# and their maximal triangle-free members.

def deficiency_vertex(g: Graph, v: int, k: int, table) -> int:
    """Slack of e(g) against the minimum forced through v's local subgraph.

    ``table`` must answer ``bound_value(k-1, m)`` with the minimum edge count
    of the (3,k-1;m) class (exact or lower bound); an infinite entry is an
    error, never a sentinel.
    """
    d = g.degree(v)
    m = g.n - d - 1
    b = table.bound_value(k - 1, m)
    return g.edge_count() - z_value(g, v) - b


def deficiency_graph(g: Graph, k: int, table) -> int:
    """Sum of vertex deficiencies; equals the degree-sequence form."""
    return sum(deficiency_vertex(g, v, k, table) for v in range(g.n))


def deficiency_from_histogram(n: int, e: int, hist: dict, k: int, table) -> int:
    """Degree-sequence form: n*e - sum_i n_i * (i^2 + bound(k-1, n-i-1))."""
    total = n * e
    for i, ni in hist.items():
        if ni:
            total -= ni * (i * i + table.bound_value(k - 1, n - i - 1))
    return total


def min_edge_count(n: int, k: int, probe_cap=None):
    """Exact e(3,k,n) for oracle-sized n: smallest edge count with a member,
    or None when the class is empty."""
    cap = probe_cap if probe_cap is not None else max(0, (k - 1) * n // 2)
    store = brute_force_graphs(n, k, cap)
    if not store:
        return None
    return min(g.edge_count() for g in store.values())


def naive_mtf_set(n: int, k: int) -> dict:
    """All maximal triangle-free (3,k;n)-graphs, by filtering the oracle."""
    store = brute_force_graphs(n, k, None)
    return {f: g for f, g in store.items() if is_maximal_triangle_free(g)}


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
