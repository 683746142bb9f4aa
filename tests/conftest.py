import os
import random

import pytest

from ramsey3k.degseq import ClosurePlan, PlanRow
from ramsey3k.graphs import Graph
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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
