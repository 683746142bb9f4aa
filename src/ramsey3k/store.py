"""Deduplicated graph stores and the file protocol of every state file.

A store file is plain graph6, one canonically-labelled graph per line,
sorted, LF-terminated.  A sidecar ``<path>.meta`` file carries the
parameter box, per-edge-count histogram, and the completeness certificate
in a line-oriented key=value format, so stores stay diff-able and readable
by external tools.

Stores, sidecars, job manifests and shard parts are all line files, and
all of them go through the three functions below: ``write_lines`` replaces
a file durably (temp file, fsync, rename), so a crash at any point leaves
either the old file or the new one; ``read_lines`` and ``read_records``
read them back.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

from .canon import canonical_form
from .graphs import Graph, decode_graph6, validate_member


class StoreError(ValueError):
    pass


def write_lines(path: str, lines) -> None:
    """Replace ``path`` durably with the LF-terminated lines: a fsynced temp
    file is renamed over it, and the directory is fsynced after the rename."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_lines(path: str) -> list:
    """The stripped non-blank lines of ``path``."""
    with open(path) as fh:
        return [s for s in (line.strip() for line in fh) if s]


def read_records(path: str) -> list:
    """The ``(key, value)`` pairs of a key=value file, in order; ``#``
    lines and lines without ``=`` are skipped."""
    return [tuple(part.strip() for part in line.split("=", 1))
            for line in read_lines(path)
            if not line.startswith("#") and "=" in line]


class GraphStore:
    """Canonical-form-keyed set of graphs in one (k; n, e-range) box."""

    def __init__(self, k: int, n: int, e_min: int = 0,
                 e_max: Optional[int] = None, complete: bool = False,
                 certificate: str = ""):
        self.k = k
        self.n = n
        self.e_min = e_min
        self.e_max = n * (n - 1) // 2 if e_max is None else e_max
        self.complete = complete
        self.certificate = certificate
        self._graphs: dict = {}

    def __len__(self):
        return len(self._graphs)

    def __contains__(self, form: str):
        return form in self._graphs

    def forms(self) -> set:
        return set(self._graphs)

    def graphs(self):
        return self._graphs.values()

    def items(self):
        return self._graphs.items()

    def add(self, g: Graph, form: Optional[str] = None, check: bool = False) -> bool:
        """Insert; returns True when new.  ``check`` revalidates membership
        and the box, for data arriving from outside the engines."""
        if check:
            validate_member(g, self.k)
            e = g.edge_count()
            if g.n != self.n or not self.e_min <= e <= self.e_max:
                raise StoreError(
                    f"graph (n={g.n}, e={e}) outside box "
                    f"(n={self.n}, e={self.e_min}..{self.e_max})")
        if form is None:
            form = canonical_form(g)
        if form in self._graphs:
            return False
        self._graphs[form] = g
        return True

    def counts(self) -> dict:
        hist: dict = {}
        for g in self._graphs.values():
            e = g.edge_count()
            hist[e] = hist.get(e, 0) + 1
        return hist

    def restricted(self, e_max: int) -> "GraphStore":
        """Sub-box with a lower edge ceiling; completeness is inherited
        (removing high-edge members cannot lose low-edge ones)."""
        sub = GraphStore(self.k, self.n, self.e_min, e_max,
                         complete=self.complete, certificate=self.certificate)
        for form, g in self._graphs.items():
            if g.edge_count() <= e_max:
                sub._graphs[form] = g
        return sub

    # -- persistence ---------------------------------------------------------

    def lines(self) -> list:
        return sorted(self._graphs)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for line in self.lines():
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()[:16]

    def write(self, path: str) -> None:
        write_lines(path, self.lines())
        meta = [
            f"k={self.k}",
            f"n={self.n}",
            f"e_min={self.e_min}",
            f"e_max={self.e_max}",
            f"complete={int(self.complete)}",
            f"certificate={self.certificate}",
            f"total={len(self._graphs)}",
            f"hash={self.content_hash()}",
        ]
        for e, c in sorted(self.counts().items()):
            meta.append(f"count.{e}={c}")
        write_lines(path + ".meta", meta)

    @classmethod
    def read(cls, path: str, check: bool = False) -> "GraphStore":
        meta = (dict(read_records(path + ".meta"))
                if os.path.exists(path + ".meta") else {})

        def number(key, default=None):
            try:
                return int(meta[key]) if key in meta else default
            except ValueError:
                raise StoreError(
                    f"{path}.meta: malformed {key}={meta[key]!r}") from None

        store = cls(
            k=number("k", 0),
            n=number("n", -1),
            e_min=number("e_min", 0),
            e_max=number("e_max"),
            complete=bool(number("complete", 0)),
            certificate=meta.get("certificate", ""),
        )
        for line in read_lines(path):
            g = decode_graph6(line)
            if store.n < 0:
                store.n = g.n
                store.e_max = g.n * (g.n - 1) // 2
            store.add(g, check=check and store.k >= 1)
        if "total" in meta and number("total") != len(store):
            raise StoreError(f"{path}: meta total {meta['total']} != {len(store)}")
        if "hash" in meta and meta["hash"] != store.content_hash():
            raise StoreError(
                f"{path}: meta hash {meta['hash']} != {store.content_hash()}")
        return store


def render_count_table(counts: dict) -> str:
    """Text table of counts keyed by (n, e): rows are edge counts, columns
    vertex counts, blank cells for zero."""
    if not counts:
        return "e |\n"
    orders = sorted({n for (n, _) in counts})
    edges = sorted({e for (_, e) in counts})
    widths = {}
    for n in orders:
        w = max([len(str(n))] + [
            len(str(counts.get((n, e), ""))) for e in edges])
        widths[n] = w
    head = "e    | " + "  ".join(str(n).rjust(widths[n]) for n in orders)
    lines = [head, "-" * len(head)]
    for e in edges:
        cells = []
        for n in orders:
            c = counts.get((n, e))
            cells.append((str(c) if c else "").rjust(widths[n]))
        lines.append(f"{e:<4} | " + "  ".join(cells))
    return "\n".join(lines) + "\n"
