"""Graph stores and the file protocol of every state file.

A store file is plain graph6, one canonically-labelled graph per line,
sorted, distinct, LF-terminated.  A sidecar ``<path>.meta`` file carries
the parameter box, per-edge-count histogram, and the completeness
certificate in a line-oriented key=value format, so stores stay diff-able
and readable by external tools.  A ``GraphStore`` is built from such lines;
it keeps them with their edge counts and decodes a member only on demand.

Stores, sidecars, job manifests and shard parts are all line files, and
all of them go through the three functions below: ``write_lines`` replaces
a file durably (temp file, fsync, rename), so a crash at any point leaves
either the old file or the new one; ``read_lines`` and ``read_records``
read them back.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from typing import Optional

from .canon import canonical_form
from .graphs import decode_graph6, graph6_edge_count, validate_member


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
    lines are skipped, and any other line without ``=`` raises StoreError."""
    lines = [line for line in read_lines(path) if not line.startswith("#")]
    bad = next((line for line in lines if "=" not in line), None)
    if bad is not None:
        raise StoreError(f"{path}: line {bad!r} is not key=value")
    return [tuple(part.strip() for part in line.split("=", 1)) for line in lines]


class GraphStore:
    """The sorted canonical graph6 lines of one (k; n, e-range) box and their
    edge counts; members are decoded only when asked for."""

    def __init__(self, k: int, n: int, e_min: int = 0,
                 e_max: Optional[int] = None, complete: bool = False,
                 certificate: str = "", lines=()):
        """``lines`` are distinct canonical forms, in any order."""
        self.k = k
        self.n = n
        self.e_min = e_min
        self.e_max = n * (n - 1) // 2 if e_max is None else e_max
        self.complete = complete
        self.certificate = certificate
        self._lines = sorted(lines)
        self._edges = [graph6_edge_count(line) for line in self._lines]

    def __len__(self):
        return len(self._lines)

    def forms(self) -> set:
        return set(self._lines)

    def graphs(self):
        return map(decode_graph6, self._lines)

    def counts(self) -> dict:
        return dict(Counter(self._edges))

    def restricted(self, e_max: int) -> "GraphStore":
        """Sub-box with a lower edge ceiling; completeness is inherited
        (removing high-edge members cannot lose low-edge ones)."""
        return GraphStore(
            self.k, self.n, self.e_min, e_max, complete=self.complete,
            certificate=self.certificate,
            lines=[line for line, e in zip(self._lines, self._edges) if e <= e_max])

    # -- persistence ---------------------------------------------------------

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for line in self._lines:
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()[:16]

    def write(self, path: str) -> None:
        write_lines(path, self._lines)
        meta = [
            f"k={self.k}",
            f"n={self.n}",
            f"e_min={self.e_min}",
            f"e_max={self.e_max}",
            f"complete={int(self.complete)}",
            f"certificate={self.certificate}",
            f"total={len(self)}",
            f"hash={self.content_hash()}",
        ]
        for e, c in sorted(self.counts().items()):
            meta.append(f"count.{e}={c}")
        write_lines(path + ".meta", meta)

    @classmethod
    def read(cls, path: str, check: bool = False, k: int = 0) -> "GraphStore":
        """Read a store, canonically relabelling every line.  ``check``
        revalidates membership and the box, for data arriving from outside
        the engines; ``k`` is the class bound to use when the sidecar names
        none, and ``check`` without any bound raises :class:`StoreError`."""
        meta = (dict(read_records(path + ".meta"))
                if os.path.exists(path + ".meta") else {})

        def number(key, default=None):
            try:
                return int(meta[key]) if key in meta else default
            except ValueError:
                raise StoreError(
                    f"{path}.meta: malformed {key}={meta[key]!r}") from None

        k = number("k", k)
        n = number("n", -1)
        e_min = number("e_min", 0)
        e_max = number("e_max")
        if check and k < 1:
            raise StoreError(f"{path}: no class bound k to check members against")
        forms = set()
        for line in read_lines(path):
            g = decode_graph6(line)
            if n < 0:  # no sidecar: the first member sets the order
                n = g.n
            if check:
                validate_member(g, k)
                e = g.edge_count()
                top = n * (n - 1) // 2 if e_max is None else e_max
                if g.n != n or not e_min <= e <= top:
                    raise StoreError(
                        f"graph (n={g.n}, e={e}) outside box "
                        f"(n={n}, e={e_min}..{top})")
            forms.add(canonical_form(g))
        store = cls(k, n, e_min, e_max, complete=bool(number("complete", 0)),
                    certificate=meta.get("certificate", ""), lines=forms)
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
