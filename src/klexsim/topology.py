"""Oriented tree topology and the virtual ring that tokens circulate on.

Every process labels its incident channels 0..degree-1; for a non-root
process, channel 0 always leads to its parent.  Forwarding a token received
on channel i out on channel (i+1) mod degree makes the tree emulate a ring
(the Euler tour of the tree's directed edges), which is the path every
token species follows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class TopologyError(ValueError):
    """A topology description is malformed or is not an oriented tree."""


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for every line of an input file
    that is neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


@dataclass(frozen=True)
class TreeTopology:
    """Immutable oriented tree with per-process channel labels.

    ``neighbors[p]`` is ordered: list position = channel label at p.
    ``process_ids`` preserves the declaration order of the input, which is
    the deterministic iteration order used everywhere downstream.
    """

    root: str
    neighbors: dict[str, tuple[str, ...]]
    process_ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.process_ids)

    def degree(self, p: str) -> int:
        return len(self.neighbors[p])

    def endpoint(self, p: str, channel: int) -> str:
        """Neighbor reached from p along the given channel label."""
        return self.neighbors[p][channel]

    def channel_to(self, p: str, q: str) -> int:
        """Label of p's channel leading to neighbor q."""
        return self.neighbors[p].index(q)

    @cached_property
    def ring(self) -> Ring:
        """The virtual ring's slot table, built on first use."""
        return Ring(self)

    def validate(self) -> None:
        ids = set(self.process_ids)
        if len(self.process_ids) < 2:
            raise TopologyError("a tree of at least 2 processes is required")
        if len(ids) != len(self.process_ids):
            raise TopologyError("duplicate process id in topology")
        if self.root not in ids:
            raise TopologyError(f"root {self.root!r} has no process line")
        if set(self.neighbors) != ids:
            raise TopologyError("neighbor table does not match the declared processes")

        edges = 0
        for p in self.process_ids:
            nbrs = self.neighbors[p]
            if not nbrs:
                raise TopologyError(f"process {p!r} has no neighbors")
            seen: set[str] = set()
            for q in nbrs:
                if q == p:
                    raise TopologyError(f"process {p!r} lists itself as a neighbor")
                if q not in ids:
                    raise TopologyError(f"process {p!r} lists unknown neighbor {q!r}")
                if q in seen:
                    raise TopologyError(f"process {p!r}: duplicate edge to {q!r}")
                seen.add(q)
                if p not in self.neighbors[q]:
                    raise TopologyError(
                        f"process {p!r} lists {q!r} but {q!r} does not list {p!r} back"
                    )
            edges += len(nbrs)
        if edges != 2 * (self.n - 1):
            raise TopologyError("graph is not a tree: wrong edge count")

        # Connectivity plus the edge count above makes it a tree; walk from the
        # root to find each non-root's parent and check it sits on channel 0.
        parent: dict[str, str] = {}
        stack = [self.root]
        reached = {self.root}
        while stack:
            p = stack.pop()
            for q in self.neighbors[p]:
                if q not in reached:
                    reached.add(q)
                    parent[q] = p
                    stack.append(q)
        if reached != ids:
            missing = sorted(ids - reached)
            raise TopologyError(f"graph is not connected: {missing[0]!r} unreachable from root")
        for p in self.process_ids:
            if p == self.root:
                continue
            if self.neighbors[p][0] != parent[p]:
                raise TopologyError(
                    f"process {p!r}: channel 0 must be the parent "
                    f"({parent[p]!r}), found {self.neighbors[p][0]!r}"
                )


def forward_channel(in_channel: int, degree: int) -> int:
    """The ring rule: a token received on channel i leaves on (i+1) mod degree."""
    return (in_channel + 1) % degree


def next_channel(topo: TreeTopology, p: str, in_channel: int) -> int:
    """``forward_channel`` at process p, with the channel range checked."""
    d = topo.degree(p)
    if not 0 <= in_channel < d:
        raise TopologyError(f"process {p!r}: channel {in_channel} out of range 0..{d - 1}")
    return forward_channel(in_channel, d)


def virtual_ring(topo: TreeTopology) -> list[tuple[str, int]]:
    """The full token circulation cycle as channel keys (process, the channel
    a token arrives on), starting at (root, degree(root)-1).

    Applying "receive on i, forward on (i+1) mod degree" repeatedly from the
    start position yields each directed tree edge exactly once, so the cycle
    has length 2(n-1).
    """
    start = (topo.root, topo.degree(topo.root) - 1)
    ring = [start]
    pos = start
    while True:
        p, in_channel = pos
        q = topo.endpoint(p, next_channel(topo, p, in_channel))
        pos = (q, topo.channel_to(q, p))
        if pos == start:
            break
        ring.append(pos)
        if len(ring) > 2 * (topo.n - 1):
            raise TopologyError("virtual ring does not close; topology is corrupt")
    if len(ring) != 2 * (topo.n - 1):
        raise TopologyError("virtual ring shorter than 2(n-1); topology is corrupt")
    return ring


class Ring:
    """The virtual ring numbered once.  ``keys[t]`` is the channel, as
    (receiver, receive-label), at ring slot t; slot 0 is the root's wrap
    channel.  ``slot[p][ch]`` inverts ``keys``; ``dest[p][out]`` is the slot
    a send by p on channel ``out`` enters (slot t+1 mod 2(n-1) for a token
    that arrived at slot t).  ``places[p]`` is (``slot[p]``, whether p is
    the root, how many of those slots a controller traversal passes): the
    root's wrap channel (slot 0) is its last label and never passed; every
    other process's slots ascend.  The ring holds only these tables, and
    ``slot``, ``dest`` and ``places`` are built on first use, as a campaign
    builds many runs before it runs any."""

    def __init__(self, topo: TreeTopology):
        self.neighbors = topo.neighbors  # not topo: the topology caches its ring
        self.keys = tuple(virtual_ring(topo))

    @cached_property
    def slot(self) -> dict[str, list[int]]:
        slot = {p: [0] * len(nbrs) for p, nbrs in self.neighbors.items()}
        for t, (p, ch) in enumerate(self.keys):
            slot[p][ch] = t
        return slot

    @cached_property
    def dest(self) -> dict[str, list[int]]:
        # ``forward_channel`` sends on channel out what arrived on out-1
        return {p: [(s[out - 1] + 1) % len(self.keys) for out in range(len(s))]
                for p, s in self.slot.items()}

    @cached_property
    def places(self) -> dict[str, tuple[list[int], bool, int]]:
        root = self.keys[0][0]
        return {p: (pos, p == root, len(pos) - (p == root)) for p, pos in self.slot.items()}


def random_tree(seed: int, n: int) -> TreeTopology:
    """Seeded random oriented tree on n processes (p0 is the root).

    Shape and child order are both drawn from the seed; child order matters
    because it fixes the channel labels and hence the ring.
    """
    if n < 2:
        raise TopologyError("a tree of at least 2 processes is required")
    rng = random.Random(seed)
    ids = [f"p{i}" for i in range(n)]
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    parents = [0] * n
    for i in range(1, n):
        parents[i] = rng.randrange(i)
        children[parents[i]].append(i)
    for lst in children.values():
        rng.shuffle(lst)
    neighbors = {}
    for i in range(n):
        nbrs = [] if i == 0 else [ids[parents[i]]]
        nbrs.extend(ids[c] for c in children[i])
        neighbors[ids[i]] = tuple(nbrs)
    topo = TreeTopology(root=ids[0], neighbors=neighbors, process_ids=tuple(ids))
    topo.validate()
    return topo


def parse_topology(text: str) -> TreeTopology:
    """Parse and validate a topology description.

    Format::

        n <count> root <id>
        <id>: <neighbor0> <neighbor1> ...

    One line per process; neighbor position = channel label, and a non-root
    line must name its parent at position 0.
    """
    lines = content_lines(text)
    lineno, header_line = next(lines, (0, ""))
    if not header_line:
        raise TopologyError("empty topology description")

    header = header_line.split()
    if len(header) != 4 or header[0] != "n" or header[2] != "root":
        raise TopologyError(f"line {lineno}: header must be 'n <count> root <id>'")
    try:
        count = int(header[1])
    except ValueError:
        raise TopologyError(f"line {lineno}: bad process count {header[1]!r}") from None
    root = header[3]

    neighbors: dict[str, tuple[str, ...]] = {}
    order: list[str] = []
    for lineno, ln in lines:
        if ":" not in ln:
            raise TopologyError(f"line {lineno}: bad process line {ln!r}")
        pid, _, rest = ln.partition(":")
        pid = pid.strip()
        nbrs = rest.split()
        if pid in neighbors:
            raise TopologyError(f"line {lineno}: duplicate line for process {pid!r}")
        neighbors[pid] = tuple(nbrs)
        order.append(pid)

    if len(order) != count:
        raise TopologyError(f"header declares {count} processes, found {len(order)} lines")

    topo = TreeTopology(root=root, neighbors=neighbors, process_ids=tuple(order))
    topo.validate()
    return topo
