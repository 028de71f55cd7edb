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


class TopologyError(ValueError):
    """A topology description is malformed or is not an oriented tree."""


@dataclass(frozen=True)
class RingPosition:
    """One stop on the virtual ring: a process and the channel a token arrives on."""

    process: str
    in_channel: int


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


def virtual_ring(topo: TreeTopology) -> list[RingPosition]:
    """The full token circulation cycle, starting at (root, degree(root)-1).

    Applying "receive on i, forward on (i+1) mod degree" repeatedly from the
    start position yields each directed tree edge exactly once, so the cycle
    has length 2(n-1).
    """
    start = RingPosition(topo.root, topo.degree(topo.root) - 1)
    ring = [start]
    pos = start
    while True:
        out = next_channel(topo, pos.process, pos.in_channel)
        q = topo.endpoint(pos.process, out)
        pos = RingPosition(q, topo.channel_to(q, pos.process))
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
    that arrived at slot t); ``order[p]`` is p's index in ``process_ids``.
    ``slot`` and ``dest`` are built on first use, as a campaign builds many
    runs before it runs any."""

    def __init__(self, topo: TreeTopology):
        self.neighbors = topo.neighbors  # not topo: the topology caches its ring
        self.keys = tuple((pos.process, pos.in_channel) for pos in virtual_ring(topo))
        self.order = {p: i for i, p in enumerate(topo.process_ids)}

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
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise TopologyError("empty topology description")

    header = lines[0].split()
    if len(header) != 4 or header[0] != "n" or header[2] != "root":
        raise TopologyError("header must be 'n <count> root <id>'")
    try:
        count = int(header[1])
    except ValueError:
        raise TopologyError(f"bad process count {header[1]!r}") from None
    root = header[3]

    neighbors: dict[str, tuple[str, ...]] = {}
    order: list[str] = []
    for ln in lines[1:]:
        if ":" not in ln:
            raise TopologyError(f"bad process line {ln!r}")
        pid, _, rest = ln.partition(":")
        pid = pid.strip()
        nbrs = rest.split()
        if pid in neighbors:
            raise TopologyError(f"duplicate line for process {pid!r}")
        neighbors[pid] = tuple(nbrs)
        order.append(pid)

    if len(order) != count:
        raise TopologyError(f"header declares {count} processes, found {len(order)} lines")

    topo = TreeTopology(root=root, neighbors=neighbors, process_ids=tuple(order))
    topo.validate()
    return topo
