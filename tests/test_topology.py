import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klexsim import topology
from klexsim.simnet import RoundRobinPolicy, SimParams, Simulator
from klexsim.topology import (
    RingPosition,
    TopologyError,
    TreeTopology,
    forward_channel,
    next_channel,
    parse_topology,
    random_tree,
    virtual_ring,
)

STAR = """
n 3 root r
r: a b
a: r
b: r
"""

CHAIN = """
n 3 root r
r: a
a: r b
b: a
"""


def make_tree(parents: list[int], shuffle_seed: int | None = None) -> TreeTopology:
    """Build a topology from a parent array (parents[i] < i, node 0 is the root).

    Children order (labels > 0) is randomized when a seed is given, since
    child order is semantically load-bearing but arbitrary.
    """
    n = len(parents)
    ids = [f"p{i}" for i in range(n)]
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(1, n):
        children[parents[i]].append(i)
    if shuffle_seed is not None:
        rng = random.Random(shuffle_seed)
        for lst in children.values():
            rng.shuffle(lst)
    neighbors = {}
    for i in range(n):
        nbrs = [] if i == 0 else [ids[parents[i]]]
        nbrs.extend(ids[c] for c in children[i])
        neighbors[ids[i]] = tuple(nbrs)
    return TreeTopology(root=ids[0], neighbors=neighbors, process_ids=tuple(ids))


def euler_tour_edges(topo: TreeTopology) -> list[tuple[str, str]]:
    """Independent oracle: directed edges of the Euler tour by recursive DFS.

    Visits children in channel-label order and never consults next_channel or
    virtual_ring.
    """
    edges: list[tuple[str, str]] = []

    def walk(p: str, parent: str | None) -> None:
        for q in topo.neighbors[p]:
            if q == parent:
                continue
            edges.append((p, q))
            walk(q, p)
            edges.append((q, p))

    walk(topo.root, None)
    return edges


def ring_edges(topo: TreeTopology) -> list[tuple[str, str]]:
    """Directed edges traversed by the ring: each position's forwarding hop."""
    edges = []
    for pos in virtual_ring(topo):
        out = next_channel(topo, pos.process, pos.in_channel)
        edges.append((pos.process, topo.endpoint(pos.process, out)))
    return edges


class TestNextChannel:
    def test_modular_increment(self):
        topo = parse_topology(CHAIN)
        assert next_channel(topo, "a", 1) is not None
        t = make_tree([0, 0, 0, 0])  # p0 has degree 3
        assert next_channel(t, "p0", 1) == 2

    def test_leaf_bounces_back(self):
        topo = parse_topology(CHAIN)
        assert next_channel(topo, "b", 0) == 0

    def test_root_wraps_to_ring_start(self):
        topo = parse_topology(STAR)
        assert next_channel(topo, "r", 1) == 0

    def test_out_of_range_is_structural_error(self):
        topo = parse_topology(STAR)
        with pytest.raises(TopologyError):
            next_channel(topo, "a", 1)

    def test_cyclic(self):
        t = make_tree([0, 0, 1, 1, 0])
        for p in t.process_ids:
            for ch in range(t.degree(p)):
                cur = ch
                for _ in range(t.degree(p)):
                    cur = next_channel(t, p, cur)
                assert cur == ch


class TestVirtualRing:
    def test_star(self):
        topo = parse_topology(STAR)
        ring = virtual_ring(topo)
        assert len(ring) == 4
        assert ring_edges(topo) == [("r", "a"), ("a", "r"), ("r", "b"), ("b", "r")]

    def test_chain(self):
        topo = parse_topology(CHAIN)
        assert ring_edges(topo) == [("r", "a"), ("a", "b"), ("b", "a"), ("a", "r")]

    def test_starts_at_root_last_channel(self):
        topo = parse_topology(STAR)
        assert virtual_ring(topo)[0] == RingPosition("r", 1)

    def test_eight_node_tree_against_euler_oracle(self):
        # Values frozen from the independent recursive enumeration.
        t = make_tree([0, 0, 0, 1, 1, 2, 4, 4], shuffle_seed=11)
        ring = virtual_ring(t)
        assert len(ring) == 14
        for p in t.process_ids:
            assert sum(1 for pos in ring if pos.process == p) == t.degree(p)
        assert ring_edges(t) == euler_tour_edges(t)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_matches_euler_oracle(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        parents = [0] + [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
        seed = data.draw(st.integers(0, 10**6))
        t = make_tree(parents, shuffle_seed=seed)
        edges = ring_edges(t)
        assert len(edges) == 2 * (n - 1)
        assert edges == euler_tour_edges(t)
        # every directed edge exactly once
        assert len(set(edges)) == len(edges)


class TestRing:
    """``topo.ring`` numbers the virtual ring's channels once for every
    module: slots, their inverse, each send's destination slot, and the
    process order."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_slot_table_follows_the_ring(self, n):
        for seed in (n, 1000 + n):
            t = random_tree(seed, n)
            ring = t.ring
            L = 2 * (n - 1)
            assert ring.keys == tuple((pos.process, pos.in_channel)
                                      for pos in virtual_ring(t))
            assert ring.keys[0] == (t.root, t.degree(t.root) - 1)
            for slot, (p, ch) in enumerate(ring.keys):
                assert ring.slot[p][ch] == slot
                assert ring.dest[p][forward_channel(ch, t.degree(p))] == (slot + 1) % L
            for p in t.process_ids:
                for out in range(t.degree(p)):
                    q = t.endpoint(p, out)
                    assert ring.keys[ring.dest[p][out]] == (q, t.channel_to(q, p))
            assert [ring.order[p] for p in t.process_ids] == list(range(n))

    def test_ring_walked_once_per_topology(self, monkeypatch):
        walks = []
        real = topology.virtual_ring
        monkeypatch.setattr(topology, "virtual_ring", lambda t: walks.append(t) or real(t))
        t = random_tree(5, 9)
        sims = [Simulator(t, SimParams(k=1, ell=2, cmax=1, timeout=None))
                for _ in range(2)]
        for sim in sims:
            cfg = sim.initial_configuration()
            sim.check(cfg)
            sim.run(cfg, RoundRobinPolicy(), 50)
        assert walks == [t]


class TestParseTopology:
    def test_valid_chain(self):
        topo = parse_topology(CHAIN)
        assert topo.n == 3
        assert topo.root == "r"
        assert topo.neighbors["a"] == ("r", "b")

    def test_channel_zero_must_be_parent(self):
        bad = """
        n 3 root r
        r: a
        a: b r
        b: a
        """
        with pytest.raises(TopologyError, match="channel 0 must be the parent"):
            parse_topology(bad)

    def test_duplicate_edge(self):
        bad = """
        n 2 root r
        r: a a
        a: r
        """
        with pytest.raises(TopologyError, match="duplicate edge"):
            parse_topology(bad)

    def test_non_tree_rejected(self):
        bad = """
        n 4 root r
        r: a b
        a: r b
        b: r a
        c: a
        """
        with pytest.raises(TopologyError):
            parse_topology(bad)

    def test_single_process_rejected(self):
        with pytest.raises(TopologyError):
            parse_topology("n 1 root r\nr:\n")

    def test_two_processes_supported(self):
        topo = parse_topology("n 2 root r\nr: a\na: r\n")
        assert len(virtual_ring(topo)) == 2

    def test_asymmetric_neighbor_lists(self):
        bad = """
        n 3 root r
        r: a b
        a: r
        b: a
        """
        with pytest.raises(TopologyError):
            parse_topology(bad)

    def test_count_mismatch(self):
        with pytest.raises(TopologyError, match="declares"):
            parse_topology("n 3 root r\nr: a\na: r\n")

    def test_unknown_neighbor(self):
        bad = """
        n 2 root r
        r: a
        a: r z
        """
        with pytest.raises(TopologyError):
            parse_topology(bad)
