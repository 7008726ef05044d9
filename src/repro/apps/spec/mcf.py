"""429.mcf — minimum-cost flow (vehicle scheduling).

The calibration kernel is a real successive-shortest-paths min-cost-flow
solver (Bellman-Ford over the residual network) on a seeded transportation
instance; tests verify optimality invariants (flow conservation, no
negative residual cycle exploitation by a better solution on tiny
instances).  mcf's signature — pointer-heavy traversal of large arc
arrays — shows up as a high data-to-instruction ratio against the
``anonymous`` region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.apps.spec.base import IterationProfile, SpecModel
from repro.errors import WorkloadError

#: Large value standing in for infinity.
INF = float("inf")


@dataclass
class Network:
    """Directed graph in arc-list form (residual arcs included)."""

    node_count: int
    arcs: list[list[int]] = field(default_factory=list)  # [u, v, cap, cost, flow]

    def add_arc(self, u: int, v: int, cap: int, cost: int) -> None:
        """Add arc and its residual twin."""
        self.arcs.append([u, v, cap, cost, 0])
        self.arcs.append([v, u, 0, -cost, 0])


def build_instance(
    nodes: int = 24, seed: int = 0, supply: int = 12
) -> tuple[Network, int, int, int]:
    """A layered transportation network from source 0 to sink nodes-1."""
    rng = random.Random(seed)
    net = Network(nodes)
    mid = list(range(1, nodes - 1))
    for v in mid:
        net.add_arc(0, v, rng.randint(2, 6), rng.randint(1, 8))
        net.add_arc(v, nodes - 1, rng.randint(2, 6), rng.randint(1, 8))
    for _ in range(nodes):
        u, v = rng.sample(mid, 2)
        net.add_arc(u, v, rng.randint(1, 5), rng.randint(1, 6))
    return net, 0, nodes - 1, supply


@dataclass
class SolveStats:
    """Operation counts from the solver."""

    relaxations: int = 0
    arc_scans: int = 0
    augmentations: int = 0
    flow_sent: int = 0
    total_cost: int = 0


def min_cost_flow(net: Network, source: int, sink: int, want: int) -> SolveStats:
    """Successive shortest paths with Bellman-Ford (counts operations)."""
    stats = SolveStats()
    remaining = want
    while remaining > 0:
        dist = [INF] * net.node_count
        in_arc: list[int] = [-1] * net.node_count
        dist[source] = 0
        for _ in range(net.node_count - 1):
            changed = False
            for idx, (u, v, cap, cost, flow) in enumerate(net.arcs):
                stats.arc_scans += 1
                if cap - flow > 0 and dist[u] + cost < dist[v]:
                    dist[v] = dist[u] + cost
                    in_arc[v] = idx
                    stats.relaxations += 1
                    changed = True
            if not changed:
                break
        if dist[sink] is INF or in_arc[sink] == -1:
            break
        # Find bottleneck along the path.
        bottleneck = remaining
        v = sink
        while v != source:
            arc = net.arcs[in_arc[v]]
            bottleneck = min(bottleneck, arc[2] - arc[4])
            v = arc[0]
        # Augment.
        v = sink
        while v != source:
            idx = in_arc[v]
            net.arcs[idx][4] += bottleneck
            net.arcs[idx ^ 1][4] -= bottleneck
            stats.total_cost += bottleneck * net.arcs[idx][3]
            v = net.arcs[idx][0]
        stats.augmentations += 1
        stats.flow_sent += bottleneck
        remaining -= bottleneck
    return stats


def node_balance(net: Network, node: int) -> int:
    """Net outflow of *node* (for conservation checks)."""
    out = sum(a[4] for a in net.arcs if a[0] == node and a[4] > 0)
    inn = sum(a[4] for a in net.arcs if a[1] == node and a[4] > 0)
    return out - inn


class McfModel(SpecModel):
    """429.mcf."""

    name = "429.mcf"
    input_files = (("inp.in", 2 * 1024 * 1024),)
    binary_text_kb = 60
    binary_data_kb = 48
    heap_bytes = 128 * 1024
    anon_bytes = 48 * 1024 * 1024
    insts_per_op = 5

    #: Scale factor: the reference instance is ~1000x the calibration one.
    SCALE = 1_400

    def calibrate(self) -> IterationProfile:
        net, s, t, supply = build_instance(seed=self.seed)
        stats = min_cost_flow(net, s, t, supply)
        if stats.flow_sent == 0:
            raise WorkloadError("mcf calibration instance sent no flow")
        ops = stats.arc_scans + stats.relaxations * 3
        insts = int(ops * self.insts_per_op * self.SCALE)
        # Arc arrays dominate and are far beyond MMAP_THRESHOLD.
        return IterationProfile(
            insts=insts,
            heap_refs=int(stats.relaxations * self.SCALE / 6),
            anon_refs=int(stats.arc_scans * self.SCALE / 2),
            stack_refs=int(stats.augmentations * self.SCALE / 3),
        )
