"""Static decode-order selection for noise recycling.

Channels plus an artificial zero node form a directed graph: zero-node
edges carry each channel's raw SNR, and a cross edge (i, j) carries the
effective SNR channel j would see when recycling channel i's noise
estimate.  A maximum-weight arborescence rooted at the zero node therefore
maximizes the total effective SNR over all single-decode orders; its BFS
traversal is the decode order, ``RecyclingPlan.order``.  :func:`plan_for`
is the one place a pipeline's static plan is built.

Node ids follow the graph convention: node 0 is the zero node and node j
(1-based) is channel j, i.e. channel index j - 1 elsewhere in the package.

Ties are broken deterministically, but not alike.  At every contraction
level the solver takes, for each node, the heaviest incoming edge and among
equal weights the one with the smallest original (source, target) pair; the
brute-force oracle takes the lexicographically smallest parent vector among
plans with the largest floating-point total.  So where every sum is exact
(small integer or dyadic weights) the two totals are equal but the plans
may differ, and where weights tie only up to rounding, as on symmetric
Gauss-Markov models, the solver's total may be 1-2 ulps below the
oracle's (a relative 1e-12).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .recycling import effective_snr

__all__ = [
    "RecycleGraph",
    "RecyclingPlan",
    "build_recycle_graph",
    "constrain_root_child",
    "max_arborescence",
    "brute_force_plan",
    "plan_for",
]


@dataclass(frozen=True)
class RecycleGraph:
    """(m+1) x (m+1) weight matrix, m >= 1; NaN marks absent edges.

    Row i, column j holds the weight of edge i -> j; ``node_count`` is read
    from the shape.  The zero node (0) has no incoming edges, there are no
    self-loops, and every channel can be reached from the zero node, so
    every solver below has a plan to return.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or len(w) < 2 or w.shape[1] != len(w):
            raise ValueError(f"weights must be square and at least 2 x 2, the zero node "
                             f"and a channel, got shape {w.shape}")
        if not np.isnan(w[:, 0]).all():
            raise ValueError("the zero node cannot have incoming edges")
        if not np.isnan(np.diag(w)).all():
            raise ValueError("self-loops are not allowed")
        adjacent = (~np.isnan(w)).tolist()
        reached = [0]
        for i in reached:  # breadth-first: the list grows while it is walked
            reached += [j for j, edge in enumerate(adjacent[i]) if edge and j not in reached]
        unreached = sorted(set(range(len(w))) - set(reached))
        if unreached:
            raise ValueError(f"channels {unreached} cannot be reached from the zero node")
        object.__setattr__(self, "weights", w)

    @property
    def node_count(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return self.node_count - 1

    def edges(self) -> list[tuple[int, int, float]]:
        """(source, target, weight) of every edge, in row-major order."""
        return [(i, j, float(self.weights[i, j]))
                for i, j in np.argwhere(~np.isnan(self.weights)).tolist()]


@dataclass(frozen=True)
class RecyclingPlan:
    """Arborescence over channels: parent[j-1] is the parent node of channel j.

    ``order`` is derived from ``parent``: the BFS decode order, zero-node
    children first (ascending), then level by level, so every channel comes
    after its parent.
    """

    parent: tuple[int, ...]
    total_snr: float
    order: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        m = len(self.parent)
        children: dict[int, list[int]] = {i: [] for i in range(m + 1)}
        for ch in range(1, m + 1):
            p = self.parent[ch - 1]
            if not 0 <= p <= m or p == ch:
                raise ValueError(f"invalid parent {p} for channel {ch}")
            children[p].append(ch)
        order: list[int] = []
        queue = children[0]
        while queue:
            ch = queue.pop(0)
            order.append(ch)
            queue.extend(children[ch])
        if len(order) != m:  # some channel is unreachable from the zero node
            raise ValueError("parent links contain a cycle")
        object.__setattr__(self, "order", tuple(order))

    @property
    def m(self) -> int:
        return len(self.parent)

    def parent_of(self, channel: int) -> int:
        return self.parent[channel - 1]

    def children_of(self, node: int) -> list[int]:
        return [ch for ch in range(1, self.m + 1) if self.parent[ch - 1] == node]


def build_recycle_graph(model: ChannelModel) -> RecycleGraph:
    """Zero-node edges carry raw SNRs, cross edges recycled effective SNRs."""
    m = model.m
    w = np.full((m + 1, m + 1), np.nan)
    for j in range(1, m + 1):
        w[0, j] = effective_snr(model, j - 1)
        for i in range(1, m + 1):
            if i != j:
                w[i, j] = effective_snr(model, j - 1, i - 1)  # raises on |rho| = 1
    return RecycleGraph(w)


def constrain_root_child(graph: RecycleGraph, channel: int) -> RecycleGraph:
    """Drop all zero-node edges except 0 -> channel (forced-lead variant)."""
    if not 1 <= channel <= graph.m:
        raise ValueError("channel out of range")
    w = graph.weights.copy()
    for j in range(1, graph.node_count):
        if j != channel:
            w[0, j] = np.nan
    return RecycleGraph(w)


def _order_total(graph: RecycleGraph, parent: tuple[int, ...]) -> float:
    # fixed ascending-channel summation order so equal plans give equal floats
    return float(sum(graph.weights[parent[ch - 1], ch] for ch in range(1, graph.m + 1)))


def _plan_from_parent(graph: RecycleGraph, parent: tuple[int, ...]) -> RecyclingPlan:
    return RecyclingPlan(parent=parent, total_snr=_order_total(graph, parent))


def plan_for(model: ChannelModel, forced_lead: int | None = None,
             parents=None) -> RecyclingPlan:
    """The static recycling plan for ``model``.

    Pinned ``parents`` (the parent node of each channel, 0 for the zero
    node) are scored on the recycle graph and take precedence; otherwise
    the maximum arborescence is solved, with ``forced_lead`` (a 1-based
    channel) as the zero node's only child when given.
    """
    m = model.m
    if parents is not None and (len(parents) != m or not all(0 <= p <= m for p in parents)):
        raise ValueError(f"parents must list one entry in [0, {m}] for each of the {m} "
                         f"channels, got {list(parents)}")
    if forced_lead is not None and not 1 <= forced_lead <= m:
        raise ValueError(f"forced_lead must be a channel in [1, {m}], got {forced_lead}")
    graph = build_recycle_graph(model)
    if parents is not None:
        return _plan_from_parent(graph, tuple(int(p) for p in parents))
    if forced_lead is not None:
        graph = constrain_root_child(graph, forced_lead)
    return max_arborescence(graph)


def max_arborescence(graph: RecycleGraph) -> RecyclingPlan:
    """Maximum-weight arborescence rooted at the zero node.

    Runs the Chu-Liu/Edmonds contraction (J. Edmonds, "Optimum branchings",
    J. Res. NBS 71B, 1967) on negated weights; see :func:`_contract`.  Its
    recursion depth is the number of cycles contracted, which is below m.
    """
    m = graph.m
    # (negated weight, original tail, original head, tail, head): plain tuple
    # order is the tie rule, heaviest first, then smallest original (source, target)
    chosen = _contract([(-w, u, v, u, v) for u, v, w in graph.edges()], m + 1)
    return _plan_from_parent(graph, tuple(chosen[j][1] for j in range(1, m + 1)))


def _contract(edges: list[tuple], node: int) -> dict[int, tuple]:
    """Each node's incoming edge in a minimum arborescence over ``edges``.

    The smallest incoming edge of every node is taken; a cycle among them is
    contracted into the new node ``node`` and solved recursively, then
    reopened where the chosen edge enters it.  Only a returned edge's
    original endpoints are meaningful.
    """
    best: dict[int, tuple] = {}
    for edge in edges:
        if edge[4] not in best or edge < best[edge[4]]:
            best[edge[4]] = edge
    cycle = _find_cycle({head: edge[3] for head, edge in best.items()})
    if cycle is None:
        return best
    inside = set(cycle)
    merged: dict[tuple[int, int], tuple] = {}  # one edge per (tail, head)
    for w, orig_u, orig_v, u, v in edges:
        if u in inside and v in inside:
            continue
        if v in inside:  # entering v replaces v's cycle edge
            w, v = w - best[v][0], node
        elif u in inside:
            u = node
        edge = (w, orig_u, orig_v, u, v)
        if (u, v) not in merged or edge < merged[u, v]:
            merged[u, v] = edge
    chosen = _contract(list(merged.values()), node + 1)
    entering = chosen.pop(node)
    entered = next(edge[4] for edge in edges if edge[1:3] == entering[1:3])
    chosen.update((v, best[v]) for v in cycle if v != entered)
    chosen[entered] = entering
    return chosen


def _find_cycle(successor: dict[int, int]) -> list[int] | None:
    visited: set[int] = set()
    for start in successor:
        if start in visited:
            continue
        path: list[int] = []
        node = start
        while node in successor and node not in visited:
            visited.add(node)
            path.append(node)
            node = successor[node]
        if node in path:
            return path[path.index(node):]
    return None


def brute_force_plan(graph: RecycleGraph) -> RecyclingPlan:
    """Exhaustive arborescence enumeration (m <= 6); oracle for the solver.

    Among maximum-total plans the lexicographically smallest parent vector
    wins, which per channel means the lowest usable source index.
    """
    m = graph.m
    if m > 6:
        raise ValueError("brute force enumeration limited to m <= 6")
    candidates_per_channel = [[i for i in range(m + 1)
                               if i != j and not np.isnan(graph.weights[i, j])]
                              for j in range(1, m + 1)]

    best: tuple[float, tuple[int, ...]] | None = None
    for parent in itertools.product(*candidates_per_channel):
        if not _is_arborescence(parent):
            continue
        total = _order_total(graph, parent)
        if best is None or total > best[0] or (total == best[0] and parent < best[1]):
            best = (total, parent)
    return _plan_from_parent(graph, best[1])


def _is_arborescence(parent: tuple[int, ...]) -> bool:
    m = len(parent)
    for ch in range(1, m + 1):
        hops, node = 0, ch
        while node != 0:
            node = parent[node - 1]
            hops += 1
            if hops > m:
                return False
    return True
