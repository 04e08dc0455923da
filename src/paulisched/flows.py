"""Integer flow networks: Dinic max-flow and rounding of fractional flows.

``max_flow_integral`` (Dinic) is the solver the schedule construction
uses.  ``round_flow`` is the paper's rounding construction, kept as the
reference the tests compare the construction with.

``max_flow_integral`` is iterative: each phase levels the residual graph
breadth-first only until the sink has its level, and the blocking flow
walks a path held as a list of edge ids, with no recursion and no nested
closure.  A solve therefore builds no reference cycles, and its adjacency
lists are freed by reference counting as soon as it returns, whether or
not the cyclic garbage collector runs.

All arithmetic in this module is integer arithmetic.  A fractional flow is
carried as per-edge numerators over one shared denominator D
(:class:`ScaledFlow`), so feasibility, conservation and rounding are exact;
no floating point appears anywhere here.

``round_flow`` converts a feasible, conservative fractional flow whose
source- and sink-adjacent edges are already integral into an integral flow
of the same value.  It repeatedly finds an undirected cycle among the edges
with non-integral flow and pushes the smallest slack around it until at
least one edge lands on a multiple of D; each push strictly shrinks the
fractional edge set, so the loop terminates.  Such a cycle always exists:
conservation forces every node touching one fractional edge to touch at
least two.

Solvers are single-threaded per network; distinct networks share no state
and may be solved concurrently.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "FlowNetwork",
    "ScaledFlow",
    "check_flow",
    "flow_value",
    "max_flow_integral",
    "round_flow",
]


@dataclass(frozen=True, slots=True)
class FlowNetwork:
    """Directed network with integer capacities; edges are (from, to, capacity)."""

    node_count: int
    source: int
    sink: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if self.node_count < 2:
            raise ValueError("network needs at least a source and a sink")
        for name, node in (("source", self.source), ("sink", self.sink)):
            if not 0 <= node < self.node_count:
                raise ValueError(f"{name} id {node} out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for u, v, c in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"capacity of edge ({u}, {v}) must be a non-negative integer")


@dataclass(frozen=True, slots=True)
class ScaledFlow:
    """Per-edge flow numerators over one shared denominator (edge flow = numerator/denominator)."""

    denominator: int
    numerators: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(self.numerators))
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        if any(not isinstance(f, int) or f < 0 for f in self.numerators):
            raise ValueError("flow numerators must be non-negative integers")


def check_flow(net: FlowNetwork, flow: ScaledFlow) -> None:
    """Raise ValueError unless ``flow`` is feasible and exactly conservative on ``net``."""
    if len(flow.numerators) != len(net.edges):
        raise ValueError(
            f"flow has {len(flow.numerators)} entries for {len(net.edges)} edges"
        )
    balance = [0] * net.node_count
    for (u, v, c), f in zip(net.edges, flow.numerators):
        if f > c * flow.denominator:
            raise ValueError(f"flow {f}/{flow.denominator} exceeds capacity {c} on edge ({u}, {v})")
        balance[u] -= f
        balance[v] += f
    for node, b in enumerate(balance):
        if node not in (net.source, net.sink) and b != 0:
            raise ValueError(f"flow not conserved at node {node} (imbalance {b}/{flow.denominator})")


def flow_value(net: FlowNetwork, flow: ScaledFlow) -> Fraction:
    """Net flow out of the source."""
    out = sum(f for (u, _, _), f in zip(net.edges, flow.numerators) if u == net.source)
    back = sum(f for (_, v, _), f in zip(net.edges, flow.numerators) if v == net.source)
    return Fraction(out - back, flow.denominator)


def max_flow_integral(net: FlowNetwork) -> ScaledFlow:
    """Maximum integral flow via Dinic's algorithm (denominator 1).

    This is the solver behind every insertion step of the schedule.
    Deterministic: adjacency follows edge declaration order.

    Each phase levels the residual graph breadth-first and stops once the
    sink has its level: a node no nearer the source than the sink cannot
    lie on a shortest augmenting path.  The blocking flow is found by an
    iterative depth-first walk that keeps the current path as a list of
    edge ids and, after each augmentation, backs up to the tail of the
    first saturated edge.  That is exactly where the recursive walk would
    resume, so both augment along the same paths in the same order.  No
    closure or self-reference is built, so a solve leaves no cyclic
    garbage: everything it allocates is freed by reference counting.
    """
    m = len(net.edges)
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(net.node_count)]
    for u, v, c in net.edges:
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)

    s, t = net.source, net.sink
    while True:
        level = [-1] * net.node_count
        level[s] = 0
        queue = [s]
        for node in queue:
            nxt_level = level[node] + 1
            for eid in adj[node]:
                nxt = head[eid]
                if cap[eid] and level[nxt] < 0:
                    level[nxt] = nxt_level
                    if nxt == t:
                        break
                    queue.append(nxt)
            if level[t] >= 0:
                break
        if level[t] < 0:
            break

        it = [0] * net.node_count
        path: list[int] = []  # edge ids from s to node
        node = s
        while True:
            if node == t:
                got = min(cap[eid] for eid in path)
                for eid in path:
                    cap[eid] -= got
                    cap[eid ^ 1] += got
                saturated = next(k for k, eid in enumerate(path) if not cap[eid])
                del path[saturated:]
                node = head[path[-1]] if path else s
                continue
            edges = adj[node]
            end = len(edges)
            nxt_level = level[node] + 1
            i = it[node]
            while i < end:
                eid = edges[i]
                if cap[eid] and level[head[eid]] == nxt_level:
                    break
                i += 1
            it[node] = i
            if i < end:
                path.append(eid)
                node = head[eid]
            elif path:
                # dead end: step the tail of the edge that led here past it
                node = head[path.pop() ^ 1]
                it[node] += 1
            else:
                break

    flows = tuple(net.edges[i][2] - cap[2 * i] for i in range(m))
    return ScaledFlow(1, flows)


def round_flow(net: FlowNetwork, fractional: ScaledFlow) -> ScaledFlow:
    """Round a feasible fractional flow into an integral flow of equal value.

    The reference construction: the schedule itself is built with
    :func:`max_flow_integral`, and the tests check both on every insertion
    network.

    Preconditions (violations raise ValueError): ``fractional`` is feasible
    and conservative on ``net``, and every edge touching the source or the
    sink already carries an integral flow.

    Cycle search walks the fractional-edge subgraph depth-first, always
    taking the live edge with the smallest (neighbor id, edge id) pair, so
    the result is deterministic.
    """
    check_flow(net, fractional)
    d = fractional.denominator
    num = list(fractional.numerators)
    edges = net.edges
    terminals = (net.source, net.sink)
    for idx, (u, v, _) in enumerate(edges):
        if (u in terminals or v in terminals) and num[idx] % d:
            raise ValueError(
                f"edge ({u}, {v}) touches a terminal but carries fractional flow "
                f"{num[idx]}/{d}"
            )

    live = [f % d != 0 for f in num]
    remaining = sum(live)
    # Lazy-deletion heaps of (neighbor, edge id) per node; dead entries are
    # skipped on access, live edges may be looked at many times.
    heaps: list[list[tuple[int, int]]] = [[] for _ in range(net.node_count)]
    for eid, (u, v, _) in enumerate(edges):
        if live[eid]:
            heapq.heappush(heaps[u], (v, eid))
            heapq.heappush(heaps[v], (u, eid))

    def pick(node: int, banned: int) -> int | None:
        """Smallest live edge at ``node`` other than ``banned``."""
        h = heaps[node]
        while h and not live[h[0][1]]:
            heapq.heappop(h)
        if not h:
            return None
        if h[0][1] != banned:
            return h[0][1]
        top = heapq.heappop(h)
        while h and not live[h[0][1]]:
            heapq.heappop(h)
        alt = h[0][1] if h else None
        heapq.heappush(h, top)
        return alt

    start = 0
    stack: list[tuple[int, int]] = []  # (node, edge used to enter it)
    pos: dict[int, int] = {}
    while remaining:
        if not stack:
            while pick(start, -1) is None:
                start += 1
            stack.append((start, -1))
            pos[start] = 0
            continue
        node, entry = stack[-1]
        eid = pick(node, entry)
        if eid is None:
            pos.pop(node)
            stack.pop()
            continue
        u, v, _ = edges[eid]
        nxt = v if u == node else u
        if nxt not in pos:
            stack.append((nxt, eid))
            pos[nxt] = len(stack) - 1
            continue

        # Cycle: nxt -> ... -> node -> nxt.  Push the smallest slack around
        # it; traversal-forward edges gain flow, traversal-backward lose.
        j = pos[nxt]
        path_nodes = [stack[k][0] for k in range(j, len(stack))]
        cycle = [stack[k][1] for k in range(j + 1, len(stack))] + [eid]
        delta = None
        for step, e in enumerate(cycle):
            tail = path_nodes[step]
            room = d - num[e] % d if edges[e][0] == tail else num[e] % d
            if delta is None or room < delta:
                delta = room
        assert delta is not None and delta > 0
        for step, e in enumerate(cycle):
            tail = path_nodes[step]
            if edges[e][0] == tail:
                num[e] += delta
            else:
                num[e] -= delta
            assert 0 <= num[e] <= edges[e][2] * d
            if live[e] and num[e] % d == 0:
                live[e] = False
                remaining -= 1
        for k in range(j + 1, len(stack)):
            pos.pop(stack[k][0])
        del stack[j + 1 :]

    assert all(f % d == 0 for f in num)
    return ScaledFlow(1, tuple(f // d for f in num))
