"""Integer flow networks and Dinic's maximum flow.

``max_flow_integral`` (Dinic) is the solver behind every insertion step of
the schedule construction.  A flow is a tuple of ints, one per edge in
declaration order.

``max_flow_integral`` is iterative: each phase levels the residual graph
breadth-first only until the sink has its level, and the blocking flow
walks a path held as a list of edge ids, with no recursion and no nested
closure.  A solve therefore builds no reference cycles, and its adjacency
lists are freed by reference counting as soon as it returns, whether or
not the cyclic garbage collector runs.

Solvers are single-threaded per network; distinct networks share no state
and may be solved concurrently.
"""

from dataclasses import dataclass

__all__ = [
    "FlowNetwork",
    "max_flow_integral",
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


def max_flow_integral(net: FlowNetwork) -> tuple[int, ...]:
    """Maximum integral flow via Dinic's algorithm, one flow per edge.

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

    return tuple(net.edges[i][2] - cap[2 * i] for i in range(m))

