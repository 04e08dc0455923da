"""Integer flow networks and Dinic's maximum flow.

``max_flow_integral`` (Dinic) is the solver behind every insertion step of
the schedule construction.  A flow is a tuple of ints, one per edge in
declaration order.

A ``FlowNetwork`` holds its edges as three parallel int columns, ``tails``,
``heads`` and ``caps``, not one tuple per edge: the schedule builds them a
column at a time, validation runs over whole columns, and the solver fills
its arc arrays from them by slice assignment.  ``edges`` is a read-only view
that zips the columns back into (tail, head, capacity) triples.

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
from itertools import count
from operator import eq, sub

__all__ = [
    "FlowNetwork",
    "max_flow_integral",
]


@dataclass(frozen=True, slots=True)
class FlowNetwork:
    """Directed network with integer capacities.

    Edge k runs from ``tails[k]`` to ``heads[k]`` with capacity ``caps[k]``;
    the columns are stored as tuples.  ``edges`` zips them into
    (tail, head, capacity) triples, built anew on each access.
    """

    node_count: int
    source: int
    sink: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    caps: tuple[int, ...]

    def __post_init__(self):
        tails, heads, caps = tuple(self.tails), tuple(self.heads), tuple(self.caps)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "caps", caps)
        if self.node_count < 2:
            raise ValueError("network needs at least a source and a sink")
        for name, node in (("source", self.source), ("sink", self.sink)):
            if not 0 <= node < self.node_count:
                raise ValueError(f"{name} id {node} out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if not len(tails) == len(heads) == len(caps):
            raise ValueError(
                f"edge columns differ in length: {len(tails)} tails, "
                f"{len(heads)} heads, {len(caps)} capacities"
            )
        # Whole-column checks in C; only a network they cannot clear is
        # walked edge by edge, to name its first bad edge.
        if not tails or (
            0 <= min(tails)
            and max(tails) < self.node_count
            and 0 <= min(heads)
            and max(heads) < self.node_count
            and 0 <= min(caps)
            and not any(map(eq, tails, heads))
            and set(map(type, caps)) <= {int, bool}
        ):
            return
        for u, v, c in zip(tails, heads, caps):
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"capacity of edge ({u}, {v}) must be a non-negative integer")

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The edges as (tail, head, capacity) triples, in declaration order."""
        return tuple(zip(self.tails, self.heads, self.caps))


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
    # Arc 2k is edge k and arc 2k+1 its reverse; each node lists the arcs
    # leaving it in id order.
    head = [0] * (2 * len(net.caps))
    head[0::2] = net.heads
    head[1::2] = net.tails
    cap = [0] * len(head)
    cap[0::2] = net.caps
    adj: list[list[int]] = [[] for _ in range(net.node_count)]
    for eid, u, v in zip(count(0, 2), net.tails, net.heads):
        adj[u].append(eid)
        adj[v].append(eid + 1)

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

    return tuple(map(sub, net.caps, cap[0::2]))

