"""Constructive Baranyai factorization of the 4-subsets of {0..n-1}.

For every n >= 4 the C(n,4) four-element subsets split into
t = ceil(C(n,4) / floor(n/4)) rounds of disjoint subsets, each subset
appearing exactly once (Baranyai, 1975); no schedule has fewer rounds.
Round r holds a_r subsets, floor(n/4) in all but the last
(:func:`round_sizes`).  Elements 0, 1, ..., n-1 are inserted one at a time
into a table of partially filled slots, each along a max flow.

State invariants (PartialState, after inserting elements 0..i-1):
  * round r holds a_r disjoint slots, subsets of {0..i-1} of size at most
    4; a round covers the elements it took;
  * round r still needs R_r = sum of 4-|S| over its slots S, R_r <= n-i;
  * every partial subset S occurs in exactly C(n-i, 4-|S|) slots.

With d = n-i elements left, round r must take element i when R_r = d and
may take it when 0 < R_r < d.  The insertion network has a source, one
node per round, one per distinct partial subset S with |S| < 4, a sink and
a hub.  Round r's in-edge (capacity 1) comes from the source when the
round must take the element and from the hub when it may; a complete
round's has capacity 0.  The source feeds the hub C(n-1,3) minus the
forced rounds.  Round->S edges carry the slot multiplicity, S->sink edges
C(n-i-1, 3-|S|).  Sending (4-|S|)/d through each slot, so R_r/d into
round r, is a flow of value C(n-1,3), all the source can send.  So an
integral flow of that value exists, and any such flow serves every forced
round and gives each other round at most one element.  Its sink edges
then sum to C(n-1,3) = sum over S of C(n-i-1, 3-|S|) (Vandermonde), so
every one is saturated.  Inserting the element into the chosen slots
restores every invariant.  When 4 | n every round is forced at every
step and the hub edge has capacity 0.

The network is never built.  Its edges, in declaration order, are the
round in-edges, each round's middle edges in row order, the sink edges and
the source->hub edge.  Dinic's algorithm on it (kept in the tests as the
oracle, with the network builder) is run on the slot table instead, and
augments along the same paths in the same order:
  * the walk takes the source and the hub for two more nodes beside the
    subsets, and walks every path from the source.  Each round's in-edge
    comes from its origin, the source when the round must take the
    element and the hub when it may, and a round that takes no slot is
    said to feed its origin.  So every node's live arcs toward the rounds
    are to the rounds that feed it, in round order: a subset's are the
    reverse edges of the rounds matched to it, the source's and the hub's
    the in-edges of their free rounds.  After them comes the node's last
    arc: a subset's sink edge, the source's hub edge; the hub has none;
  * every path starts on a capacity-1 arc into a round, from the source
    or, past the hub edge, from the hub, so it carries one unit; the walk
    then starts again at the source, every current arc kept, as Dinic's
    does;
  * a round holds at most one unit, so its flow is one matched slot; its
    arcs are its reverse in-edge to its origin (live when it is matched,
    and of use only when the hub is its origin) and then its row;
  * a matched round is reached only from the subset it feeds, one level
    down, and a free round only from its origin, so no row arc needs a
    capacity check and the multiplicities never decide a path;
  * Dinic's paths depend only on that arc order and on the breadth-first
    levels below the sink's, and within a phase an arc can only leave the
    level graph (an augmentation gives capacity only to reverse arcs, which
    run a level back down), so a node's current arc may skip the arcs of
    capacity 0, most of a subset's, and still land where Dinic's does.

Three shortcuts keep the walk on those paths:
  * the first phase is a greedy pass.  No round is matched yet, so with a
    forced round the shortest paths are source, forced round, subset,
    sink: every subset in a forced round's row has room, since its 4-|S|
    is at most R_r = d, so the sink is three levels down and the hub's
    paths, one longer, wait for a later phase.  The walk then takes each
    forced round in round order to the first slot of its row whose sink
    edge still has room.  With no round forced, every path is source, hub,
    round, subset, sink, and the walk takes each round in round order the
    same way: the hub edge holds C(n-1,3), as much as all the sink edges
    together, so it is never full first;
  * each later phase levels the network from the sink: one breadth-first
    search over the reversed arcs gives each node its distance d to the
    sink and stops once the source has its distance L.  A node lies on a
    shortest path exactly when its level and d sum to L, and between two
    such nodes the level-graph arcs u->v are exactly those with
    d(v) = d(u) - 1.  So the walk, which starts on the source's arcs into
    nodes at L-1 and steps only to a node one closer to the sink, enters
    just the nodes Dinic's walk would not find dead at the phase's start;
    a node dead then stays dead through the phase, so Dinic's would enter
    it, find it dead and step past it, and skipping it moves no path.  The
    search enters a subset from every round whose row holds it, also from
    a round feeding it through its only slot of it, an arc with no room,
    and the hub from every round it may feed, also from a free one, whose
    reverse in-edge has no room; the walk enters such a round only from
    the node it feeds, and the extra arc can give the round only a
    distance one above that node's, never the one below that the walk
    looks for;
  * each node reads the rounds feeding it live, scanning in round order
    the rounds with an arc into it, and no snapshot taken at a phase's
    start is needed.  A round that comes to feed a node during a phase
    gets there along an arc that runs one level down, so it sits one level
    above the node, where the node's arcs look one level below; and a
    round that left the node no longer feeds it.  A matched forced round
    is never freed again, since its only way back is its reverse in-edge
    to the source, so the source scans only the forced rounds the first
    phase left free.

The state is kept in the order the network needs and updated in place at
each step, not re-derived.  Each partial subset has an int slot id, given
when the subset is first grown and never reused, with the subset and its
size in id-indexed tables, so a sink edge's room is a lookup by size and
no step numbers the subsets again.  The numbering moves no path: levels
are breadth-first distances, and the walk orders its arcs by round and
by row position, never by id.  Each round keeps a slot row: one id per
open slot, in (size, subset) order, so the empty slot's id repeats at its
head, and R_r is stored and decremented.  Elements are inserted in
increasing order, so the slot grown at step i is (i,) + S: every element
of S is below i, so this is already descending, and it sorts last among
the round's slots of its size, since every other slot holds only elements
below i.  All the rounds that take S share one new id for (i,) + S, put at
the end of its size group, which keeps each row in order with no sort.
Filled 4-subsets leave the row.

Construction is sequential across insertions; schedules for distinct n may
be built concurrently, and finished Schedule values are immutable.
"""

from bisect import bisect_right
from collections import Counter
from math import comb
from typing import NamedTuple

__all__ = [
    "Schedule",
    "build_schedule",
    "round_sizes",
]

SUBSET_SIZE = 4


def round_sizes(n: int) -> tuple[int, ...]:
    """Subsets per round for n modes: t = ceil(C(n,4) / floor(n/4)) rounds,
    all of floor(n/4) subsets but the last, which holds the remainder."""
    if n < SUBSET_SIZE:
        raise ValueError(f"need at least {SUBSET_SIZE} modes, got {n}")
    per_round = n // SUBSET_SIZE
    full, rest = divmod(comb(n, SUBSET_SIZE), per_round)
    return (per_round,) * full + ((rest,) if rest else ())


class Schedule(NamedTuple):
    """Rounds of disjoint 4-subsets; subsets are descending tuples.

    Canonical form: within a round subsets are sorted in descending
    lexicographic order, rounds ascending by their tuple of subsets.
    """

    n: int
    rounds: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def from_rounds(cls, n, rounds) -> "Schedule":
        canon = []
        for rnd in rounds:
            subsets = sorted((tuple(sorted(s, reverse=True)) for s in rnd), reverse=True)
            canon.append(tuple(subsets))
        canon.sort()
        return cls(n, tuple(canon))


class PartialState:
    """Slot table during construction; see the module docstring for invariants.

    Slots are int ids, one per distinct partial subset and never reused:
    ``subsets[id]`` is the descending subset (|S| < 4) and ``sizes[id]`` its
    size.  ``rows[r]`` is round r's slot row, one id per open slot in (size,
    subset) order, so the empty slot's id 0 repeats at its head;
    ``needed[r]`` is R_r, and ``closed[r]`` lists the round's 4-subsets,
    as tuples, filled so far.  ``_apply`` updates the state in place.
    """

    def __init__(self, n, inserted, rows, needed, closed, subsets, sizes):
        self.n = n
        self.inserted = inserted
        self.rows: list[list[int]] = rows
        self.needed: list[int] = needed
        self.closed: list[list[tuple[int, ...]]] = closed
        self.subsets: list[tuple[int, ...]] = subsets
        self.sizes: list[int] = sizes

    @classmethod
    def initial(cls, n: int) -> "PartialState":
        sizes = round_sizes(n)
        return cls(
            n,
            0,
            [[0] * size for size in sizes],
            [SUBSET_SIZE * size for size in sizes],
            [[] for _ in sizes],
            [()],
            [0],
        )


HUB = -1  # the hub, as a node: the last entry of every per-node list
SOURCE = -2  # the source, as a node: the entry before the hub's


def _distances(feeds, rounds_of, room, hub_room):
    """Breadth-first distances to the sink on the insertion network of the
    slot table, searched from the sink over the reversed arcs.

    The other nodes are the types, then the source and the hub, indexed as
    in ``room``, the room left on each node's sink edge.  The search steps
    from round r to the node it feeds, ``feeds[r]``, from node s to the
    rounds in ``rounds_of[s]``, and from the hub to the source while
    ``hub_room`` is left on the source's hub edge.  Returns (round
    distances, node distances, source distance), -1 for a node not
    reached; the source distance L is -1 when the source cannot reach the
    sink.  The search stops once the source has its distance, so only the
    distances below L are complete.
    """
    round_dist = [-1] * len(feeds)
    node_dist = [-1] * len(room)
    rounds = []
    nodes = [s for s, held in enumerate(rounds_of) if held and room[s]]
    for s in nodes:
        node_dist[s] = 1
    k = 1
    while rounds or nodes:
        k += 1
        next_rounds, next_nodes = [], []
        # a round from the node it feeds: a matched round from its type, a
        # free round from its origin
        for r in rounds:
            s = feeds[r]
            if s == SOURCE:
                return round_dist, node_dist, k
            if node_dist[s] < 0:
                node_dist[s] = k
                next_nodes.append(s)
        # a type from every round whose row holds it, the hub from the
        # source and from every optional round
        for s in nodes:
            if s == HUB and hub_room:
                return round_dist, node_dist, k
            for r in rounds_of[s]:
                if round_dist[r] < 0:
                    round_dist[r] = k
                    next_rounds.append(r)
        rounds, nodes = next_rounds, next_nodes
    return round_dist, node_dist, -1


def _insertion_choice(state: PartialState) -> dict[int, int]:
    """The slot each round takes element i in, as {round: slot id}.

    Exactly the choice of Dinic's algorithm on the step's insertion
    network, run on the slot table (see the module docstring): the first
    phase as the greedy pass it is, then phases levelled by one
    breadth-first search from the sink, each walked from the source one
    step closer to the sink at a time.  The source and the hub are two
    more nodes after the types, the last two entries of every per-node
    list, and the walk steps from any node to the rounds that feed it now
    by one rule.
    """
    n, i = state.n, state.inserted
    if i >= n:
        raise ValueError("all elements already inserted")
    d = n - i
    rows, needed = state.rows, state.needed
    m = len(rows)
    room_by_size = [comb(d - 1, SUBSET_SIZE - 1 - k) for k in range(SUBSET_SIZE)]
    # room[s]: what is left on node s's sink edge; the source and the hub,
    # the last two nodes, have none
    room = [room_by_size[size] for size in state.sizes] + [0, 0]
    forced = [r for r in range(m) if needed[r] == d]
    optional = [r for r in range(m) if 0 < needed[r] < d]
    hub_room = comb(n - 1, 3) - len(forced)
    # origin[r]: the node round r's in-edge comes from; feeds[r]: the slot
    # round r takes the element in, or its origin while it takes none
    origin = [HUB if 0 < r_needed < d else SOURCE for r_needed in needed]
    feeds = origin.copy()

    # The first phase: each forced round in round order, or with none
    # forced each optional round through the hub, takes the first slot of
    # its row whose sink edge has room.
    for r in forced or optional:
        for s in rows[r]:
            if room[s]:
                room[s] -= 1
                feeds[r] = s
                if not forced:
                    hub_room -= 1
                break

    # rounds_of[s]: the rounds with an arc into node s, in round order:
    # those whose row holds type s, for the source the forced rounds the
    # first phase left free, for the hub the optional rounds.  A node's
    # arcs toward the rounds are those of its rounds that feed it now.  The
    # rows do not change before _apply.
    rounds_of = [[] for _ in room]
    for r, row in enumerate(rows):
        for s in row:
            rounds_of[s].append(r)
    rounds_of[SOURCE] = [r for r in forced if feeds[r] == SOURCE]
    rounds_of[HUB] = optional
    # what the source can still send: a unit to each free forced round and
    # what is left on its hub edge
    left = len(rounds_of[SOURCE]) + hub_room

    while left:
        round_dist, node_dist, source_dist = _distances(feeds, rounds_of, room, hub_room)
        if source_dist < 0:
            break
        node_dist[SOURCE] = source_dist

        # Blocking flow, walked from the source.  Current arcs: node_arc[s]
        # indexes rounds_of[s], with the node's last arc (the source's hub
        # edge, a type's sink edge) at its end; round_arc[r] is -1 for the
        # reverse in-edge and k for row position k.  path holds the rounds
        # from the source to node at, each entered from the node it feeds.
        node_arc = [0] * len(room)
        round_arc = [-1] * m
        path, at, sent = [], SOURCE, left
        while True:
            next_dist = node_dist[at] - 1
            # a node one from the sink has no round one closer
            arcs = rounds_of[at] if next_dist else ()
            for j in range(node_arc[at], len(arcs)):
                r = arcs[j]
                if feeds[r] == at and round_dist[r] == next_dist:
                    break
            else:
                j = len(arcs)
            node_arc[at] = j
            if j < len(arcs):
                path.append(r)
            elif at == SOURCE:
                if not hub_room or node_dist[HUB] != next_dist:
                    break  # the source is dead: the phase is over
                at = HUB
                continue
            elif room[at] and next_dist == 0:  # the sink
                # augment one unit: each round on the path now feeds the
                # node its current arc leads to, and the walk starts again
                # at the source
                room[at] -= 1
                left -= 1
                for r in reversed(path):
                    feeds[r], at = at, feeds[r]
                if at == HUB:  # the node the path's first round fed
                    hub_room -= 1
                path, at = [], SOURCE
                continue
            else:
                # dead end, for the rest of the phase: unlevel it and step
                # the round that led here past it; with no round, it is the
                # hub, entered by the source's hub edge
                node_dist[at] = -1
                if not path:
                    at = SOURCE
                    continue
                r = path[-1]
                round_arc[r] += 1
            # round r, from its current arc: its reverse in-edge, then its
            # row; no row arc needs a capacity check, since only the arc to
            # the slot a round feeds can be full, and a matched round is
            # only reached from that type, one farther from the sink
            next_dist = round_dist[r] - 1
            k = round_arc[r]
            if k < 0 and node_dist[origin[r]] == next_dist:
                at = origin[r]
                continue
            row = rows[r]
            for k in range(max(k, 0), len(row)):
                if node_dist[row[k]] == next_dist:
                    round_arc[r], at = k, row[k]
                    break
            else:
                # dead end: unlevel it and step the node it feeds, which
                # led here, past it
                round_dist[r] = -1
                path.pop()
                at = feeds[r]
                node_arc[at] += 1
        if left == sent:
            # a phase that reaches the source always augments; should a fault
            # break that, stop here and let _apply refuse the short choice
            break
    return {r: s for r, s in enumerate(feeds) if s >= 0}


def _apply(state: PartialState, chosen: dict[int, int]) -> None:
    """Insert element i, in place, into the slot each chosen round takes it
    in, ``chosen`` being {round: slot id}.

    The choice must serve the step's insertion network at full value: every
    id is an open slot of its round, C(n-1,3) rounds take the element,
    every forced round among them, and each subset S is taken C(d-1, 3-|S|)
    times, the capacity of its sink edge.  Every check runs before the state
    is touched, so a rejected choice leaves no trace; the messages name
    subsets, not ids.
    """
    n, i = state.n, state.inserted
    rows, needed, closed = state.rows, state.needed, state.closed
    subsets, sizes = state.subsets, state.sizes
    m = len(rows)
    for r, s in chosen.items():
        if not (0 <= r < m and s in rows[r]):
            known = type(s) is int and 0 <= s < len(subsets)
            name = subsets[s] if known else f"(no subset has id {s!r})"
            raise ValueError(f"round {r} has no open slot {name}")
    if len(chosen) != comb(n - 1, 3):
        raise ValueError("choice does not have full value")
    d = n - i
    for r, r_needed in enumerate(needed):
        if r_needed == d and r not in chosen:
            raise ValueError(f"round {r} must take element {i} but received none")
    # The sink edges sum to the full value, so once every subset taken fills
    # its own, every open subset is taken (see the module docstring).
    for s, taken in Counter(chosen.values()).items():
        room = comb(d - 1, SUBSET_SIZE - 1 - sizes[s])
        if taken != room:
            raise ValueError(f"subset {subsets[s]} taken {taken} times, its sink edge holds {room}")

    grown_id = {}  # the id of (i,) + subsets[s], by s
    for r, s in chosen.items():
        row = rows[r]
        row.remove(s)
        # Every other slot holds only elements below i, so (i,) + S is
        # descending and sorts last among the round's slots of its size.
        size = sizes[s] + 1
        if size == SUBSET_SIZE:
            closed[r].append((i,) + subsets[s])
        else:
            grown = grown_id.get(s)
            if grown is None:
                grown = grown_id[s] = len(subsets)
                subsets.append((i,) + subsets[s])
                sizes.append(size)
            row.insert(bisect_right(row, size, key=sizes.__getitem__), grown)
        needed[r] -= 1
    state.inserted = i + 1


def build_schedule(n: int) -> Schedule:
    """The schedule of round_sizes(n) rounds for any n >= 4; deterministic.

    Each insertion is Dinic's choice on its network, made on the slot table.
    """
    state = PartialState.initial(n)
    for _ in range(n):
        _apply(state, _insertion_choice(state))
    return Schedule.from_rounds(n, state.closed)
