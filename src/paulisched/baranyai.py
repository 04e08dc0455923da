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
  * every path starts on a capacity-1 arc into a round, from the source
    (the forced rounds, in round order, then the hub edge) or from the hub
    (the other rounds, in round order), so it carries one unit, and the
    walk resumes at the source or the hub, the tail of the first arc it
    saturates;
  * a round holds at most one unit, so its flow is one matched slot; its
    arcs are its reverse in-edge (live when it is matched, and of use only
    when the hub feeds it) and then its row;
  * a subset's live arcs are the reverse edges of the rounds matched to it,
    in round order, and then its sink edge;
  * a matched round is reached only from the subset it feeds, one level
    down, so no row arc needs a capacity check and the multiplicities
    never decide a path;
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
    a round feeding it through its only slot of it, an arc with no room;
    the walk enters such a round only from that subset, and the extra arc
    can give the round only a distance one above the subset's, never the
    one below that the walk looks for;
  * the rounds matched to each subset are kept from phase to phase: a
    phase records each augmentation's (round, old slot, new slot) and
    replays them once it is over, so every phase, like Dinic's, reads them
    as they were at its start and skips a round that moved since.

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

from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from math import comb

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


@dataclass(frozen=True, slots=True)
class Schedule:
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

    @property
    def subset_count(self) -> int:
        return sum(len(rnd) for rnd in self.rounds)


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


HUB = -1  # the hub, where the node a round's arc leads to is otherwise a slot id


def _distances(pos, feeds, rounds_of, room, optional, hub_fed, hub_room):
    """Breadth-first distances to the sink on the insertion network of the
    slot table, searched from the sink over the reversed arcs.

    Returns (round distances, type distances, hub distance, source
    distance), -1 for a node not reached; the source distance L is -1 when
    the source cannot reach the sink.  The search stops once the source
    has its distance, so only the distances below L are complete.
    """
    round_dist = [-1] * len(pos)
    type_dist = [-1] * len(room)
    hub_dist = -1
    rounds, hub_now = [], False
    types = [s for s, held in enumerate(rounds_of) if held and room[s]]
    for s in types:
        type_dist[s] = 1
    k = 1
    while rounds or types or hub_now:
        k += 1
        next_rounds, next_types = [], []
        # the hub is entered from the source and from every matched
        # optional round
        if hub_now:
            if hub_room:
                return round_dist, type_dist, hub_dist, k
            for r in optional:
                if pos[r] and round_dist[r] < 0:
                    round_dist[r] = k
                    next_rounds.append(r)
            hub_now = False
        # a matched round from the type it feeds, a free optional round from
        # the hub and a free forced round from the source
        for r in rounds:
            if pos[r]:
                s = feeds[r]
                if type_dist[s] < 0:
                    type_dist[s] = k
                    next_types.append(s)
            elif not hub_fed[r]:
                return round_dist, type_dist, hub_dist, k
            elif hub_dist < 0:
                hub_dist, hub_now = k, True
        # a type from every round whose row holds it
        for s in types:
            for r in rounds_of[s]:
                if round_dist[r] < 0:
                    round_dist[r] = k
                    next_rounds.append(r)
        rounds, types = next_rounds, next_types
    return round_dist, type_dist, hub_dist, -1


def _insertion_choice(state: PartialState) -> dict[int, int]:
    """The slot each round takes element i in, as {round: slot id}.

    Exactly the choice of Dinic's algorithm on the step's insertion
    network, run on the slot table (see the module docstring): the first
    phase as the greedy pass it is, then phases levelled by one
    breadth-first search from the sink, whose walk steps only one closer to
    the sink at a time, with the rounds each type feeds kept from one phase
    to the next.
    """
    n, i = state.n, state.inserted
    if i >= n:
        raise ValueError("all elements already inserted")
    d = n - i
    rows, needed = state.rows, state.needed
    m = len(rows)
    room_by_size = [comb(d - 1, SUBSET_SIZE - 1 - k) for k in range(SUBSET_SIZE)]
    room = list(map(room_by_size.__getitem__, state.sizes))  # sink edge left
    forced = [r for r in range(m) if needed[r] == d]
    optional = [r for r in range(m) if 0 < needed[r] < d]
    hub_fed = [0 < r_needed < d for r_needed in needed]
    hub_room = comb(n - 1, 3) - len(forced)
    # pos[r]: 1 + row position of the slot round r feeds, 0 if none; feeds[r]
    # is that slot's id, -1 if none; holders[s]: the rounds feeding s, in
    # round order
    pos = [0] * m
    feeds = [-1] * m
    holders = [[] for _ in room]

    # The first phase: each forced round in round order, or with none
    # forced each optional round through the hub, takes the first slot of
    # its row whose sink edge has room.
    for r in forced or optional:
        for k, s in enumerate(rows[r]):
            if room[s]:
                room[s] -= 1
                pos[r], feeds[r] = k + 1, s
                holders[s].append(r)
                if not forced:
                    hub_room -= 1
                break
    free_forced = [r for r in forced if not pos[r]]
    free_optional = [r for r in optional if not pos[r]]

    # rounds_of[s]: the rounds whose row holds type s, in round order; the
    # rows do not change before _apply
    rounds_of = [[] for _ in room]
    for r, row in enumerate(rows):
        for s in row:
            rounds_of[s].append(r)

    while True:
        round_dist, type_dist, hub_dist, source_dist = _distances(
            pos, feeds, rounds_of, room, optional, hub_fed, hub_room
        )
        if source_dist < 0:
            break

        # Blocking flow.  Current arcs: round_arc[r] is -1 for the reverse
        # in-edge and k for row position k; type_arc[s] indexes holders[s],
        # with the sink edge at its end; hub_arc indexes via_hub.  Each
        # augmentation's moves, (round, old slot, new slot), are recorded
        # and reach holders and the free lists only once the phase is over.
        round_arc = [-1] * m
        type_arc = [0] * len(room)
        via_hub = [r for r in free_optional if round_dist[r] == hub_dist - 1]
        hub_arc = 0
        moves = []
        # the source's arcs on a shortest path: its free forced rounds, then
        # its hub edge, which comes after every round's
        starts = [r for r in free_forced if round_dist[r] == source_dist - 1]
        from_source = len(starts)
        if hub_room and hub_dist == source_dist - 1:
            starts += via_hub
        for first, r in enumerate(starts):
            from_hub = first >= from_source
            if from_hub and not hub_room:
                break
            path = [r]
            at = None  # the node round r's current arc leads to, once found
            while True:
                if at is None:
                    # round r: its reverse in-edge, then its row; no row arc
                    # needs a capacity check, since a matched round is only
                    # reached from the type it feeds, one farther from the sink
                    next_dist = round_dist[r] - 1
                    k = round_arc[r]
                    if k < 0 and hub_dist == next_dist and pos[r] and hub_fed[r]:
                        at = HUB
                    else:
                        row = rows[r]
                        for k in range(max(k, 0), len(row)):
                            if type_dist[row[k]] == next_dist:
                                at = row[k]
                                break
                        else:
                            k = len(row)
                        round_arc[r] = k
                    if at is None:
                        # dead end, for the rest of the phase: unlevel it, so
                        # no scan enters it again, and step the node that led
                        # here past it
                        round_dist[r] = -1
                        path.pop()
                        if not path:
                            break
                        r = path[-1]
                        k = round_arc[r]
                        if k < 0:
                            at = HUB
                            hub_arc += 1
                        else:
                            at = rows[r][k]
                            type_arc[at] += 1
                if at == HUB:
                    for j in range(hub_arc, len(via_hub)):
                        x = via_hub[j]
                        if not pos[x] and round_dist[x] > 0:
                            break
                    else:
                        j = len(via_hub)
                    hub_arc = j
                    if j < len(via_hub):
                        r = x
                        path.append(r)
                        at = None
                        continue
                    hub_dist = -1
                else:
                    s = at
                    held = holders[s]
                    next_dist = type_dist[s] - 1
                    for j in range(type_arc[s], len(held)):
                        x = held[j]
                        if feeds[x] == s and round_dist[x] == next_dist:
                            break
                    else:
                        j = len(held)
                    type_arc[s] = j
                    if j < len(held):
                        r = x
                        path.append(r)
                        at = None
                        continue
                    if room[s] and next_dist == 0:  # the sink
                        # augment one unit: each round on the path now feeds
                        # the slot its current arc leads to, or none via the hub
                        room[s] -= 1
                        if from_hub:
                            hub_room -= 1
                        for x in path:
                            k = round_arc[x]
                            new = rows[x][k] if k >= 0 else -1
                            moves.append((x, feeds[x], new))
                            pos[x] = k + 1
                            feeds[x] = new
                        break
                    type_dist[s] = -1
                # dead end at the type or the hub, unlevelled above: step
                # round r past it
                round_arc[r] += 1
                at = None
        if not moves:
            # a phase that reaches the source always augments; should a fault
            # break that, stop here and let _apply refuse the short choice
            break
        for x, old, new in moves:
            if old >= 0:
                holders[old].remove(x)
            elif hub_fed[x]:
                free_optional.remove(x)
            else:
                free_forced.remove(x)
            insort(holders[new] if new >= 0 else free_optional, x)
    return {r: rows[r][k - 1] for r, k in enumerate(pos) if k}


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
