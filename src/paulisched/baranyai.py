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
  * before each later walk, every node that cannot reach the sink in the
    level graph is unlevelled, from the sink down: a subset one level
    below it with no room left; further down, a round whose row holds no
    live subset one level up and that does not feed a live hub there, a
    subset none of whose matched rounds one level up is live, and a hub
    none of whose free rounds is.  The rounds and the hub one level below
    the sink are dead, since nothing at the sink's level is levelled.  A
    node dead at the start of a phase stays dead through it, so the walk
    would enter each one, find it dead and step past it; skipping it moves
    no path;
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


def _levels(rows, pos, holders, room, starts, free_optional, hub_fed, hub_room):
    """Dinic's breadth-first levels on the insertion network of the slot table.

    Returns (round levels, type levels, hub level, sink level, layers), -1
    for a node not levelled; the sink level is -1 when the sink is
    unreachable, and ``layers[k]`` lists level k's (rounds, types).  Levels
    are exact below the sink's; like Dinic's search, the walk stops once
    the sink has its level, so nothing at or past it is levelled.
    """
    round_level = [-1] * len(rows)
    type_level = [-1] * len(room)
    for r in starts:
        round_level[r] = 1
    hub_level = 1 if hub_room else -1
    layers, rounds, types, hub_now, level = [None], starts, [], hub_level == 1, 1
    while True:
        layers.append((rounds, types))
        if any(map(room.__getitem__, types)):
            return round_level, type_level, hub_level, level + 1, layers
        level += 1
        next_rounds, next_types = [], []
        if hub_now:
            # a free optional round is reached only through the hub
            for r in free_optional:
                round_level[r] = level
            next_rounds += free_optional
        for s in types:
            for r in holders[s]:
                if round_level[r] < 0:
                    round_level[r] = level
                    next_rounds.append(r)
        hub_now = False
        for r in rounds:
            if pos[r] and hub_level < 0 and hub_fed[r]:
                hub_level, hub_now = level, True
            for s in rows[r]:
                if type_level[s] < 0:
                    type_level[s] = level
                    next_types.append(s)
        if not (next_rounds or next_types or hub_now):
            return round_level, type_level, hub_level, -1, layers
        rounds, types = next_rounds, next_types


def _insertion_choice(state: PartialState) -> dict[int, int]:
    """The slot each round takes element i in, as {round: slot id}.

    Exactly the choice of Dinic's algorithm on the step's insertion
    network, run on the slot table (see the module docstring): the first
    phase as the greedy pass it is, then phases that unlevel every node
    with no path to the sink before they walk, with the rounds each type
    feeds kept from one phase to the next.
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

    while True:
        round_level, type_level, hub_level, sink_level, layers = _levels(
            rows, pos, holders, room, free_forced, free_optional, hub_fed, hub_room
        )
        if sink_level < 0:
            break
        # Prune, from the sink down, every node with no path to the sink
        # (see the module docstring): one level below it a type without
        # room; further down a round whose row holds no live type and that
        # does not feed a live hub, a type none of whose rounds is live, and
        # a hub none of whose free rounds is.  Nothing at the sink's level is
        # levelled, so the rounds and the hub one below it are dead too.
        live_rounds, live_types = set(), set()
        for s in layers[-1][1]:
            if room[s]:
                live_types.add(s)
            else:
                type_level[s] = -1
        if hub_level == sink_level - 1:
            hub_level = -1
        for level in range(sink_level - 2, 0, -1):
            rounds, types = layers[level]
            hub_next = hub_level == level + 1
            next_rounds = set()
            for r in rounds:
                if live_types.isdisjoint(rows[r]) and not (hub_next and pos[r] and hub_fed[r]):
                    round_level[r] = -1
                else:
                    next_rounds.add(r)
            next_types = set()
            for s in types:
                if live_rounds.isdisjoint(holders[s]):
                    type_level[s] = -1
                else:
                    next_types.add(s)
            if hub_level == level and live_rounds.isdisjoint(free_optional):
                hub_level = -1
            live_rounds, live_types = next_rounds, next_types

        # Blocking flow.  Current arcs: round_arc[r] is -1 for the reverse
        # in-edge and k for row position k; type_arc[s] indexes holders[s],
        # with the sink edge at its end; hub_arc indexes via_hub.  Each
        # augmentation's moves, (round, old slot, new slot), are recorded
        # and reach holders and the free lists only once the phase is over.
        round_arc = [-1] * m
        type_arc = [0] * len(room)
        via_hub = [r for r in free_optional if round_level[r] == hub_level + 1]
        hub_arc = 0
        moves = []
        from_source = len(free_forced)
        # the source's hub edge comes after every round's
        starts = free_forced + via_hub if hub_level == 1 else free_forced
        for first, r in enumerate(starts):
            from_hub = first >= from_source
            if from_hub and not hub_room:
                break
            if round_level[r] < 0:
                continue  # pruned
            path = [r]
            at = None  # the node round r's current arc leads to, once found
            while True:
                if at is None:
                    # round r: its reverse in-edge, then its row; no row arc
                    # needs a capacity check, since a matched round is only
                    # reached from the type it feeds, one level down
                    next_level = round_level[r] + 1
                    k = round_arc[r]
                    if k < 0 and hub_level == next_level and pos[r] and hub_fed[r]:
                        at = HUB
                    else:
                        row = rows[r]
                        for k in range(max(k, 0), len(row)):
                            if type_level[row[k]] == next_level:
                                at = row[k]
                                break
                        else:
                            k = len(row)
                        round_arc[r] = k
                    if at is None:
                        # dead end, for the rest of the phase: unlevel it, so
                        # no scan enters it again, and step the node that led
                        # here past it
                        round_level[r] = -1
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
                        if not pos[x] and round_level[x] > 0:
                            break
                    else:
                        j = len(via_hub)
                    hub_arc = j
                    if j < len(via_hub):
                        r = x
                        path.append(r)
                        at = None
                        continue
                    hub_level = -1
                else:
                    s = at
                    held = holders[s]
                    next_level = type_level[s] + 1
                    for j in range(type_arc[s], len(held)):
                        x = held[j]
                        if feeds[x] == s and round_level[x] == next_level:
                            break
                    else:
                        j = len(held)
                    type_arc[s] = j
                    if j < len(held):
                        r = x
                        path.append(r)
                        at = None
                        continue
                    if room[s] and sink_level == next_level:
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
                    type_level[s] = -1
                # dead end at the type or the hub, unlevelled above: step
                # round r past it
                round_arc[r] += 1
                at = None
        if not moves:
            # a phase that levels the sink always augments; should a fault
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
