import heapq
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import comb, lcm
from operator import sub

import pytest
from hypothesis import settings

settings.register_profile("det", derandomize=True, deadline=None)
settings.load_profile("det")

from paulisched.baranyai import round_sizes
from paulisched.fermion import FermionicTerm, UnsupportedTermError, _product_phase
from paulisched.oracles import weighted_sum_matrix
from paulisched.partition import CommutingFamily, HamiltonianCoefficients
from paulisched.pauli import ExactComplex, PauliString, WeightedPauliString


def times_i_power(c: ExactComplex, k: int) -> ExactComplex:
    """Return c * i**k."""
    k %= 4
    if k == 0:
        return c
    if k == 1:
        return ExactComplex(-c.imag, c.real)
    if k == 2:
        return ExactComplex(-c.real, -c.imag)
    return ExactComplex(c.imag, -c.real)


def abs_squared(c: ExactComplex) -> Fraction:
    return c.real * c.real + c.imag * c.imag


def string_product(p: PauliString, q: PauliString) -> tuple[PauliString, int]:
    """Positionwise product p*q, returned as (string, k) with global phase i**k.

    The test reference for ``fermion._product_phase``, the phase rule the
    Jordan-Wigner kernel takes per product path; the dense-matrix tests of
    :func:`multiply` check it.
    """
    if p.n != q.n:
        raise ValueError(f"Pauli strings act on different registers: {p.n} != {q.n}")
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z), _product_phase(p.x, p.z, q.x, q.z)


def multiply(p: WeightedPauliString, q: WeightedPauliString) -> WeightedPauliString:
    """Product of two weighted strings with the global phase folded into the coefficient."""
    product, k = string_product(p.string, q.string)
    return WeightedPauliString(times_i_power(p.coefficient * q.coefficient, k), product)


def string_matrix(p: PauliString) -> dict:
    """The exact matrix of one string: the oracle's weighted sum at coefficient 1."""
    return weighted_sum_matrix([WeightedPauliString(ExactComplex(1), p)], p.n)


def identity_matrix(n: int) -> dict:
    return {(b, b): ExactComplex(1) for b in range(1 << n)}


def matrix_sum(*matrices: dict) -> dict:
    """The sum of exact matrices, dicts ``{(row, column): ExactComplex}`` of nonzero entries."""
    out: dict = {}
    for matrix in matrices:
        for key, value in matrix.items():
            out[key] = out[key] + value if key in out else value
    return {key: value for key, value in out.items() if value}


def matrix_product(a: dict, b: dict) -> dict:
    """The product a @ b of two exact matrices."""
    rows_of_b: dict = {}
    for (k, column), value in b.items():
        rows_of_b.setdefault(k, []).append((column, value))
    return matrix_sum(*(
        {(row, column): value * other}
        for (row, k), value in a.items()
        for column, other in rows_of_b.get(k, ())
    ))


def conjugate_transpose(matrix: dict) -> dict:
    return {(column, row): ExactComplex(v.real, -v.imag) for (row, column), v in matrix.items()}


_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def letter(p: PauliString, t: int) -> str:
    """The letter on qubit ``t`` of ``p``, read from bit t of each mask: the
    per-qubit reference for ``PauliString.text``."""
    return _BITS_TO_LETTER[(p.x >> t) & 1, (p.z >> t) & 1]


def jw_ladder(mode: int, dagger: bool, n: int) -> tuple[WeightedPauliString, WeightedPauliString]:
    """The two weighted strings encoding one ladder operator on ``mode``.

    Returns ((1/2) X_mode Zchain, (+-i/2) Y_mode Zchain) with -i/2 for a
    creation operator and +i/2 for an annihilation operator; the Z chain
    covers every mode below ``mode``.  The weighted spelling of
    ``fermion._ladder`` that :func:`reference_jw_term` folds.
    """
    if not 0 <= mode < n:
        raise ValueError(f"mode {mode} out of range [0, {n})")
    chain = (1 << mode) - 1
    x_part = PauliString(n, 1 << mode, chain)
    y_part = PauliString(n, 1 << mode, chain | (1 << mode))
    return (
        WeightedPauliString(ExactComplex(Fraction(1, 2)), x_part),
        WeightedPauliString(ExactComplex(0, Fraction(-1 if dagger else 1, 2)), y_part),
    )


def reference_jw_term(term: FermionicTerm) -> list[WeightedPauliString]:
    """The symbolic Jordan-Wigner expansion that ``jw_term`` must reproduce exactly.

    Folds the ``jw_ladder`` factors through :func:`multiply` one weighted
    string at a time, combines equal strings, drops zero sums and sorts by
    string text.
    """
    factors = [jw_ladder(m, True, term.n) for m in term.creates]
    factors += [jw_ladder(m, False, term.n) for m in term.annihilates]
    acc = [WeightedPauliString(ExactComplex(1), PauliString(term.n))]
    for factor in factors:
        acc = [multiply(w, part) for w in acc for part in factor]
    combined: dict[PauliString, ExactComplex] = {}
    for w in acc:
        combined[w.string] = combined.get(w.string, ExactComplex()) + w.coefficient
    return [
        WeightedPauliString(c, s)
        for s, c in sorted(combined.items(), key=lambda item: item[0].text())
        if c
    ]


def is_two_body(term: FermionicTerm) -> bool:
    return len(term.creates) == 2


def support(term: FermionicTerm) -> tuple[int, ...]:
    """Distinct touched modes, ascending."""
    return tuple(sorted(set(term.creates) | set(term.annihilates)))


def has_distinct_indices(term: FermionicTerm) -> bool:
    return len(support(term)) == len(term.creates) + len(term.annihilates)


def adjoint(term: FermionicTerm) -> FermionicTerm:
    """Hermitian conjugate: daggers swap and the factor order reverses."""
    return FermionicTerm(term.annihilates, term.creates, term.n)


@dataclass(frozen=True, slots=True)
class JwPattern:
    """Shape of a distinct-index two-body encoding over an n-mode register.

    ``endpoints`` are the four touched modes in increasing order; the two
    ``z_segments`` are the open intervals (endpoints[0], endpoints[1]) and
    (endpoints[2], endpoints[3]) that carry repeated Z.
    """

    n: int
    endpoints: tuple[int, int, int, int]
    z_segments: tuple[tuple[int, int], tuple[int, int]]

    def endpoint_mask(self) -> int:
        mask = 0
        for t in self.endpoints:
            mask |= 1 << t
        return mask

    def z_mask(self) -> int:
        mask = 0
        for lo, hi in self.z_segments:
            for t in range(lo + 1, hi):
                mask |= 1 << t
        return mask

    def matches(self, p: PauliString) -> bool:
        """True iff p has X|Y exactly at the endpoints, Z on the segments, I elsewhere."""
        if p.n != self.n:
            return False
        e_mask = self.endpoint_mask()
        return p.x == e_mask and (p.z & ~e_mask) == self.z_mask()


def pattern_of(term: FermionicTerm) -> JwPattern:
    """The :class:`JwPattern` matched by exactly the strings of ``jw_term(term)``."""
    if not (is_two_body(term) and has_distinct_indices(term)):
        raise UnsupportedTermError("pattern is defined for distinct-index two-body terms only")
    e0, e1, e2, e3 = support(term)
    return JwPattern(term.n, (e0, e1, e2, e3), ((e0, e1), (e2, e3)))


def reference_fold(entries) -> list[WeightedPauliString]:
    """The per-string ``Fraction`` fold that ``fermion.jw_image`` must reproduce exactly.

    Takes (expansion, value) entries: each expanded string's coefficient is
    scaled by its value and added per string as exact real and imaginary
    parts; zero sums drop and the rest are sorted by string text.  A single
    entry with value 1 comes back unchanged.
    """
    if len(entries) == 1 and entries[0][1] == 1:
        return entries[0][0]
    sums: dict[PauliString, list[Fraction]] = {}
    for strings, value in entries:
        for w in strings:
            re, im = w.coefficient.real, w.coefficient.imag
            if value != 1:
                re, im = re and re * value, im and im * value
            re_im = sums.get(w.string)
            if re_im is None:
                sums[w.string] = [re, im]
            else:
                if re:
                    re_im[0] += re
                if im:
                    re_im[1] += im
    folded = [
        WeightedPauliString(ExactComplex(re, im), string)
        for string, (re, im) in sums.items()
        if re or im
    ]
    folded.sort(key=lambda w: w.string.text())
    return folded


def reference_from_entries(n, one_body_entries, two_body_entries) -> HamiltonianCoefficients:
    """The one-``Fraction``-per-entry accumulation that ``from_entries`` must match.

    Same index checks in the same order, same antisymmetry signs, same key
    insertion order and the same zero-sum filter.
    """
    one: dict[tuple[int, int], Fraction] = {}
    for (p, q), value in one_body_entries:
        if not (type(p) is int and type(q) is int):
            raise ValueError(f"mode indices must be integers, got {[p, q]!r}")
        if not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"one-body index ({p}, {q}) out of range for n={n}")
        key = (p, q)
        one[key] = one.get(key, Fraction(0)) + Fraction(value)
    two: dict[tuple[int, int, int, int], Fraction] = {}
    for (p, q, r, s), value in two_body_entries:
        if not all(type(t) is int for t in (p, q, r, s)):
            raise ValueError(f"mode indices must be integers, got {[p, q, r, s]!r}")
        if not all(0 <= t < n for t in (p, q, r, s)):
            raise ValueError(f"two-body index ({p}, {q}, {r}, {s}) out of range for n={n}")
        if p == q or r == s:
            continue  # the operator vanishes
        sign = 1
        if p < q:
            p, q, sign = q, p, -sign
        if r < s:
            r, s, sign = s, r, -sign
        key = (p, q, r, s)
        two[key] = two.get(key, Fraction(0)) + sign * Fraction(value)
    return HamiltonianCoefficients(
        n,
        {k: v for k, v in one.items() if v},
        {k: v for k, v in two.items() if v},
    )


def family_of(strings, provenance=(), origin="residual") -> CommutingFamily:
    """The family whose ``strings`` view reads back ``strings``, in order: each
    coefficient's numerators over the lcm of every denominator, the register
    of the first string.  For hand-made and doctored families."""
    denominator = lcm(*(
        part.denominator for w in strings for part in (w.coefficient.real, w.coefficient.imag)
    ))
    rows = tuple(
        (w.string.text(), w.string.x, w.string.z,
         int(w.coefficient.real * denominator), int(w.coefficient.imag * denominator))
        for w in strings
    )
    return CommutingFamily(strings[0].string.n, denominator, rows, tuple(provenance), origin)


def reference_save_families(families, path) -> None:
    """The whole-payload families writer that ``save_families`` must match byte for byte."""
    payload = [
        {
            "origin": family.origin,
            "strings": [str(w.string) for w in family.strings],
            "coefficients": [
                [float(w.coefficient.real), float(w.coefficient.imag)] for w in family.strings
            ],
            "terms": [
                {"creates": list(t.creates), "annihilates": list(t.annihilates)}
                for t in family.provenance
            ],
        }
        for family in families
    ]
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def write_coefficients(path, n, one, two):
    """Write (key, value) entries as a coefficients JSON file; returns the path."""
    path.write_text(json.dumps({
        "n": n,
        "one_body": [{"pq": list(k), "value": v} for k, v in one],
        "two_body": [{"pqrs": list(k), "value": v} for k, v in two],
    }))
    return path


def seeded_hermitian_entries(n, seed):
    """A random real Hermitian table: each entry comes with its adjoint."""
    rng = random.Random(seed)

    def value():
        return rng.choice([-1, 1]) * rng.randint(1, 16) / 8

    one, two = [], []
    for p, q in combinations(range(n), 2):
        if rng.random() < 0.5:
            v = value()
            one += [((p, q), v), ((q, p), v)]
    one += [((p, p), value()) for p in range(n) if rng.random() < 0.5]
    for a, b, c, d in combinations(range(n - 1, -1, -1), 4):
        # the six normal-ordered keys on {a, b, c, d} form three adjoint pairs
        for creates, annihilates in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            if rng.random() < 0.6:
                v = value()
                two += [(creates + annihilates, v), (annihilates + creates, v)]
    for p, q, r in combinations(range(n), 3):
        if rng.random() < 0.3:
            v = value()  # n_q-dressed hopping p <- r
            two += [((p, q, r, q), v), ((r, q, p, q), v)]
    for p, q in combinations(range(n), 2):
        if rng.random() < 0.5:
            two.append(((p, q, p, q), value()))  # number-number, self-adjoint
    return one, two


@dataclass(frozen=True, slots=True)
class FlowNetwork:
    """Directed network with integer capacities: the explicit form of an
    insertion network (:func:`reference_step_parts`), which ``baranyai``
    never builds, and of the hand-made and random networks of the tests.

    Edge k runs from ``tails[k]`` to ``heads[k]`` with capacity ``caps[k]``;
    the columns are stored as tuples.  ``edges`` zips them into
    (tail, head, capacity) triples, built anew on each access.  A rejected
    network names its first bad edge.
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

    The oracle for ``baranyai``'s solver, which must make the same choice
    on every insertion network.  Deterministic: adjacency follows edge
    declaration order.

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



def network(node_count: int, source: int, sink: int, edges) -> FlowNetwork:
    """A ``FlowNetwork`` from (tail, head, capacity) triples, for hand-made cases."""
    edges = tuple(edges)
    return FlowNetwork(
        node_count,
        source,
        sink,
        tuple(e[0] for e in edges),
        tuple(e[1] for e in edges),
        tuple(e[2] for e in edges),
    )


@dataclass(frozen=True, slots=True)
class ScaledFlow:
    """Per-edge flow numerators over one shared denominator (edge flow = numerator/denominator).

    A fractional flow is carried this way so that feasibility, conservation
    and rounding stay exact integer arithmetic.
    """

    denominator: int
    numerators: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(self.numerators))
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        if any(not isinstance(f, int) or f < 0 for f in self.numerators):
            raise ValueError("flow numerators must be non-negative integers")


def _as_scaled(flow) -> ScaledFlow:
    """A ScaledFlow as it is; an integral flow (one int per edge, as
    ``max_flow_integral`` returns it) over denominator 1."""
    return flow if isinstance(flow, ScaledFlow) else ScaledFlow(1, flow)


def check_flow(net: FlowNetwork, flow) -> None:
    """Raise ValueError unless ``flow`` is feasible and exactly conservative on ``net``."""
    flow = _as_scaled(flow)
    if len(flow.numerators) != len(net.caps):
        raise ValueError(
            f"flow has {len(flow.numerators)} entries for {len(net.caps)} edges"
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


def flow_value(net: FlowNetwork, flow) -> Fraction:
    """Net flow out of the source."""
    flow = _as_scaled(flow)
    out = sum(f for (u, _, _), f in zip(net.edges, flow.numerators) if u == net.source)
    back = sum(f for (_, v, _), f in zip(net.edges, flow.numerators) if v == net.source)
    return Fraction(out - back, flow.denominator)


def reference_max_flow(net: FlowNetwork) -> tuple[int, ...]:
    """The recursive Dinic that ``max_flow_integral`` must reproduce exactly.

    A full breadth-first leveling per phase, then a recursive depth-first
    walk that restarts from the source after every augmentation.
    """
    edges = net.edges
    m = len(edges)
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(net.node_count)]
    for u, v, c in edges:
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)

    s, t = net.source, net.sink
    infinity = sum(c for _, _, c in edges) + 1

    def bfs() -> list[int] | None:
        level = [-1] * net.node_count
        level[s] = 0
        queue = [s]
        for node in queue:
            for eid in adj[node]:
                if cap[eid] > 0 and level[head[eid]] < 0:
                    level[head[eid]] = level[node] + 1
                    queue.append(head[eid])
        return level if level[t] >= 0 else None

    def dfs(node: int, pushed: int, level: list[int], it: list[int]) -> int:
        if node == t:
            return pushed
        while it[node] < len(adj[node]):
            eid = adj[node][it[node]]
            nxt = head[eid]
            if cap[eid] > 0 and level[nxt] == level[node] + 1:
                got = dfs(nxt, min(pushed, cap[eid]), level, it)
                if got:
                    cap[eid] -= got
                    cap[eid ^ 1] += got
                    return got
            it[node] += 1
        return 0

    while (level := bfs()) is not None:
        it = [0] * net.node_count
        while dfs(s, infinity, level, it):
            pass

    return tuple(edges[i][2] - cap[2 * i] for i in range(m))


def named_rows(state) -> list[list[tuple[int, ...]]]:
    """Each round's open slots as subset tuples, in row order: the
    ``PartialState`` rows with every slot id replaced by its subset."""
    subsets = state.subsets
    return [[subsets[s] for s in row] for row in state.rows]


def slot_table(state) -> list[dict[tuple[int, ...], int]]:
    """Each round's slots, open and closed, as a multiplicity map keyed by
    the descending partial subset: the per-round view that the network
    build and the invariant recount are written against."""
    table = [Counter(row) for row in named_rows(state)]
    for slots, filled in zip(table, state.closed):
        for subset in filled:
            slots[subset] = slots.get(subset, 0) + 1
    return table


def check_invariants(state) -> None:
    """Full recount of every ``PartialState`` invariant of the ``baranyai``
    module docstring; raises ValueError on the first breach.

    Also checks the stored form: one slot id per distinct subset, each
    id's stored size, each round's open slots in (size, subset) order,
    closed slots of size 4 only, and each stored R_r equal to its recount.
    """
    n, i = state.n, state.inserted
    sizes = round_sizes(n)
    if not len(state.rows) == len(state.needed) == len(state.closed) == len(sizes):
        raise ValueError("wrong round count")
    if len(set(state.subsets)) != len(state.subsets):
        raise ValueError("a subset has more than one slot id")
    if list(state.sizes) != [len(s) for s in state.subsets]:
        raise ValueError("a slot id's stored size is not its subset's")
    for r, row in enumerate(state.rows):
        if not all(type(s) is int and 0 <= s < len(state.subsets) for s in row):
            raise ValueError(f"round {r} holds an unknown slot id")
    for r, row in enumerate(named_rows(state)):
        if list(row) != sorted(row, key=lambda s: (len(s), s)):
            raise ValueError(f"round {r} open slots {row} are not in (size, subset) order")
        if any(len(s) >= 4 for s in row):
            raise ValueError(f"round {r} keeps a full slot open")
    for r, filled in enumerate(state.closed):
        if any(len(subset) != 4 for subset in filled):
            raise ValueError(f"round {r} closed slots {filled} are not all 4-subsets")
    inserted_elements = set(range(i))
    global_mult: dict[tuple[int, ...], int] = {}
    for r, (slots, size) in enumerate(zip(slot_table(state), sizes)):
        seen: set[int] = set()
        total_slots = 0
        for subset, mult in slots.items():
            if mult <= 0 or len(subset) > 4:
                raise ValueError(f"bad slot {subset} x{mult} in round {r}")
            if list(subset) != sorted(subset, reverse=True):
                raise ValueError(f"slot {subset} in round {r} is not descending")
            if subset and mult > 1:
                raise ValueError(f"non-empty slot {subset} repeated in round {r}")
            members = set(subset)
            if len(subset) and (members & seen):
                raise ValueError(f"round {r} slots overlap at {members & seen}")
            seen |= members
            total_slots += mult
            global_mult[subset] = global_mult.get(subset, 0) + mult
        if total_slots != size:
            raise ValueError(f"round {r} has {total_slots} slots, expected {size}")
        if not seen <= inserted_elements:
            raise ValueError(f"round {r} holds uninserted {sorted(seen - inserted_elements)}")
        needed = sum((4 - len(s)) * mult for s, mult in slots.items())
        if needed > n - i:
            raise ValueError(f"round {r} needs {needed} elements, {n - i} are left")
        if needed != state.needed[r]:
            raise ValueError(f"round {r} stores R_r = {state.needed[r]}, recount {needed}")
    for subset, mult in global_mult.items():
        want = comb(n - i, 4 - len(subset))
        if mult != want:
            raise ValueError(f"subset {subset} occurs {mult} times, expected {want}")


def reference_step_parts(state) -> tuple[FlowNetwork, list[tuple[int, tuple[int, ...]]]]:
    """The insertion network of the ``baranyai`` module docstring, built
    from scratch: it re-derives every round's R_r and re-sorts every
    partial subset at each step.  ``baranyai`` solves this network without
    building it; :func:`max_flow_integral` on it is the oracle.

    Edges: round in-edges, each round's middle edges in (size, subset)
    order, one sink edge per type in (size, subset) order, then the
    source->hub edge.  Returns the network and the (round, subset) map of
    its middle edges.
    """
    n, i = state.n, state.inserted
    if i >= n:
        raise ValueError("all elements already inserted")
    d = n - i
    rounds = slot_table(state)
    m = len(rounds)
    types = sorted(
        {s for slots in rounds for s in slots if len(s) < 4},
        key=lambda s: (len(s), s),
    )
    type_node = {s: 1 + m + k for k, s in enumerate(types)}
    sink = 1 + m + len(types)
    hub = sink + 1

    edges: list[tuple[int, int, int]] = []
    middle_map: list[tuple[int, tuple[int, ...]]] = []
    forced = 0
    for r, slots in enumerate(rounds):
        needed = sum((4 - len(s)) * mult for s, mult in slots.items())
        if needed == d:
            edges.append((0, 1 + r, 1))
            forced += 1
        elif needed:
            edges.append((hub, 1 + r, 1))
        else:
            edges.append((0, 1 + r, 0))
    for r, slots in enumerate(rounds):
        for s in sorted((k for k in slots if len(k) < 4), key=lambda k: (len(k), k)):
            edges.append((1 + r, type_node[s], slots[s]))
            middle_map.append((r, s))
    for s in types:
        edges.append((type_node[s], sink, comb(n - i - 1, 3 - len(s))))
    edges.append((0, hub, comb(n - 1, 3) - forced))

    return network(hub + 1, 0, sink, edges), middle_map


def flow_choice(state, flow, middle_map) -> dict[int, int]:
    """The {round: slot id} choice an integral flow on
    ``reference_step_parts(state)`` makes, as ``baranyai._apply`` takes it.

    Raises ValueError on a flow no choice can spell: a round sending more
    than one unit, or sending what its in-edge does not carry.
    """
    m = len(state.rows)
    slot_id = {s: k for k, s in enumerate(state.subsets)}
    sent = [0] * m
    chosen: dict[int, int] = {}
    for (r, s), f in zip(middle_map, flow[m : m + len(middle_map)]):
        if f:
            if f != 1 or r in chosen:
                raise ValueError(f"round {r} must take at most one unit of flow")
            chosen[r] = slot_id[s]
            sent[r] = 1
    for r in range(m):
        if flow[r] != sent[r]:
            raise ValueError(f"flow not conserved at round {r}")
    return chosen


def insertion_seed(state, net: FlowNetwork, middle_map) -> ScaledFlow:
    """The fractional flow of value C(n-1,3) that proves an insertion network solvable.

    ``net`` and ``middle_map`` are ``reference_step_parts(state)``.  With d
    elements left, each slot S sends (4-|S|)/d, so round r's in-edge
    carries R_r/d, the elements the round still needs over d; each sink
    edge is saturated and the hub edge, the last, carries the in-edges it
    feeds.  ``check_flow`` on the result checks every capacity.
    """
    d = state.n - state.inserted
    m = len(state.rows)
    slots = slot_table(state)
    num = [0] * len(net.caps)
    for k, (r, s) in enumerate(middle_map):
        num[m + k] = (4 - len(s)) * slots[r][s]
        num[r] += num[m + k]
    for k, (v, cap) in enumerate(zip(net.heads, net.caps)):
        if v == net.sink:
            num[k] = d * cap
    hub = net.heads[-1]
    num[-1] = sum(num[r] for r in range(m) if net.tails[r] == hub)
    return ScaledFlow(d, tuple(num))


def round_flow(net: FlowNetwork, fractional: ScaledFlow) -> ScaledFlow:
    """Round a feasible fractional flow into an integral flow of equal value.

    The paper's rounding construction, the reference for Dinic: the
    schedule itself takes Dinic's choice (``max_flow_integral``'s, made on
    the slot table), and the tests check both on every insertion network.  It repeatedly finds an
    undirected cycle among the edges with non-integral flow and pushes the
    smallest slack around it until at least one edge lands on a multiple of
    the denominator; each push strictly shrinks the fractional edge set, so the loop
    terminates.  Such a cycle always exists: conservation forces every node
    touching one fractional edge to touch at least two.

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


def make_fractional_case(rng: random.Random) -> tuple[FlowNetwork, ScaledFlow]:
    """Random two-layer network with a feasible, conservative fractional flow.

    Starts from an integral flow on the complete bipartite middle layer and
    perturbs it around random 4-cycles by fractional amounts; row and column
    sums (the terminal-edge flows) stay integral throughout, and capacities
    are drawn at or above the final flow, so the seed is always valid.
    """
    d = rng.randint(2, 32)
    a = rng.randint(1, 5)
    b = rng.randint(1, 5)
    mid = {(i, j): 0 for i in range(a) for j in range(b)}
    for i in range(a):
        for _ in range(rng.randint(0, 3)):
            mid[(i, rng.randrange(b))] += d
    if a >= 2 and b >= 2:
        for _ in range(rng.randint(0, 12)):
            i1, i2 = rng.sample(range(a), 2)
            j1, j2 = rng.sample(range(b), 2)
            t = rng.randint(1, d - 1)
            if mid[(i1, j2)] >= t and mid[(i2, j1)] >= t:
                mid[(i1, j1)] += t
                mid[(i1, j2)] -= t
                mid[(i2, j2)] += t
                mid[(i2, j1)] -= t

    source, sink = 0, a + b + 1
    edges: list[tuple[int, int, int]] = []
    nums: list[int] = []
    for i in range(a):
        row = sum(mid[(i, j)] for j in range(b))
        assert row % d == 0
        edges.append((source, 1 + i, row // d + rng.randint(0, 2)))
        nums.append(row)
    for (i, j), f in sorted(mid.items()):
        edges.append((1 + i, 1 + a + j, -(-f // d) + rng.randint(0, 2)))
        nums.append(f)
    for j in range(b):
        col = sum(mid[(i, j)] for i in range(a))
        assert col % d == 0
        edges.append((1 + a + j, sink, col // d + rng.randint(0, 2)))
        nums.append(col)
    return network(a + b + 2, source, sink, edges), ScaledFlow(d, tuple(nums))


@pytest.fixture
def fractional_case_maker():
    return make_fractional_case
