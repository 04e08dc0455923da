"""Brute-force checks for the algebra, the encoding and the schedules.

Dense matrices are assembled from 2x2 constants and the occupation-number
action of ladder operators, coverage is recounted from scratch, and
commutation audits cover all pairs.  Not every check is independent of the
compile: :func:`validate_families` certifies with
:func:`pauli.anticommuting_pair`, the compile's own certifier, and
:func:`validate_partition` builds its reference image with
:func:`fermion.jw_term`, the compile's kernel.  Only the dense checks,
:func:`verify_jw_against_matrices` and the n <= 6 sum of
:func:`validate_partition`, test that kernel independently.  Both read one
list of canonical terms (every one-body term, every two-body term whose
create and annihilate pairs overlap, and one term per 4-subset), and the
per-term check compares each of them with its own matrix.

Validators return :class:`OracleReport` values and never raise on bad
input; reports serialize to plain dicts for CI consumption.

No compile imports this module, and with it numpy: only ``paulisched
verify`` and the tests do.
"""

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .baranyai import SUBSET_SIZE, Schedule
from .fermion import FermionicTerm, jw_term
from .pauli import (
    ExactComplex,
    PauliString,
    WeightedPauliString,
    anticommuting_index_count,
    anticommuting_pair,
    commutes,
    parse_pauli,
)

__all__ = [
    "OracleReport",
    "anticommuting_chain_fixture",
    "ladder_matrix",
    "string_matrix",
    "term_matrix",
    "validate_families",
    "validate_partition",
    "validate_schedule",
    "verify_anticommuting_chains",
    "verify_disjoint_term_commutation",
    "verify_jw_against_matrices",
    "verify_sliding_invariance",
    "weighted_sum_matrix",
]

@dataclass
class OracleReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    counterexample: str | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "details": self.details}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# ---------------------------------------------------------------------------
# Dense-matrix constructions (qubit 0 = first Kronecker factor / MSB)


# shared by every string_matrix call, so read-only
_PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _matrix in _PAULI_2X2.values():
    _matrix.setflags(write=False)


def string_matrix(p: PauliString) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for char in p.text():
        out = np.kron(out, _PAULI_2X2[char])
    return out


def weighted_sum_matrix(strings: list[WeightedPauliString], n: int) -> np.ndarray:
    """The dense sum of the weighted strings on n qubits; no strings give zero."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for w in strings:
        out += w.coefficient.as_complex() * string_matrix(w.string)
    return out


@lru_cache(maxsize=64)
def ladder_matrix(mode: int, dagger: bool, n: int) -> np.ndarray:
    """Ladder operator in the occupation basis, built from its defining action.

    Basis state b has mode t occupied iff bit (n-1-t) of b is set, matching
    the Kronecker order of :func:`string_matrix`.  Annihilating mode m maps
    an occupied state to the cleared state with sign (-1)^(number of
    occupied modes below m); creation is the transpose action.

    Each (mode, dagger, n) matrix is built once per process and shared, so
    it is returned read-only.
    """
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    bit = 1 << (n - 1 - mode)
    below_mask = ((1 << mode) - 1) << (n - mode)  # bits of modes 0..mode-1
    for b in range(dim):
        occupied = bool(b & bit)
        if occupied == dagger:
            continue
        sign = -1 if (b & below_mask).bit_count() % 2 else 1
        out[b ^ bit, b] = sign
    out.setflags(write=False)
    return out


def term_matrix(term: FermionicTerm) -> np.ndarray:
    out = np.eye(1 << term.n, dtype=complex)
    for m in term.creates:
        out = out @ ladder_matrix(m, True, term.n)
    for m in term.annihilates:
        out = out @ ladder_matrix(m, False, term.n)
    return out


# ---------------------------------------------------------------------------
# Oracles


def _canonical_terms(n: int) -> list[FermionicTerm]:
    """Every canonical non-vanishing term on n modes: each one-body term, each
    two-body term whose create and annihilate pairs overlap, and per 4-subset
    the term creating its two largest modes."""
    pairs = [(a, b) for a in range(n) for b in range(a)]
    terms = [FermionicTerm.one_body(p, q, n) for p in range(n) for q in range(n)]
    terms += [FermionicTerm.two_body(*c, *d, n) for c in pairs for d in pairs if set(c) & set(d)]
    return terms + [FermionicTerm.two_body(*sorted(sub, reverse=True), n) for sub in combinations(range(n), 4)]


def verify_jw_against_matrices(n: int) -> OracleReport:
    """Check every canonical term at size n, repeated-index two-body terms included.

    Each term's weighted string expansion must reproduce its occupation-basis
    ladder-operator product matrix; with exact coefficients the match is
    expected to be exact, and anything above 1e-12 elementwise fails.
    """
    if n > 8:
        raise ValueError("dense check is meant for small registers")
    worst = 0.0
    checked = 0
    exact = 0
    bad: str | None = None
    for term in _canonical_terms(n):
        diff = float(np.max(np.abs(weighted_sum_matrix(jw_term(term), n) - term_matrix(term))))
        checked += 1
        if diff == 0.0:
            exact += 1
        worst = max(worst, diff)
        if diff > 1e-12 and bad is None:
            bad = f"term {term.creates}/{term.annihilates}: max deviation {diff}"
    return OracleReport(
        name=f"jw-dense-n{n}",
        passed=bad is None,
        details={"n": n, "terms_checked": checked, "exact_matches": exact, "max_deviation": worst},
        counterexample=bad,
    )


def verify_disjoint_term_commutation() -> OracleReport:
    """All interleavings of two index-disjoint two-body terms commute.

    Embeds each of the C(8,4) = 70 ways to deal the indices 0..7 to the two
    terms in an 8-mode register, expands both 16-string sets and checks all
    256 cross pairs.  Reports the per-case anticommuting-index counts;
    commutation requires them all even, and the extremes 0 and 6 both occur.
    """
    case_counts: list[int] = []
    pairs = 0
    bad: str | None = None
    for picked in combinations(range(8), 4):
        rest = tuple(sorted(set(range(8)) - set(picked)))
        term_a = FermionicTerm.two_body(*sorted(picked, reverse=True), 8)
        term_b = FermionicTerm.two_body(*sorted(rest, reverse=True), 8)
        cross = _cross_counts(term_a, term_b)
        pairs += len(cross)
        case_counts.extend(sorted({c for _, _, c in cross}))
        odd = next((pair for pair in cross if pair[2] % 2), None)
        if odd and bad is None:
            bad = f"{picked} vs {rest}: {odd[0]} / {odd[1]} anticommute at {odd[2]} indices"
    histogram = {c: case_counts.count(c) for c in sorted(set(case_counts))}
    passed = bad is None and min(case_counts) == 0 and max(case_counts) == 6
    return OracleReport(
        name="disjoint-terms-exhaustive",
        passed=passed,
        details={
            "cases": 70,
            "cross_pairs": pairs,
            "count_histogram": histogram,
            "min_count": min(case_counts),
            "max_count": max(case_counts),
        },
        counterexample=bad,
    )


def verify_sliding_invariance(trials: int = 200, max_n: int = 12, seed: int = 7) -> OracleReport:
    """Moving one endpoint without crossing the other term's endpoints keeps
    every cross pair's anticommuting parity unchanged (and even)."""
    rng = random.Random(seed)
    bad: str | None = None
    done = 0
    while done < trials and bad is None:
        n = rng.randrange(8, max_n + 1)
        modes = rng.sample(range(n), 8)
        a = sorted(modes[:4], reverse=True)
        b = sorted(modes[4:], reverse=True)
        moving = rng.choice(a)
        fixed = set(b)
        gaps = sorted(fixed | {-1, n})
        lo = max(g for g in gaps if g < moving)
        hi = min(g for g in gaps if g > moving)
        free = [t for t in range(lo + 1, hi) if t not in a and t not in fixed]
        if not free:
            continue
        target = rng.choice(free)
        slid = sorted((set(a) - {moving}) | {target}, reverse=True)
        term_b = FermionicTerm.two_body(*b, n)
        before, after = (
            [c % 2 for _, _, c in _cross_counts(FermionicTerm.two_body(*modes, n), term_b)]
            for modes in (a, slid)
        )
        if before != after or any(p % 2 for p in before):
            bad = f"n={n}: {a} -> {slid} against {b} changed parity"
        done += 1
    return OracleReport(
        name="endpoint-sliding",
        passed=bad is None,
        details={"trials": done, "max_n": max_n},
        counterexample=bad,
    )


def _cross_counts(term_a: FermionicTerm, term_b: FermionicTerm) -> list[tuple[PauliString, PauliString, int]]:
    """Each cross pair of the two terms' JW strings with its anticommuting-index
    count, in the order of ``term_a``'s strings; each term is expanded once."""
    strings_b = [w.string for w in jw_term(term_b)]
    return [
        (wa.string, b, anticommuting_index_count(wa.string, b))
        for wa in jw_term(term_a)
        for b in strings_b
    ]


def anticommuting_chain_fixture(n: int) -> list[PauliString]:
    """The 2n strings matching Z*(X|Y)I*; no two distinct members commute."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return [
        parse_pauli("Z" * k + letter + "I" * (n - 1 - k))
        for k in range(n)
        for letter in "XY"
    ]


def verify_anticommuting_chains(max_n: int = 8) -> OracleReport:
    bad: str | None = None
    pairs = 0
    for n in range(1, max_n + 1):
        chain = anticommuting_chain_fixture(n)
        for a, b in combinations(chain, 2):
            pairs += 1
            if commutes(a, b) and bad is None:
                bad = f"n={n}: {a} and {b} commute"
    return OracleReport(
        name="anticommuting-chains",
        passed=bad is None,
        details={"max_n": max_n, "pairs_checked": pairs},
        counterexample=bad,
    )


def validate_schedule(schedule: Schedule) -> OracleReport:
    """Recount a schedule from scratch: a positive n, subset shapes, per-round
    disjointness, exact cover of all C(n,4) subsets, and for n >= 4 the
    round shape: ceil(C(n,4) / floor(n/4)) rounds of at most floor(n/4)
    subsets.  Never raises: a bad schedule fails with a counterexample."""
    n = schedule.n
    checks = {"subset_shape": True, "round_disjoint": True, "exact_cover": True}
    bad: str | None = None

    def fail(check: str, message: str) -> None:
        nonlocal bad
        checks[check] = False
        if bad is None:
            bad = message

    seen: dict[frozenset, int] = {}
    for r, rnd in enumerate(schedule.rounds):
        used: set[int] = set()
        for subset in rnd:
            members = frozenset(subset)
            if len(subset) != SUBSET_SIZE or len(members) != SUBSET_SIZE or not all(
                isinstance(t, int) and 0 <= t < n for t in subset
            ):
                fail("subset_shape", f"round {r}: malformed subset {subset}")
                continue
            if used & members:
                fail("round_disjoint", f"round {r}: subsets overlap at {sorted(used & members)}")
            used |= members
            seen[members] = seen.get(members, 0) + 1
    duplicates = [s for s, k in seen.items() if k > 1]
    if n < 1:  # C(n, 4) is undefined for negative n
        fail("mode_count", f"n={n}: a schedule needs a positive mode count")
    elif duplicates:
        fail("exact_cover", f"subset {tuple(sorted(duplicates[0], reverse=True))} appears more than once")
    elif len(seen) != comb(n, SUBSET_SIZE):
        fail("exact_cover", f"{len(seen)} distinct subsets covered, expected {comb(n, SUBSET_SIZE)}")
    if n >= SUBSET_SIZE:
        checks["round_shape"] = True
        rounds = -(-comb(n, SUBSET_SIZE) // (n // SUBSET_SIZE))
        if len(schedule.rounds) != rounds:
            fail("round_shape", f"{len(schedule.rounds)} rounds, expected {rounds}")
        elif any(len(rnd) > n // SUBSET_SIZE for rnd in schedule.rounds):
            fail("round_shape", "a round holds more than floor(n/4) subsets")
    return OracleReport(
        name="schedule-validation",
        passed=all(checks.values()),
        details={
            "n": n,
            "rounds": len(schedule.rounds),
            "subsets": schedule.subset_count,
            "checks": checks,
        },
        counterexample=bad,
    )


def validate_families(families) -> OracleReport:
    """Commutation audit of every pair of every family.

    Each family goes through :func:`pauli.anticommuting_pair`, which tests
    the pairs of a GF(2) basis of the family's strings; by bilinearity
    that certifies every pair, so ``pairs_checked`` counts C(size, 2) pairs
    per family, certified through the basis.
    """
    families = list(families)
    bad: str | None = None
    pairs = 0
    for idx, family in enumerate(families):
        strings = [w.string for w in family.strings]
        pairs += comb(len(strings), 2)
        try:
            pair = anticommuting_pair(strings)
        except ValueError as exc:  # the strings act on different registers
            problem = str(exc)
        else:
            problem = pair and f"{pair[0]} and {pair[1]} do not commute"
        if problem and bad is None:
            bad = f"family {idx}: {problem}"
    return OracleReport(
        name="family-validation",
        passed=bad is None,
        details={"families": len(families), "pairs_checked": pairs},
        counterexample=bad,
    )


def validate_partition(families, n: int, coeffs=None) -> OracleReport:
    """The families are an exact partition of the Hamiltonian's JW image.

    Recomputes the sum over terms of c_t * jw_term(t) in exact arithmetic:
    over the entries of ``coeffs`` (normal-ordered ``one_body`` and
    ``two_body`` tables) when given, else over every canonical term at
    value 1, the terms :func:`verify_jw_against_matrices` checks.  Every
    string must act on n qubits, no string may appear twice, and the family
    strings must sum exactly to that image.  For n <= 6 the families are also summed as dense matrices
    against the occupation-basis terms.
    """
    families = list(families)
    if coeffs is None:
        table = [(term, 1) for term in _canonical_terms(n)]
    else:
        table = [(FermionicTerm.one_body(p, q, n), v) for (p, q), v in coeffs.one_body.items()]
        table += [(FermionicTerm.two_body(*key, n), v) for key, v in coeffs.two_body.items()]
    image: dict[PauliString, ExactComplex] = {}
    for term, value in table:
        for w in jw_term(term):
            image[w.string] = image.get(w.string, ExactComplex()) + w.coefficient * ExactComplex(value)
    image = {s: c for s, c in image.items() if c}

    foreign = next(
        ((idx, w.string) for idx, family in enumerate(families) for w in family.strings if w.string.n != n),
        None,
    )
    bad = foreign and f"family {foreign[0]}: {foreign[1]} acts on {foreign[1].n} qubits, not {n}"
    emitted: dict[PauliString, ExactComplex] = {}
    slots = 0
    for idx, family in enumerate(families):
        for w in family.strings:
            slots += 1
            if w.string in emitted and bad is None:
                bad = f"family {idx}: {w.string} appears in an earlier family too"
            emitted[w.string] = w.coefficient
    if bad is None and emitted != image:
        string = min(
            (s for s in emitted.keys() | image.keys() if emitted.get(s) != image.get(s)),
            key=PauliString.text,
        )
        bad = f"{string}: families sum to {emitted.get(string)}, the JW image is {image.get(string)}"
    details = {"n": n, "families": len(families), "string_slots": slots, "image_strings": len(image)}

    if n <= 6 and foreign is None:
        want = np.zeros((1 << n, 1 << n), dtype=complex)
        for term, value in table:
            want += float(value) * term_matrix(term)
        got = weighted_sum_matrix([w for family in families for w in family.strings], n)
        deviation = float(np.max(np.abs(got - want)))
        details["dense_max_deviation"] = deviation
        if deviation > 1e-12 * (1 + float(np.max(np.abs(want)))) and bad is None:
            bad = f"dense sum of the families deviates from the Hamiltonian by {deviation}"
    return OracleReport(name="partition-validation", passed=bad is None, details=details, counterexample=bad)
