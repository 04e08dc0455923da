"""Brute-force checks for the algebra, the encoding and the schedules, and
the exact object model they read.

The object model is the view of the compile's integer rows that the
checks and the tests read: :class:`ExactComplex` coefficients,
:class:`PauliString` and :class:`WeightedPauliString` values, and the
checked :class:`FermionicTerm`.  :func:`weighted_strings` is the one
builder of weighted strings: a family's strings are
``weighted_strings(f.n, f.denominator, f.rows)``.  :func:`jw_term`, the
single-term image, lives here and reads the compile's own kernel,
:func:`paulisched.fermion.jw_image`, so the dense checks test that
kernel; it is the one name this module reads from
:mod:`paulisched.fermion`.  The model's values are immutable, slotted
frozen dataclasses: an instance has no ``__dict__``, and attributes
cannot be added to it.  A :class:`PauliString` builds its text when it is
read, by its own per-qubit rule, the inverse of :func:`parse_pauli`, so
the dense checks read letters without going through compile code.

Dense matrices are exact: each maps a basis state to one basis state times
a power of i, or to 0 (Aaronson and Gottesman, quant-ph/0406196), so they
are compared by equality.  Coverage is recounted from scratch, and
commutation audits cover all pairs: :func:`validate_families` scans every
pair of each family with :func:`anticommuting_pair_by_scan`, its own rule,
not the compile's certifier, once each row's text is seen to spell its
masks, as the writer writes the text.  Not every check is independent of
the compile: :func:`validate_partition` builds its reference image with
:func:`jw_term`, the compile's kernel.  Only the dense checks,
:func:`verify_jw_against_matrices` and the n <= 6 sum of
:func:`validate_partition`, test that kernel independently.  Both read one
list of canonical terms (every one-body term, every two-body term whose
create and annihilate pairs overlap, and one term per 4-subset), and the
per-term check compares each of them, and each 4-subset in its five other
create/annihilate splits, with its own matrix.

Validators return :class:`OracleReport` values and never raise on bad
input; reports serialize to plain dicts for CI consumption.

No compile imports this module, and so no compile builds one of its
objects: only ``paulisched verify`` and the tests do.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from math import comb, lcm

from .baranyai import SUBSET_SIZE, Schedule
from .fermion import jw_image

__all__ = [
    "ExactComplex",
    "FermionicTerm",
    "OracleReport",
    "PauliString",
    "UnsupportedTermError",
    "WeightedPauliString",
    "anticommuting_chain_fixture",
    "anticommuting_index_count",
    "anticommuting_pair_by_scan",
    "commutes",
    "jw_term",
    "ladder_matrix",
    "parse_pauli",
    "term_matrix",
    "validate_families",
    "validate_partition",
    "validate_schedule",
    "verify_anticommuting_chains",
    "verify_disjoint_term_commutation",
    "verify_jw_against_matrices",
    "verify_sliding_invariance",
    "weighted_strings",
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
# The exact object model: coefficients, Pauli strings and terms


_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True, slots=True)
class ExactComplex:
    """A complex number with exact rational real and imaginary parts.

    Floats passed to the constructor are converted exactly (every binary
    float is a rational), so feeding in coefficients read from JSON keeps
    all subsequent arithmetic exact.
    """

    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "real", Fraction(self.real))
        object.__setattr__(self, "imag", Fraction(self.imag))

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.real + other.real, self.imag + other.imag)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)


@dataclass(frozen=True, slots=True)
class PauliString:
    """An N-qubit Pauli word stored as x/z bitmasks (bit t = qubit t)."""

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        limit = 1 << self.n
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValueError(f"bitmasks out of range for n={self.n}")

    def text(self) -> str:
        # the inverse of parse_pauli: qubit t reads "IXZY"[x_t | z_t << 1]
        return "".join(["IXZY"[(self.x >> t & 1) | (self.z >> t & 1) << 1] for t in range(self.n)])

    __str__ = text

    def __repr__(self) -> str:
        return f"PauliString({self.text()!r})"


@dataclass(frozen=True, slots=True)
class WeightedPauliString:
    """A Pauli string with a nonzero exact complex coefficient."""

    coefficient: ExactComplex
    string: PauliString

    def __post_init__(self):
        if not self.coefficient:
            raise ValueError("weighted Pauli string requires a nonzero coefficient")


def parse_pauli(text: str) -> PauliString:
    """Parse a Pauli word such as "ZZX" (qubit 0 is the leftmost character).

    Raises:
        ValueError: if the text is empty or contains a character outside IXYZ.
    """
    if not text:
        raise ValueError("empty Pauli string")
    x = z = 0
    for t, char in enumerate(text):
        try:
            xb, zb = _CHAR_TO_XZ[char]
        except KeyError:
            raise ValueError(f"invalid Pauli character {char!r} at position {t}") from None
        x |= xb << t
        z |= zb << t
    return PauliString(len(text), x, z)


def anticommuting_index_count(p: PauliString, q: PauliString) -> int:
    """Number of qubit positions where p and q carry different non-identity letters.

    Per-qubit, two Pauli letters anticommute exactly when both are
    non-identity and unequal; in the (x, z) encoding that is the symplectic
    product x1*z2 XOR z1*x2 of the two bit pairs.

    Raises:
        ValueError: if the strings act on different registers.
    """
    if p.n != q.n:
        raise ValueError(f"Pauli strings act on different registers: {p.n} != {q.n}")
    return ((p.x & q.z) ^ (p.z & q.x)).bit_count()


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the two strings commute, i.e. the anticommuting-index count is even.

    Raises:
        ValueError: if the strings act on different registers.
    """
    return not anticommuting_index_count(p, q) & 1


class UnsupportedTermError(ValueError):
    """Raised for terms outside the supported one-body / two-body shapes."""


@dataclass(frozen=True, slots=True)
class FermionicTerm:
    """A normal-ordered product of creation then annihilation operators.

    Built from its two sides only: ``creates`` and ``annihilates`` are
    strictly descending mode-index tuples, either one index each
    (one-body) or two each (two-body), so ``(creates, annihilates)`` is
    the term's key, the one form in which the compile carries a term from
    the loader to the writer.  Repeats between the two tuples are allowed
    (those are the residual terms); repeats within a tuple would make the
    operator vanish and are rejected.
    """

    creates: tuple[int, ...]
    annihilates: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "creates", tuple(self.creates))
        object.__setattr__(self, "annihilates", tuple(self.annihilates))
        shape = (len(self.creates), len(self.annihilates))
        if shape not in ((1, 1), (2, 2)):
            raise UnsupportedTermError(f"unsupported operator shape {shape}")
        for side in (self.creates, self.annihilates):
            # a side holds one or two modes, so its ends are all of them
            if not (0 <= side[0] < self.n and 0 <= side[-1] < self.n):
                raise ValueError(f"mode index out of range [0, {self.n}) in {side}")
            if len(side) == 2 and side[0] <= side[1]:
                raise UnsupportedTermError(f"indices must be strictly descending, got {side}")


def weighted_strings(n: int, denominator: int, rows) -> list[WeightedPauliString]:
    """The rows of an n-qubit image over ``denominator`` as weighted Pauli strings.

    The one builder of weighted strings: each row ``(text, x, z, re, im)``
    becomes ``PauliString(n, x, z)`` with the exact coefficient
    (re + i im) / denominator, in row order.
    """
    return [
        WeightedPauliString(
            ExactComplex(Fraction(re, denominator), Fraction(im, denominator)), PauliString(n, x, z)
        )
        for _, x, z, re, im in rows
    ]


def jw_term(term: FermionicTerm) -> list[WeightedPauliString]:
    """Expand a term's full ladder product into weighted Pauli strings.

    This is :func:`~paulisched.fermion.jw_image` of a unit of one block, the term's key at
    value 1, its two Y halves merged back into text order and read through
    :func:`weighted_strings`: equal strings arising from index repetition
    are combined and zero coefficients dropped, so nilpotent products come
    back empty, and the result is sorted by string text.
    """
    denominator, [(even, odd)] = jw_image(term.n, [[((term.creates, term.annihilates), 1)]])
    return weighted_strings(term.n, denominator, sorted(even + odd))


# ---------------------------------------------------------------------------
# Exact matrices: {(row, column): ExactComplex}, qubit and mode t in bit t


# column v of each letter's 2x2 matrix as (u, k): its one nonzero entry, i**k, in row u
_ACTION = {"I": ((0, 0), (1, 0)), "X": ((1, 0), (0, 0)), "Y": ((1, 1), (0, 3)), "Z": ((0, 0), (1, 2))}
_SIGNS = (ExactComplex(1), ExactComplex(-1))


def weighted_sum_matrix(strings: list[WeightedPauliString], n: int) -> dict:
    """The exact sum of the weighted strings on n qubits; no strings give ``{}``.

    A string maps each basis state to one basis state times i**k: the
    Kronecker product of its letters' actions, read off its text.  The sum
    is made on numerators over the lcm of the coefficients' denominators.
    """
    denominator = lcm(*(part.denominator for w in strings for part in (w.coefficient.real, w.coefficient.imag)))
    real, imag = {}, {}  # per (row, column), numerators over the denominator
    for w in strings:
        if w.string.n != n:
            raise ValueError(f"{w.string} acts on {w.string.n} qubits, not {n}")
        re, im = (int(part * denominator) for part in (w.coefficient.real, w.coefficient.imag))
        turns = ((re, im), (-im, re), (-re, -im), (im, -re))  # the coefficient times i**k
        phases = {(0, 0): 0}
        for t, letter in enumerate(w.string.text()):
            phases = {
                (row | u << t, column | v << t): k + dk
                for (row, column), k in phases.items()
                for v, (u, dk) in enumerate(_ACTION[letter])
            }
        for key, k in phases.items():
            real[key] = real.get(key, 0) + turns[k & 3][0]
            imag[key] = imag.get(key, 0) + turns[k & 3][1]
    return {
        key: ExactComplex(Fraction(a, denominator), Fraction(imag[key], denominator))
        for key, a in real.items()
        if a or imag[key]
    }


def ladder_matrix(mode: int, dagger: bool, n: int) -> dict:
    """Ladder operator in the occupation basis, built from its defining action.

    Basis state b has mode t occupied iff bit t of b is set, as qubit t of
    :func:`weighted_sum_matrix`.  Annihilating mode m maps an occupied state
    to the cleared state with sign (-1)^(number of occupied modes below m);
    creation is the transpose action.
    """
    bit = 1 << mode
    return {
        (b ^ bit, b): _SIGNS[(b & (bit - 1)).bit_count() & 1] for b in range(1 << n) if bool(b & bit) != dagger
    }


def term_matrix(term: FermionicTerm) -> dict:
    """The product of the term's ladder matrices, creates then annihilates.

    Each ladder matrix holds at most one sign per column, so the product is
    followed column by column, from the rightmost factor.
    """
    columns = {b: (b, 0) for b in range(1 << term.n)}  # column: (row, odd sign)
    for mode, dagger in reversed([(m, True) for m in term.creates] + [(m, False) for m in term.annihilates]):
        step = {c: (r, entry.real < 0) for (r, c), entry in ladder_matrix(mode, dagger, term.n).items()}
        columns = {b: (step[r][0], odd ^ step[r][1]) for b, (r, odd) in columns.items() if r in step}
    return {(r, b): _SIGNS[odd] for b, (r, odd) in columns.items()}


def _max_deviation(got: dict, want: dict) -> float:
    """The largest entrywise |got - want| of two exact matrices, 0.0 when they are equal."""
    zero = ExactComplex()
    pairs = ((got.get(key, zero), want.get(key, zero)) for key in got.keys() | want.keys())
    deviations = [abs(complex(float(g.real - w.real), float(g.imag - w.imag))) for g, w in pairs if g != w]
    return max(deviations, default=0.0)


# ---------------------------------------------------------------------------
# Oracles


def _canonical_terms(n: int) -> list[FermionicTerm]:
    """Every canonical non-vanishing term on n modes: each one-body term, each
    two-body term whose create and annihilate pairs overlap, and per 4-subset
    the term creating its two largest modes."""
    pairs = [(a, b) for a in range(n) for b in range(a)]  # descending
    terms = [FermionicTerm((p,), (q,), n) for p in range(n) for q in range(n)]
    terms += [FermionicTerm(c, d, n) for c in pairs for d in pairs if set(c) & set(d)]
    return terms + [FermionicTerm((d, c), (b, a), n) for a, b, c, d in combinations(range(n), 4)]


def verify_jw_against_matrices(n: int) -> OracleReport:
    """Check every canonical term at size n, repeated-index two-body terms
    included, and each 4-subset in all six create/annihilate splits.

    Each term's weighted string expansion must equal its occupation-basis
    ladder-operator product matrix exactly; ``max_deviation`` is the largest
    entrywise difference, as a float.  The canonical list holds one split
    per 4-subset; the other five follow it, as a weighted compile reads
    them all.  Raises ValueError unless 1 <= n <= 8.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"the dense check is meant for 1 to 8 modes, got {n}")
    terms = _canonical_terms(n) + [
        FermionicTerm(creates, tuple(m for m in sub if m not in creates), n)
        for sub in combinations(range(n - 1, -1, -1), 4)
        for creates in islice(combinations(sub, 2), 1, None)  # the first is the canonical split
    ]
    worst = 0.0
    exact = 0
    bad: str | None = None
    for term in terms:
        got, want = weighted_sum_matrix(jw_term(term), n), term_matrix(term)
        diff = _max_deviation(got, want)
        worst = max(worst, diff)
        exact += got == want
        if got != want and bad is None:
            bad = f"term {term.creates}/{term.annihilates}: max deviation {diff}"
    return OracleReport(
        name=f"jw-dense-n{n}",
        passed=bad is None,
        details={"n": n, "terms_checked": len(terms), "exact_matches": exact, "max_deviation": worst},
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
        (a, b, c, d), (e, f, g, h) = picked, rest
        term_a, term_b = FermionicTerm((d, c), (b, a), 8), FermionicTerm((h, g), (f, e), 8)
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


def verify_sliding_invariance() -> OracleReport:
    """Moving one endpoint without crossing the other term's endpoints keeps
    every cross pair's anticommuting parity unchanged (and even), over 200
    seeded random cases of two disjoint two-body terms on 8 to 12 modes."""
    trials, max_n = 200, 12
    rng = random.Random(7)
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
        # each side's modes are descending: the term creates the first two
        term_b = FermionicTerm(b[:2], b[2:], n)
        before, after = (
            [c % 2 for _, _, c in _cross_counts(FermionicTerm(modes[:2], modes[2:], n), term_b)]
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


def verify_anticommuting_chains() -> OracleReport:
    """No two distinct members of :func:`anticommuting_chain_fixture`
    commute, for every n up to 8."""
    max_n = 8
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
    subsets = 0
    for r, rnd in enumerate(schedule.rounds):
        used: set[int] = set()
        subsets += len(rnd)
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
            "subsets": subsets,
            "checks": checks,
        },
        counterexample=bad,
    )


def anticommuting_pair_by_scan(strings) -> tuple[PauliString, PauliString] | None:
    """The first pair (a, b), a before b, of ``strings`` that anticommutes, or None,
    by a plain scan of every (i, j), i < j.

    The audit's own rule on :class:`PauliString` values, the parity of
    :func:`anticommuting_index_count`: it shares no code with the
    compile's certifier, ``partition._anticommuting_indices`` on masks, and
    names the same pair.

    Raises:
        ValueError: if the strings act on different registers.
    """
    for s in strings[1:]:
        if s.n != strings[0].n:
            raise ValueError(f"Pauli strings act on different registers: {strings[0].n} != {s.n}")
    for i, a in enumerate(strings):
        for b in strings[i + 1:]:
            if anticommuting_index_count(a, b) & 1:
                return a, b
    return None


def _family_strings(family) -> list[WeightedPauliString]:
    """The family's rows as weighted strings on its register, by
    :func:`weighted_strings`, once each row's text is seen to be its
    string's text: ``parse_pauli(text)`` is the string, as the text rule is
    the inverse of :func:`parse_pauli`.

    Raises:
        ValueError: if a row does not fit the register, or its text is not
            the text of its masks.
    """
    strings = weighted_strings(family.n, family.denominator, family.rows)
    for (text, *_), w in zip(family.rows, strings):
        if w.string.text() != text:
            raise ValueError(f"row text {text!r} does not spell {w.string}")
    return strings


def validate_families(families) -> OracleReport:
    """Commutation audit of every pair of every family.

    Each family's rows, read by :func:`_family_strings`, go through
    :func:`anticommuting_pair_by_scan`, which tests every pair up to the
    first that anticommutes; a row that does not fit the register, or
    whose text does not spell its masks, fails the family.
    ``pairs_checked`` counts C(size, 2) pairs per family.
    """
    families = list(families)
    bad: str | None = None
    pairs = 0
    for idx, family in enumerate(families):
        pairs += comb(len(family.rows), 2)
        try:
            pair = anticommuting_pair_by_scan([w.string for w in _family_strings(family)])
        except ValueError as exc:  # a row does not fit the family's register or its text
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
    over the ``terms`` of ``coeffs`` when given, each term built straight
    from its key ``(creates, annihilates)``, else over every canonical
    term at value 1, the list that :func:`verify_jw_against_matrices`
    extends.
    Each family's rows are read by :func:`_family_strings`, as
    :func:`validate_families` reads them: a family that does not read
    fails.  Every string must act on n qubits, no string may appear twice,
    and the family strings must sum exactly to that image.  For n <= 6 the
    families also sum to the same matrix as the occupation-basis terms.
    Never raises on bad families.
    """
    families = list(families)
    strings, unread = [], None
    for idx, family in enumerate(families):
        try:
            strings.append(_family_strings(family))
        except ValueError as exc:  # a row does not fit the family's register or its text
            strings.append([])
            unread = unread or f"family {idx}: {exc}"
    if coeffs is None:
        table = [(term, 1) for term in _canonical_terms(n)]
    else:
        table = [(FermionicTerm(creates, annihilates, n), v) for (creates, annihilates), v in coeffs.terms.items()]
    image: dict[PauliString, ExactComplex] = {}
    for term, value in table:
        for w in jw_term(term):
            image[w.string] = image.get(w.string, ExactComplex()) + w.coefficient * ExactComplex(value)
    image = {s: c for s, c in image.items() if c}

    foreign = next(
        ((idx, w.string) for idx, weighted in enumerate(strings) for w in weighted if w.string.n != n),
        None,
    )
    bad = unread or (foreign and f"family {foreign[0]}: {foreign[1]} acts on {foreign[1].n} qubits, not {n}")
    emitted: dict[PauliString, ExactComplex] = {}
    slots = 0
    for idx, weighted in enumerate(strings):
        for w in weighted:
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

    if n <= 6 and foreign is None and unread is None:
        sums: dict[tuple[int, int], Fraction] = {}
        for term, value in table:
            for key, sign in term_matrix(term).items():
                sums[key] = sums.get(key, 0) + value * sign.real  # a term's entries are real signs
        want = {key: ExactComplex(v) for key, v in sums.items() if v}
        got = weighted_sum_matrix([w for weighted in strings for w in weighted], n)
        details["dense_max_deviation"] = deviation = _max_deviation(got, want)
        if got != want and bad is None:
            bad = f"dense sum of the families deviates from the Hamiltonian by {deviation}"
    return OracleReport(name="partition-validation", passed=bad is None, details=details, counterexample=bad)
