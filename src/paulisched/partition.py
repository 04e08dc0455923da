"""Assembly of measurement families, coefficient ingestion and persistence.

The dominant O(n^4) class of Hamiltonian terms (two-body, four distinct
mode indices) is grouped round by round from a schedule: within one term's
16-string encoding, two strings commute exactly when they differ at an even
number of endpoint letters, and the parity of the total Y count tracks that
difference, so the even-Y and odd-Y halves are each internally commuting.
Across terms of the same round commutation holds because the index sets are
disjoint.  One round therefore yields two certified families of 2n strings,
for 2 * C(n-1, 3) dominant families overall.

Everything not in the dominant class (one-body terms and two-body terms
with a repeated index, O(n^3) of them) is grouped per term with the same
Y-parity split; terms whose strings are all I/Z are pooled into a single
family, since such strings always commute.  This residual grouping is a
placeholder strategy and is flagged as such in report summaries.

Grouping structure depends only on n, never on coefficient values.
Coefficients, when supplied, are brought to normal order (descending
indices inside each operator kind, with the antisymmetry sign) and
accumulated per canonical term.  Each term's expansion is then scaled by
its value and folded per string before the split: for the dominant class,
every entry on one 4-subset folds into one list under the subset's
canonical term.  Strings whose sum is zero never reach a family, so there
is no filter pass; without coefficients every canonical term enters the
same fold and split with value 1.

Family construction per round is independent and is performed in round
order; results are deterministic and bit-identical between runs.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isfinite
from pathlib import Path

from .baranyai import Schedule, pad_and_build
from .fermion import FermionicTerm, jw_excitation, jw_term
from .oracles import validate_schedule
from .pauli import ExactComplex, PauliString, WeightedPauliString, _anticommuting_pair

__all__ = [
    "CommutingFamily",
    "FamilyCertificationError",
    "HamiltonianCoefficients",
    "PartitionReport",
    "ScheduleLoadError",
    "CoefficientsLoadError",
    "build_partition",
    "commuting_families",
    "load_coefficients",
    "load_schedule",
    "residual_families",
    "save_families",
    "save_schedule",
    "schedule_for",
    "schedule_json",
]

RESIDUAL_STRATEGY = "per-term Y-parity split; all-I/Z terms pooled (placeholder grouping)"


class FamilyCertificationError(RuntimeError):
    """A constructed family failed its all-pairs commutation check (a bug if it fires)."""


class ScheduleLoadError(ValueError):
    pass


class CoefficientsLoadError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class CommutingFamily:
    """Pauli strings certified pairwise-commuting, with the terms they came from."""

    strings: tuple[WeightedPauliString, ...]
    provenance: tuple[FermionicTerm, ...]
    origin: str  # "dominant" or "residual"


def _certified(strings, provenance, origin) -> CommutingFamily:
    family = CommutingFamily(tuple(strings), tuple(provenance), origin)
    bad = _anticommuting_pair([w.string for w in family.strings])
    if bad is not None:
        a, b = bad
        raise FamilyCertificationError(f"{a} and {b} do not commute in a {origin} family")
    return family


def _y_parity(w: WeightedPauliString) -> int:
    # Y letters only ever sit on endpoint positions, so total Y parity is
    # exactly the endpoint Y parity the split needs.
    return (w.string.x & w.string.z).bit_count() & 1


def _fold(entries) -> list[WeightedPauliString]:
    """One text-sorted list of weighted strings from (expansion, value) entries.

    Values are summed per string as exact real and imaginary parts, and
    strings that sum to zero drop out.  A single entry with value 1 comes
    back unchanged.
    """
    if len(entries) == 1 and entries[0][1] == 1:
        return entries[0][0]
    sums: dict[PauliString, list[Fraction]] = {}
    for strings, value in entries:
        for w in strings:
            re_im = sums.setdefault(w.string, [Fraction(0), Fraction(0)])
            # JW coefficients are real or imaginary: skipping the zero part
            # halves the Fraction products
            if w.coefficient.real:
                re_im[0] += w.coefficient.real * value
            if w.coefficient.imag:
                re_im[1] += w.coefficient.imag * value
    folded = [
        WeightedPauliString(ExactComplex(re, im), string)
        for string, (re, im) in sums.items()
        if re or im
    ]
    folded.sort(key=lambda w: w.string.text())
    return folded


def _split(unit, origin: str) -> list[CommutingFamily]:
    """The certified even-Y and odd-Y families of a unit of (term, strings) pairs.

    A term is provenance of each half it puts a string into; empty halves
    drop out.
    """
    halves: tuple[list, list] = ([], [])
    terms: tuple[list, list] = ([], [])
    for term, strings in unit:
        sizes = [len(half) for half in halves]
        for w in strings:
            halves[_y_parity(w)].append(w)
        for half, provenance, size in zip(halves, terms, sizes):
            if len(half) > size:
                provenance.append(term)
    return [_certified(half, provenance, origin) for half, provenance in zip(halves, terms) if half]


def dominant_term(subset, n: int) -> FermionicTerm:
    """Canonical representative for a 4-subset: create the two largest modes."""
    a, b, c, d = sorted(subset, reverse=True)
    return FermionicTerm.two_body(a, b, c, d, n)


def _term_table(n: int, coeffs: "HamiltonianCoefficients | None", dominant: bool):
    """The (term, value) input of one class: dominant, or everything else.

    Without coefficients every canonical non-vanishing term appears once
    with value 1; with them, the table's entries in sorted key order.
    """
    if coeffs is None:
        if dominant:
            terms = [dominant_term(s, n) for s in combinations(range(n), 4)]
        else:
            terms = [FermionicTerm.one_body(p, q, n) for p in range(n) for q in range(n)]
            terms += [
                FermionicTerm((q, p), (s, r), n)  # descending
                for p, q in combinations(range(n), 2)
                for r, s in combinations(range(n), 2)
                if {p, q} & {r, s}
            ]
        return [(term, 1) for term in terms]
    if coeffs.n != n:
        raise ValueError(f"coefficients are for n={coeffs.n}, not n={n}")
    table = [] if dominant else [
        (FermionicTerm.one_body(p, q, n), value) for (p, q), value in sorted(coeffs.one_body.items())
    ]
    for (p, q, r, s), value in sorted(coeffs.two_body.items()):
        if (len({p, q, r, s}) == 4) == dominant:
            table.append((FermionicTerm.two_body(p, q, r, s, n), value))
    return table


def commuting_families(
    schedule: Schedule, coeffs: "HamiltonianCoefficients | None" = None
) -> list[CommutingFamily]:
    """Two certified families per round: the even-Y and odd-Y string halves.

    A subset contributes the strings of every entry on it, folded, under
    its canonical :func:`dominant_term`; subsets without entries and
    families left empty drop out.
    """
    # subset -> (canonical term, entries); the canonical term is built only
    # when the subset's first entry is not already it
    entries: dict[tuple[int, ...], tuple[FermionicTerm, list]] = {}
    for term, value in _term_table(schedule.n, coeffs, dominant=True):
        modes = term.creates + term.annihilates
        subset = tuple(sorted(modes, reverse=True))
        if subset not in entries:
            canonical = term if modes == subset else dominant_term(subset, schedule.n)
            entries[subset] = (canonical, [])
        entries[subset][1].append((term, value))
    families = []
    for rnd in schedule.rounds:
        unit = []
        for subset in rnd:
            if subset in entries:
                canonical, subset_entries = entries[subset]
                expansions = [(jw_excitation(term), value) for term, value in subset_entries]
                unit.append((canonical, _fold(expansions)))
        families += _split(unit, "dominant")
    return families


def residual_families(n: int, coeffs: "HamiltonianCoefficients | None" = None) -> list[CommutingFamily]:
    """Families for every term outside the dominant class.

    Each term is its own unit of the Y-parity split, except that terms
    whose strings are all I/Z pool into one last family.  With coefficients
    supplied, only the terms carrying a nonzero value appear, weighted by
    it.  The total family count is bounded by 2 n^3.
    """
    if n < 1:
        raise ValueError("mode count must be positive")
    families = []
    pool = []
    for term, value in _term_table(n, coeffs, dominant=False):
        strings = _fold([(jw_term(term), value)])
        if all(w.string.x == 0 for w in strings):  # I/Z only
            pool.append((term, strings))
        else:
            families += _split([(term, strings)], "residual")
    return families + _split(pool, "residual")


# ---------------------------------------------------------------------------
# Hamiltonian coefficients


@dataclass(frozen=True, slots=True)
class HamiltonianCoefficients:
    """Normal-ordered coefficient tables; absent entries mean zero.

    ``one_body`` maps (p, q) to the weight of the p-create/q-annihilate
    term; ``two_body`` maps descending-canonical (p, q, r, s) with p > q and
    r > s.  Use :func:`load_coefficients` or :meth:`from_entries` so raw
    index orders are normalized (with antisymmetry signs) and duplicate
    entries accumulate.
    """

    n: int
    one_body: dict[tuple[int, int], Fraction]
    two_body: dict[tuple[int, int, int, int], Fraction]

    @classmethod
    def from_entries(cls, n, one_body_entries, two_body_entries) -> "HamiltonianCoefficients":
        one: dict[tuple[int, int], Fraction] = {}
        for (p, q), value in one_body_entries:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"one-body index ({p}, {q}) out of range for n={n}")
            key = (p, q)
            one[key] = one.get(key, Fraction(0)) + Fraction(value)
        two: dict[tuple[int, int, int, int], Fraction] = {}
        for (p, q, r, s), value in two_body_entries:
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
        return cls(
            n,
            {k: v for k, v in one.items() if v},
            {k: v for k, v in two.items() if v},
        )


def load_coefficients(path) -> HamiltonianCoefficients:
    """Read a coefficients JSON file.

    Expected shape::

        {"n": 8,
         "one_body": [{"pq": [p, q], "value": v}, ...],
         "two_body": [{"pqrs": [p, q, r, s], "value": v}, ...]}
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CoefficientsLoadError(f"cannot read coefficients file {path}: {exc}") from exc
    try:
        n = data["n"]
        one = [(tuple(entry["pq"]), entry["value"]) for entry in data.get("one_body", [])]
        two = [(tuple(entry["pqrs"]), entry["value"]) for entry in data.get("two_body", [])]
        # bool is a subclass of int, but true/false are not JSON integers
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        for key, _ in one + two:
            if any(type(t) is not int for t in key):
                raise ValueError(f"mode indices must be integers, got {list(key)!r}")
        if any(len(k) != 2 for k, _ in one) or any(len(k) != 4 for k, _ in two):
            raise ValueError("index lists must have 2 (pq) or 4 (pqrs) entries")
        for _, value in one + two:
            # JSON Infinity and NaN parse as floats, and strings or booleans
            # would convert silently
            if not (type(value) is int or (type(value) is float and isfinite(value))):
                raise ValueError(f"coefficient values must be finite numbers, got {value!r}")
        coeffs = HamiltonianCoefficients.from_entries(n, one, two)
        # With real values, H is Hermitian iff every normal-ordered entry
        # equals the entry of its adjoint, whose key swaps the create and
        # annihilate halves; an absent entry is 0.
        for table in (coeffs.one_body, coeffs.two_body):
            for key, value in sorted(table.items()):
                adjoint = key[len(key) // 2:] + key[:len(key) // 2]
                if table.get(adjoint, 0) != value:
                    raise ValueError(
                        f"not Hermitian: entry {list(key)} is {float(value)} but its adjoint "
                        f"{list(adjoint)} is {float(table.get(adjoint, 0))}"
                    )
        return coeffs
    except (KeyError, TypeError, ValueError) as exc:
        raise CoefficientsLoadError(f"malformed coefficients file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Persistence


def schedule_json(schedule: Schedule) -> str:
    """The canonical schedule JSON, one line; :func:`read_schedule_file` parses it."""
    payload = {"n": schedule.n, "rounds": [[list(s) for s in rnd] for rnd in schedule.rounds]}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def save_schedule(schedule: Schedule, path) -> None:
    """Write :func:`schedule_json` to ``path``."""
    Path(path).write_text(schedule_json(schedule))


def read_schedule_file(path) -> Schedule:
    """Parse a schedule JSON file without validating its combinatorics."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScheduleLoadError(f"cannot read schedule file {path}: {exc}") from exc
    try:
        n = data["n"]
        rounds = [[tuple(s) for s in rnd] for rnd in data["rounds"]]
        # bool is a subclass of int, but true/false are not JSON integers
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        for rnd in rounds:
            for subset in rnd:
                if any(type(t) is not int for t in subset):
                    raise ValueError(f"subset indices must be integers, got {list(subset)!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleLoadError(f"malformed schedule file {path}: {exc}") from exc
    if any(len(s) != 4 for rnd in rounds for s in rnd):
        raise ScheduleLoadError(f"malformed schedule file {path}: subsets must have 4 indices")
    return Schedule.from_rounds(n, rounds)


def load_schedule(path, expected_n: int | None = None) -> Schedule:
    """Read and re-validate a schedule file; invalid content raises ScheduleLoadError."""
    schedule = read_schedule_file(path)
    if expected_n is not None and schedule.n != expected_n:
        raise ScheduleLoadError(
            f"schedule file {path} is for n={schedule.n}, expected n={expected_n}"
        )
    report = validate_schedule(schedule)
    if not report.passed:
        raise ScheduleLoadError(f"schedule file {path} failed validation: {report.counterexample}")
    return schedule


def save_families(families: list[CommutingFamily], path) -> None:
    """Write the families JSON: text strings, [re, im] coefficients, term provenance."""
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
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Top-level assembly


_SCHEDULE_CACHE: dict[int, Schedule] = {}


def schedule_for(n: int) -> Schedule:
    """Schedule for n, memoized per process; schedules depend on nothing else."""
    if n not in _SCHEDULE_CACHE:
        _SCHEDULE_CACHE[n] = pad_and_build(n)
    return _SCHEDULE_CACHE[n]


@dataclass(frozen=True, slots=True)
class PartitionReport:
    n: int
    families: tuple[CommutingFamily, ...]
    weighted: bool

    @property
    def family_count(self) -> int:
        return len(self.families)

    def summary(self) -> dict:
        dominant = [f for f in self.families if f.origin == "dominant"]
        residual = [f for f in self.families if f.origin == "residual"]
        rounds_reference = comb(self.n - 1, 3)
        return {
            "n": self.n,
            "weighted": self.weighted,
            "family_count": self.family_count,
            "dominant_families": len(dominant),
            "residual_families": len(residual),
            "dominant_strings": sum(len(f.strings) for f in dominant),
            "residual_strings": sum(len(f.strings) for f in residual),
            "max_family_size": max((len(f.strings) for f in self.families), default=0),
            "dominant_per_round_ratio": (
                len(dominant) / rounds_reference if rounds_reference else None
            ),
            "residual_strategy": RESIDUAL_STRATEGY,
        }


def build_partition(n: int, coeffs: HamiltonianCoefficients | None = None) -> PartitionReport:
    """Schedule -> certified families, weighted by coefficients when supplied."""
    families = commuting_families(schedule_for(n), coeffs) + residual_families(n, coeffs)
    return PartitionReport(n, tuple(families), coeffs is not None)
