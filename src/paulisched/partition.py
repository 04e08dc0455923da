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
Coefficients, when supplied, act purely as a zero filter and a per-string
weight: entries are brought to normal order (descending indices inside each
operator kind, with the antisymmetry sign), accumulated per canonical term,
and folded into the string weights of the families they touch.

Family construction per round is independent and is performed in round
order; results are deterministic and bit-identical between runs.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

from .baranyai import Schedule, pad_and_build
from .fermion import FermionicTerm, jw_excitation, jw_term
from .oracles import validate_schedule
from .pauli import ExactComplex, WeightedPauliString, _anticommuting_pair

__all__ = [
    "CommutingFamily",
    "FamilyCertificationError",
    "HamiltonianCoefficients",
    "PartitionReport",
    "ScheduleLoadError",
    "CoefficientsLoadError",
    "apply_coefficients",
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


@dataclass(frozen=True)
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


def dominant_term(subset, n: int) -> FermionicTerm:
    """Canonical representative for a 4-subset: create the two largest modes."""
    a, b, c, d = sorted(subset, reverse=True)
    return FermionicTerm.two_body(a, b, c, d, n)


def commuting_families(schedule: Schedule) -> list[CommutingFamily]:
    """Two certified families per round: the even-Y and odd-Y string halves."""
    families = []
    for rnd in schedule.rounds:
        halves: tuple[list, list] = ([], [])
        terms = []
        for subset in rnd:
            term = dominant_term(subset, schedule.n)
            terms.append(term)
            for w in jw_excitation(term):
                halves[_y_parity(w)].append(w)
        for half in halves:
            families.append(_certified(half, terms, "dominant"))
    return families


def _residual_structural_terms(n: int):
    """All canonical non-vanishing terms outside the dominant class, unweighted."""
    for p in range(n):
        for q in range(n):
            yield FermionicTerm.one_body(p, q, n)
    for p, q in combinations(range(n), 2):
        for r, s in combinations(range(n), 2):
            creates = (q, p)  # descending
            annihilates = (s, r)
            if set(creates) & set(annihilates):
                yield FermionicTerm(creates, annihilates, n)


def residual_families(n: int, coeffs: "HamiltonianCoefficients | None" = None) -> list[CommutingFamily]:
    """Per-term families for everything Eq.-style outside the dominant class.

    With coefficients supplied, only terms carrying a nonzero accumulated
    value are emitted and their strings are weighted by it; without, every
    structurally non-vanishing term appears with its raw encoding weights.
    The total family count is bounded by 2 n^3.
    """
    if n < 1:
        raise ValueError("mode count must be positive")
    if coeffs is None:
        weighted_terms = [(term, None) for term in _residual_structural_terms(n)]
    else:
        if coeffs.n != n:
            raise ValueError(f"coefficients are for n={coeffs.n}, not n={n}")
        weighted_terms = []
        for (p, q), value in sorted(coeffs.one_body.items()):
            weighted_terms.append((FermionicTerm.one_body(p, q, n), ExactComplex(value)))
        for key, value in sorted(coeffs.two_body.items()):
            if len(set(key)) == 4:
                continue  # dominant class, handled by the schedule
            p, q, r, s = key
            weighted_terms.append((FermionicTerm.two_body(p, q, r, s, n), ExactComplex(value)))

    families = []
    pooled_strings: list[WeightedPauliString] = []
    pooled_terms: list[FermionicTerm] = []
    for term, weight in weighted_terms:
        strings = jw_term(term)
        if weight is not None:
            strings = [WeightedPauliString(w.coefficient * weight, w.string) for w in strings]
        if not strings:
            continue
        if all(w.string.x == 0 for w in strings):  # I/Z only
            pooled_strings.extend(strings)
            pooled_terms.append(term)
            continue
        halves: tuple[list, list] = ([], [])
        for w in strings:
            halves[_y_parity(w)].append(w)
        for half in halves:
            if half:
                families.append(_certified(half, [term], "residual"))
    if pooled_strings:
        families.append(_certified(pooled_strings, pooled_terms, "residual"))
    return families


# ---------------------------------------------------------------------------
# Hamiltonian coefficients


@dataclass(frozen=True)
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
        return HamiltonianCoefficients.from_entries(n, one, two)
    except (KeyError, TypeError, ValueError) as exc:
        raise CoefficientsLoadError(f"malformed coefficients file {path}: {exc}") from exc


def _support_weight_maps(coeffs: HamiltonianCoefficients):
    """Accumulated per-string weights of all dominant-class entries, by support."""
    maps: dict[int, dict] = {}
    for key, value in sorted(coeffs.two_body.items()):
        if len(set(key)) != 4:
            continue
        p, q, r, s = key
        term = FermionicTerm.two_body(p, q, r, s, coeffs.n)
        mask = 0
        for t in key:
            mask |= 1 << t
        acc = maps.setdefault(mask, {})
        scale = ExactComplex(value)
        for w in jw_excitation(term):
            acc[w.string] = acc.get(w.string, ExactComplex()) + w.coefficient * scale
    return maps


def apply_coefficients(
    families: list[CommutingFamily], coeffs: HamiltonianCoefficients
) -> list[CommutingFamily]:
    """Reweight dominant families by the coefficient tables.

    Strings whose 4-subset has no nonzero entry drop out; fully emptied
    families drop entirely.  Residual families pass through untouched (they
    are built against the coefficients directly).
    """
    maps = _support_weight_maps(coeffs)
    out = []
    for family in families:
        if family.origin != "dominant":
            out.append(family)
            continue
        kept = []
        touched_supports = set()
        for w in family.strings:
            weights = maps.get(w.string.x)  # x mask = endpoint mask = support
            if not weights:
                continue
            c = weights.get(w.string)
            if c:
                kept.append(WeightedPauliString(c, w.string))
                touched_supports.add(w.string.x)
        if not kept:
            continue
        terms = tuple(
            t for t in family.provenance
            if sum(1 << m for m in t.support()) in touched_supports
        )
        out.append(CommutingFamily(tuple(kept), terms, "dominant"))
    return out


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


@dataclass(frozen=True)
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
    """Schedule -> certified families, optionally filtered/weighted by coefficients."""
    schedule = schedule_for(n)
    families = commuting_families(schedule)
    if coeffs is not None:
        if coeffs.n != n:
            raise ValueError(f"coefficients are for n={coeffs.n}, not n={n}")
        families = apply_coefficients(families, coeffs)
    families = families + residual_families(n, coeffs)
    return PartitionReport(n, tuple(families), coeffs is not None)
