"""Assembly of measurement families, coefficient ingestion and persistence.

One pass yields the partition unit by unit.  Every JW string of a term
has the same X mask, the XOR of the term's mode bits, so all terms are
grouped into *blocks* keyed by that X-support, in one table.  Each block is
folded once, by :func:`~paulisched.fermion.jw_image`, into the exact JW
image of its weighted terms; :mod:`paulisched.fermion` sums the integer
numerators and builds the strings, this module only groups and splits them.
Each unit of blocks is then split into an even-Y and an odd-Y family, and
both are yielded before the next unit is folded: a caller that writes the
families as they come, as the command line does, holds the block table and
one unit's families, never the whole partition, and the table shrinks as
its blocks are taken.

The units are the schedule's rounds first, then every block the rounds
leave, one unit each in ascending X-mask order.  A round takes the block
of each of its 4-subsets (two-body terms on four distinct modes) out of
the table, if the subset's modes are distinct, in range and unused by the
round's earlier subsets.  Within such a block, two strings commute
exactly when they differ at an even number of endpoint letters, which the
Y-count parity tracks; blocks of one round have disjoint modes.  So a
full schedule of t rounds yields two certified families of at most 2n
strings per round, 2t in all.  Every other term has X or Y on no mode or
on one pair: two strings of such a block with equal Y parity differ on both
modes of the pair or on neither and carry only I or Z elsewhere, so they
commute.  A family is labelled "dominant" when its blocks have four-mode
X-support, else "residual".

Since each block is taken out of the table once, each distinct string sits
in exactly one family, whose provenance is every term of each block that
puts a string into it.  A schedule only decides how the four-mode blocks
are packed into families: an incomplete one leaves more units, never
fewer strings.

Grouping depends only on n.  Coefficients are brought to normal order
(descending indices per operator kind, with the antisymmetry sign) and
summed once per canonical term, on integer numerators over one common
denominator.  Output is bit-identical between runs.
"""

import errno
import json
import os
import sys
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

from .baranyai import Schedule, build_schedule, round_sizes
from .fermion import FermionicTerm, jw_image
from .pauli import WeightedPauliString, anticommuting_pair

__all__ = [
    "CommutingFamily",
    "FamilyCertificationError",
    "HamiltonianCoefficients",
    "PartitionReport",
    "ScheduleLoadError",
    "CoefficientsLoadError",
    "FamiliesWriteError",
    "build_partition",
    "commuting_families",
    "load_coefficients",
    "read_schedule_file",
    "save_families",
    "schedule_for",
    "schedule_json",
    "summarize",
    "write_replacing",
]


class FamilyCertificationError(RuntimeError):
    """A constructed family failed its commutation check (a bug if it fires)."""


class ScheduleLoadError(ValueError):
    pass


class CoefficientsLoadError(ValueError):
    pass


class FamiliesWriteError(ValueError):
    pass


_FLOAT_MAX = sys.float_info.max


def _shown(value: Fraction) -> str:  # a float for a message, if it has one
    return repr(float(value)) if abs(value) <= _FLOAT_MAX else str(value)


@dataclass(frozen=True, slots=True)
class CommutingFamily:
    """Pauli strings certified pairwise-commuting, with the terms they came from."""

    strings: tuple[WeightedPauliString, ...]
    provenance: tuple[FermionicTerm, ...]
    origin: str  # "dominant" or "residual"


def _certified(strings, provenance, origin) -> CommutingFamily:
    family = CommutingFamily(tuple(strings), tuple(provenance), origin)
    bad = anticommuting_pair([w.string for w in family.strings])
    if bad is not None:
        a, b = bad
        raise FamilyCertificationError(f"{a} and {b} do not commute in a {origin} family")
    return family


def _y_parity(w: WeightedPauliString) -> int:
    # Y letters only ever sit on endpoint positions, so total Y parity is
    # exactly the endpoint Y parity the split needs.
    return (w.string.x & w.string.z).bit_count() & 1


def _split(unit, origin: str) -> list[CommutingFamily]:
    """The certified even-Y and odd-Y families of a unit of blocks.

    A block is a list of (term, value) entries, folded here into its
    :func:`~paulisched.fermion.jw_image`; all its terms are provenance of
    each half it puts a string into.  Empty halves drop.
    """
    halves: tuple[list, list] = ([], [])
    terms: tuple[list, list] = ([], [])
    for block in unit:
        sizes = [len(half) for half in halves]
        for w in jw_image(block):
            halves[_y_parity(w)].append(w)
        for half, provenance, size in zip(halves, terms, sizes):
            if len(half) > size:
                provenance += [term for term, _ in block]
    return [_certified(half, provenance, origin) for half, provenance in zip(halves, terms) if half]


def _blocks(n: int, coeffs: "HamiltonianCoefficients | None") -> dict[int, list]:
    """Every (term, value) entry keyed by X mask: without coefficients every
    canonical non-vanishing term at value 1, else the entries by sorted key."""
    if coeffs is None:
        terms = [FermionicTerm.one_body(p, q, n) for p in range(n) for q in range(n)]
        terms += [
            FermionicTerm((q, p), (s, r), n)  # descending
            for p, q in combinations(range(n), 2)
            for r, s in combinations(range(n), 2)
            if {p, q} & {r, s}
        ]
        # one term per 4-subset, creating its two largest modes
        terms += [FermionicTerm.two_body(d, c, b, a, n) for a, b, c, d in combinations(range(n), 4)]
        table = [(term, 1) for term in terms]
    else:
        table = [(FermionicTerm.one_body(*key, n), value) for key, value in sorted(coeffs.one_body.items())]
        table += [(FermionicTerm.two_body(*key, n), value) for key, value in sorted(coeffs.two_body.items())]
    blocks: dict[int, list] = {}
    for term, value in table:
        # each side's modes are distinct, so its bits sum to their XOR
        mask = sum(1 << m for m in term.creates) ^ sum(1 << m for m in term.annihilates)
        blocks.setdefault(mask, []).append((term, value))
    return blocks


def commuting_families(
    schedule: Schedule, coeffs: "HamiltonianCoefficients | None" = None
) -> Iterator[CommutingFamily]:
    """The partition, yielded unit by unit: round units first, then every leftover block.

    A round's unit is the blocks of its subsets in round order, split into
    an even-Y and an odd-Y dominant family.  A subset adds its block only if
    it names four distinct in-range modes that no earlier subset of its
    round used, so a schedule built in the library needs no validation;
    any other subset, or one whose block is absent or already taken, adds
    nothing.  Each block the rounds leave is then a unit of its own, in
    ascending X-mask order, labelled by its X-support.  Empty families drop
    out.

    The arguments are checked and the block table is built at the call; the
    families are folded, split and certified as the iterator is advanced,
    each unit's only once the previous unit's have been taken, and every
    block leaves the table as its unit is folded.  The iterator is one-pass:
    take ``list()`` of it to index or reuse the families.
    """
    n = schedule.n
    if n < 1:
        raise ValueError("mode count must be positive")
    if coeffs is not None and coeffs.n != n:
        raise ValueError(f"coefficients are for n={coeffs.n}, not n={n}")
    return _units(schedule, _blocks(n, coeffs))


def _units(schedule: Schedule, blocks: dict[int, list]) -> Iterator[CommutingFamily]:
    """The families of :func:`commuting_families`, popping each block from ``blocks`` as it is used."""
    n = schedule.n
    for rnd in schedule.rounds:
        used, unit = 0, []
        for subset in rnd:
            mask = sum(1 << m for m in set(subset) if 0 <= m < n)
            if len(subset) == 4 and mask.bit_count() == 4 and not mask & used:
                used |= mask
                block = blocks.pop(mask, None)
                if block:
                    unit.append(block)
        yield from _split(unit, "dominant")
    for mask in sorted(blocks):
        yield from _split([blocks.pop(mask)], "dominant" if mask.bit_count() == 4 else "residual")


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
        one: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (p, q), value in one_body_entries:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"one-body index ({p}, {q}) out of range for n={n}")
            one.setdefault((p, q), []).append(_ratio(value))
        two: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
        for (p, q, r, s), value in two_body_entries:
            if not all(0 <= t < n for t in (p, q, r, s)):
                raise ValueError(f"two-body index ({p}, {q}, {r}, {s}) out of range for n={n}")
            if p == q or r == s:
                continue  # the operator vanishes
            num, den = _ratio(value)
            if p < q:
                p, q, num = q, p, -num
            if r < s:
                r, s, num = s, r, -num
            two.setdefault((p, q, r, s), []).append((num, den))
        return cls(n, _summed(one), _summed(two))


def _ratio(value) -> tuple[int, int]:
    """A value's exact (numerator, denominator); a non-float non-int goes through Fraction."""
    return (value if type(value) in (int, float) else Fraction(value)).as_integer_ratio()


def _summed(table: dict) -> dict:
    """Each key's ratios summed over their lcm denominator, one Fraction per key; zeros drop."""
    out = {}
    for key, ratios in table.items():
        denominator = lcm(*(den for _, den in ratios))
        total = sum(num * (denominator // den) for num, den in ratios)
        if total:
            out[key] = Fraction(total, denominator)
    return out


def load_coefficients(path) -> HamiltonianCoefficients:
    """Read a coefficients JSON file.

    Expected shape::

        {"n": 8,
         "one_body": [{"pq": [p, q], "value": v}, ...],
         "two_body": [{"pqrs": [p, q, r, s], "value": v}, ...]}
    """
    try:
        data = json.loads(Path(path).read_text())
    # ValueError covers JSONDecodeError and integer literals too long to parse
    except (OSError, ValueError) as exc:
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
            # JSON Infinity and NaN parse as floats, integers can exceed the
            # float range, and strings or booleans would convert silently
            if not (type(value) in (int, float) and abs(value) <= _FLOAT_MAX):
                raise ValueError(f"coefficient values must be finite numbers in float range, got {value!r}")
        coeffs = HamiltonianCoefficients.from_entries(n, one, two)
        # With real values, H is Hermitian iff every normal-ordered entry
        # equals the entry of its adjoint, whose key swaps the create and
        # annihilate halves; an absent entry is 0.
        for table in (coeffs.one_body, coeffs.two_body):
            for key, value in sorted(table.items()):
                adjoint = key[len(key) // 2:] + key[:len(key) // 2]
                if table.get(adjoint, 0) != value:
                    raise ValueError(
                        f"not Hermitian: entry {list(key)} is {_shown(value)} but its adjoint "
                        f"{list(adjoint)} is {_shown(table.get(adjoint, 0))}"
                    )
        return coeffs
    except (KeyError, TypeError, ValueError) as exc:
        raise CoefficientsLoadError(f"malformed coefficients file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Persistence


def schedule_json(schedule: Schedule) -> str:
    """The canonical schedule JSON, one line; :func:`read_schedule_file` parses it."""
    # json writes tuples as arrays, so the rounds need no list copies
    payload = {"n": schedule.n, "rounds": schedule.rounds}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def read_schedule_file(path) -> Schedule:
    """Parse a schedule JSON file without validating its combinatorics."""
    try:
        data = json.loads(Path(path).read_text())
    # ValueError covers JSONDecodeError and integer literals too long to parse
    except (OSError, ValueError) as exc:
        raise ScheduleLoadError(f"cannot read schedule file {path}: {exc}") from exc
    try:
        n = data["n"]
        rounds = [[tuple(s) for s in rnd] for rnd in data["rounds"]]
        # bool is a subclass of int, but true/false are not JSON integers
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        for rnd in rounds:
            for subset in rnd:
                if any(type(t) is not int for t in subset):
                    raise ValueError(f"subset indices must be integers, got {list(subset)!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleLoadError(f"malformed schedule file {path}: {exc}") from exc
    if any(len(s) != 4 for rnd in rounds for s in rnd):
        raise ScheduleLoadError(f"malformed schedule file {path}: subsets must have 4 indices")
    return Schedule.from_rounds(n, rounds)


def write_replacing(path, chunks) -> None:
    """Write the text ``chunks`` to ``path``, replacing the file only once it is whole.

    A symbolic link is followed, so the file it names is written and the
    link stays; a loop of links is an error.  The chunks go to a temporary
    file beside that file, named by the process and thread ids, which then
    replaces it: a failed write, also one raised while the chunks are
    produced, leaves an existing file as it was, creates none and leaves no
    temporary file.  Concurrent calls from distinct threads or processes
    never share a temporary file, and its name does not grow with the
    target's.
    """
    target = os.path.realpath(path)
    if os.path.islink(target):  # resolution stopped in a loop
        raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)
    tmp = os.path.join(
        os.path.dirname(target), f".paulisched-{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    finally:
        Path(tmp).unlink(missing_ok=True)  # already gone once replaced


def _family_chunks(families, path):
    """The families JSON, one family per chunk: ``[``, the records joined by ``,``, ``]``."""
    yield "["
    for i, family in enumerate(families):
        coefficients = []
        try:
            for w in family.strings:
                re, im = float(w.coefficient.real), float(w.coefficient.imag)
                if not (re or im) and w.coefficient:  # it would read as a cancelled string
                    raise FamiliesWriteError(
                        f"cannot write families to {path}: the summed coefficient of {w.string} is "
                        "nonzero but rounds to zero as a float; scale the Hamiltonian coefficients up"
                    )
                coefficients.append([re, im])
        except OverflowError:
            raise FamiliesWriteError(
                f"cannot write families to {path}: the summed coefficient of {w.string} is "
                "outside the float range; scale the Hamiltonian coefficients down"
            ) from None
        record = {
            "origin": family.origin,
            "strings": [str(w.string) for w in family.strings],
            "coefficients": coefficients,
            "terms": [
                {"creates": list(t.creates), "annihilates": list(t.annihilates)}
                for t in family.provenance
            ],
        }
        yield ("," if i else "") + json.dumps(record, separators=(",", ":"))
    yield "]\n"


def save_families(families: Iterable[CommutingFamily], path) -> None:
    """Write the families JSON: text strings, [re, im] coefficients, term provenance.

    The list is streamed one family at a time through :func:`write_replacing`,
    so no payload of the whole output is held in memory; the bytes are those
    of one ``json.dumps`` of the list.  A folded sum can leave the float
    range even when every input value fits, and a nonzero one can round to
    zero in both parts: then nothing is written and
    :class:`FamiliesWriteError` names the first such string in output order.
    ``families`` may be any iterable, a one-pass one too.
    """
    write_replacing(path, _family_chunks(families, path))


# ---------------------------------------------------------------------------
# Top-level assembly


_SCHEDULE_CACHE: dict[int, Schedule] = {}


def schedule_for(n: int) -> Schedule:
    """Schedule for n, memoized per process; schedules depend on nothing else."""
    if n not in _SCHEDULE_CACHE:
        _SCHEDULE_CACHE[n] = build_schedule(n)
    return _SCHEDULE_CACHE[n]


def summarize(n: int, weighted: bool, shapes: list[tuple[str, int]]) -> dict:
    """The summary of a partition of n modes from each family's (origin, string count).

    ``shapes`` may be in any order; the command line records it as the
    families stream past, so the summary needs no family held.
    """
    dominant = [size for origin, size in shapes if origin == "dominant"]
    residual = [size for origin, size in shapes if origin == "residual"]
    return {
        "n": n,
        "weighted": weighted,
        "family_count": len(shapes),
        "dominant_families": len(dominant),
        "residual_families": len(residual),
        "dominant_strings": sum(dominant),
        "residual_strings": sum(residual),
        "max_family_size": max((size for _, size in shapes), default=0),
        "dominant_per_round_ratio": len(dominant) / len(round_sizes(n)),
    }


@dataclass(frozen=True, slots=True)
class PartitionReport:
    n: int
    families: tuple[CommutingFamily, ...]
    weighted: bool

    def summary(self) -> dict:
        return summarize(self.n, self.weighted, [(f.origin, len(f.strings)) for f in self.families])


def build_partition(n: int, coeffs: HamiltonianCoefficients | None = None) -> PartitionReport:
    """Schedule -> certified families, weighted by coefficients when supplied."""
    return PartitionReport(n, tuple(commuting_families(schedule_for(n), coeffs)), coeffs is not None)
