"""Assembly of measurement families, coefficient ingestion and persistence.

One pass yields the partition unit by unit.  Every JW string of a term
has the same X mask, the XOR of the term's mode bits, so all terms are
grouped into *blocks* keyed by that X-support, in one table.  Each block is
folded once, by :func:`~paulisched.fermion.jw_image`, into the exact JW
image of its weighted terms: one denominator and a row ``(text, x, z, re,
im)`` per string.  :mod:`paulisched.fermion` sums the integer numerators,
this module only groups and splits the rows, certifies them on their
masks and writes their text and numerators: no Pauli object is built
between the kernel and the file.  A family's ``strings`` view builds them
for the oracles and the tests, and ``len(family)`` counts its strings
without it.  Each unit of blocks is then split into an even-Y and an odd-Y
family, and
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

Each family is certified on its rows' masks by that block structure
(:func:`_commute_by_blocks`): rows of one X mask commute iff their Y
parities agree, and blocks with disjoint X masks, each with one Z chain
outside its mask, are decided block pair by block pair.  That proves every
family the compile builds, at one lookup and two compares per string.  A
family the block test cannot prove goes to the plain pairwise scan
:func:`~paulisched.pauli.anticommuting_indices`, which also names the first
anticommuting pair in the :class:`FamilyCertificationError` of a family
that fails.

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
from functools import cache
from itertools import combinations
from math import lcm
from pathlib import Path

from .baranyai import Schedule, build_schedule, round_sizes
from .fermion import FermionicTerm, jw_image, weighted_strings
from .pauli import WeightedPauliString, anticommuting_indices

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
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _shown(value: Fraction) -> str:  # a float for a message, if it has one
    return repr(float(value)) if abs(value) <= _FLOAT_MAX else str(value)


@dataclass(frozen=True, slots=True)
class CommutingFamily:
    """Pauli strings certified pairwise-commuting, with the terms they came from.

    Each row ``(text, x, z, re, im)`` is an n-qubit string, its masks and
    the numerators of its coefficient (re + i im) / ``denominator``.
    """

    n: int
    denominator: int
    rows: tuple[tuple[str, int, int, int, int], ...]
    provenance: tuple[FermionicTerm, ...]
    origin: str  # "dominant" or "residual"

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def strings(self) -> tuple[WeightedPauliString, ...]:
        """The rows as weighted Pauli strings, built anew at each read."""
        return tuple(weighted_strings(self.n, self.denominator, self.rows))


def _commute_by_blocks(rows) -> bool:
    """True if the rows' block structure proves them pairwise commuting;
    False proves nothing.

    Rows of one X mask x form a block; write each z as its Y part z & x and
    its chain z & ~x.  Two strings of one block anticommute iff their Y
    parities |x & z| mod 2 differ.  Across blocks A and B whose masks are
    disjoint, x_A & z_b is x_A & chain_b, so every cross pair gives
    |x_A & chain_B| + |chain_A & x_B| mod 2 once each block has one chain:
    the symplectic product of the two blocks' first rows decides all their
    pairs.  A multi-block family whose masks overlap or whose block has two
    chains is not decided here.
    """
    first: dict[int, int] = {}  # the z of each block's first row
    chained = True
    for _, x, z, _, _ in rows:
        d = first.setdefault(x, z) ^ z
        y = x & d  # where the Y parts differ; the chains differ iff y != d
        if y.bit_count() & 1:
            return False
        if y != d:
            chained = False
    if len(first) == 1:
        return True
    if not chained:
        return False
    blocks = list(first.items())
    union = 0
    for x, _ in blocks:
        if union & x:
            return False
        union |= x
    for k, (ax, az) in enumerate(blocks):
        for bx, bz in blocks[k + 1:]:
            if ((ax & bz) ^ (az & bx)).bit_count() & 1:
                return False
    return True


def _certified(family: CommutingFamily) -> CommutingFamily:
    """The family, once its strings are shown to commute pairwise.

    The block test proves every family the compile builds; whatever it
    leaves undecided goes to the pairwise scan, which also names the first
    anticommuting pair of a family that fails.
    """
    rows = family.rows
    if _commute_by_blocks(rows):
        return family
    bad = anticommuting_indices([(x, z) for _, x, z, _, _ in rows])
    if bad is not None:
        i, j = bad
        raise FamilyCertificationError(f"{rows[i][0]} and {rows[j][0]} do not commute in a {family.origin} family")
    return family


def _y_parity(x: int, z: int) -> int:
    # Y letters only ever sit on endpoint positions, so total Y parity is
    # exactly the endpoint Y parity the split needs.
    return (x & z).bit_count() & 1


def _split(n: int, unit, origin: str) -> list[CommutingFamily]:
    """The certified even-Y and odd-Y families of a unit of blocks.

    A block is a list of (term, value) entries, folded here into its
    :func:`~paulisched.fermion.jw_image`; all its terms are provenance of
    each half it puts a string into.  A half's denominator is the lcm of
    the denominators of those blocks, and each block's numerators are
    scaled up to it.  Empty halves drop.
    """
    parts: tuple[list, list] = ([], [])  # per half, (denominator, rows) of each block
    terms: tuple[list, list] = ([], [])
    for block in unit:
        denominator, rows = jw_image(block)
        halves: tuple[list, list] = ([], [])
        for row in rows:
            halves[_y_parity(row[1], row[2])].append(row)
        for half, part, provenance in zip(halves, parts, terms):
            if half:
                part.append((denominator, half))
                provenance += [term for term, _ in block]
    families = []
    for part, provenance in zip(parts, terms):
        if part:
            denominator = lcm(*(d for d, _ in part))
            rows = []
            for d, half in part:
                scale = denominator // d
                rows += half if scale == 1 else [(t, x, z, re * scale, im * scale) for t, x, z, re, im in half]
            families.append(_certified(CommutingFamily(n, denominator, tuple(rows), tuple(provenance), origin)))
    return families


def _blocks(n: int, coeffs: "HamiltonianCoefficients | None") -> dict[int, list]:
    """Every (term, value) entry keyed by X mask: without coefficients every
    canonical non-vanishing term at value 1, else the entries by sorted key."""
    if coeffs is None:
        terms = [FermionicTerm.one_body(p, q, n) for p in range(n) for q in range(n)]
        terms += [
            FermionicTerm((q, p), (s, r), n)  # descending
            for p, q in combinations(range(n), 2)
            for r, s in combinations(range(n), 2)
            if p == r or p == s or q == r or q == s
        ]
        # one term per 4-subset, creating its two largest modes
        terms += [FermionicTerm.two_body(d, c, b, a, n) for a, b, c, d in combinations(range(n), 4)]
        table = [(term, 1) for term in terms]
    else:
        table = [(FermionicTerm.one_body(*key, n), value) for key, value in sorted(coeffs.one_body.items())]
        table += [(FermionicTerm.two_body(*key, n), value) for key, value in sorted(coeffs.two_body.items())]
    blocks: dict[int, list] = {}
    for term, value in table:
        # the XOR of both sides' mode bits, as each side's modes are distinct
        mask = 0
        for m in term.creates + term.annihilates:
            mask ^= 1 << m
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
        yield from _split(n, unit, "dominant")
    for mask in sorted(blocks):
        yield from _split(n, [blocks.pop(mask)], "dominant" if mask.bit_count() == 4 else "residual")


# ---------------------------------------------------------------------------
# Hamiltonian coefficients


@dataclass(frozen=True, slots=True)
class HamiltonianCoefficients:
    """Normal-ordered coefficient tables; absent entries mean zero.

    ``one_body`` maps (p, q) to the weight of the p-create/q-annihilate
    term; ``two_body`` maps descending-canonical (p, q, r, s) with p > q and
    r > s.  Use :func:`load_coefficients` or :meth:`from_entries` so raw
    index orders are normalized (with antisymmetry signs) and duplicate
    entries accumulate.  n must be an int (bool is not one).  Each entry
    is checked in turn: its key's length, then its value, an int, float or
    Fraction in the float range (bool is none of them), then its mode
    indices, ints in range(n).
    """

    n: int
    one_body: dict[tuple[int, int], Fraction]
    two_body: dict[tuple[int, int, int, int], Fraction]

    @classmethod
    def from_entries(cls, n, one_body_entries, two_body_entries) -> "HamiltonianCoefficients":
        _check_n(n)
        one: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for key, value in one_body_entries:
            ratio = _ratio(key, 2, value)
            p, q = key
            if not (type(p) is int and type(q) is int and 0 <= p < n and 0 <= q < n):
                raise _index_error("one-body", (p, q), n)
            one.setdefault((p, q), []).append(ratio)
        two: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
        for key, value in two_body_entries:
            num, den = _ratio(key, 4, value)
            p, q, r, s = key
            if not all(type(t) is int and 0 <= t < n for t in (p, q, r, s)):
                raise _index_error("two-body", (p, q, r, s), n)
            if p == q or r == s:
                continue  # the operator vanishes
            if p < q:
                p, q, num = q, p, -num
            if r < s:
                r, s, num = s, r, -num
            two.setdefault((p, q, r, s), []).append((num, den))
        return cls(n, _summed(one), _summed(two))


def _check_n(n) -> None:
    """Raise ValueError unless n is an int; bool is a subclass of int, but
    true/false are not JSON integers."""
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")


def _index_error(body, key, n) -> ValueError:
    """The error for a key holding a mode index that is not an int (bool is
    not one), else one out of range for n."""
    if any(type(t) is not int for t in key):
        return ValueError(f"mode indices must be integers, got {list(key)!r}")
    return ValueError(f"{body} index {key} out of range for n={n}")


def _ratio(key, size: int, value) -> tuple[int, int]:
    """The exact (numerator, denominator) of an entry's value, once its key
    holds ``size`` indices and the value is a number in the float range."""
    if len(key) != size:
        raise ValueError("index lists must have 2 (pq) or 4 (pqrs) entries")
    # JSON Infinity and NaN parse as floats, integers can exceed the float
    # range, and strings or booleans would convert silently
    if not (type(value) in (int, float, Fraction) and abs(value) <= _FLOAT_MAX):
        raise ValueError(f"coefficient values must be finite numbers in float range, got {value!r}")
    return value.as_integer_ratio()


def _summed(table: dict) -> dict:
    """Each key's ratios summed over their lcm denominator, one Fraction per key; zeros drop."""
    out = {}
    for key, ratios in table.items():
        denominator = lcm(*(den for _, den in ratios))
        total = sum(num * (denominator // den) for num, den in ratios)
        if total:
            out[key] = Fraction(total, denominator)
    return out


def _read_json(path, kind: str, error: type[ValueError]) -> tuple[dict, int]:
    """A ``kind`` JSON file's data and its integer n, or ``error`` naming
    the file that cannot be read or whose n is not an integer."""
    try:
        data = json.loads(Path(path).read_text())
    # ValueError covers JSONDecodeError and integer literals too long to parse
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        n = data["n"]
        _check_n(n)
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"malformed {kind} file {path}: {exc}") from exc
    return data, n


def load_coefficients(path) -> HamiltonianCoefficients:
    """Read a coefficients JSON file.

    Expected shape::

        {"n": 8,
         "one_body": [{"pq": [p, q], "value": v}, ...],
         "two_body": [{"pqrs": [p, q, r, s], "value": v}, ...]}
    """
    data, n = _read_json(path, "coefficients", CoefficientsLoadError)
    try:
        one = [(tuple(entry["pq"]), entry["value"]) for entry in data.get("one_body", [])]
        two = [(tuple(entry["pqrs"]), entry["value"]) for entry in data.get("two_body", [])]
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
    data, n = _read_json(path, "schedule", ScheduleLoadError)
    try:
        rounds = [[tuple(s) for s in rnd] for rnd in data["rounds"]]
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
    """The families JSON, one family per chunk: ``[``, the records joined by ``,``, ``]``.

    Each coefficient part is its numerator over the family's denominator by
    int true division, which is correctly rounded, as ``float(Fraction)`` is.
    A family's rows often repeat a numerator pair, so each distinct pair is
    divided, checked and encoded once per family, at its first row: its
    ``[real,imag]`` text holds the ``repr`` of each float, which is what
    ``json`` writes.  The mode tuple of each term side is encoded once per
    file.  A record is joined from such encoded parts, and its bytes are
    those of ``json.dumps(record, separators=(",", ":"))``.
    """
    modes = cache(_dumps)
    yield "["
    for i, family in enumerate(families):
        denominator = family.denominator
        encoded: dict[tuple[int, int], str] = {}
        coefficients = []
        try:
            for text, _, _, re, im in family.rows:
                pair = encoded.get((re, im))
                if pair is None:
                    real, imag = re / denominator, im / denominator
                    if not (real or imag) and (re or im):  # it would read as a cancelled string
                        raise FamiliesWriteError(
                            f"cannot write families to {path}: the summed coefficient of {text} is "
                            "nonzero but rounds to zero as a float; scale the Hamiltonian coefficients up"
                        )
                    pair = encoded[re, im] = f"[{real!r},{imag!r}]"
                coefficients.append(pair)
        except OverflowError:
            raise FamiliesWriteError(
                f"cannot write families to {path}: the summed coefficient of {text} is "
                "outside the float range; scale the Hamiltonian coefficients down"
            ) from None
        strings = _dumps([row[0] for row in family.rows])
        terms = ",".join([
            f'{{"creates":{modes(t.creates)},"annihilates":{modes(t.annihilates)}}}'
            for t in family.provenance
        ])
        yield (
            f'{"," if i else ""}{{"origin":{_dumps(family.origin)},"strings":{strings},'
            f'"coefficients":[{",".join(coefficients)}],"terms":[{terms}]}}'
        )
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
        return summarize(self.n, self.weighted, [(f.origin, len(f)) for f in self.families])


def build_partition(n: int, coeffs: HamiltonianCoefficients | None = None) -> PartitionReport:
    """Schedule -> certified families, weighted by coefficients when supplied."""
    return PartitionReport(n, tuple(commuting_families(schedule_for(n), coeffs)), coeffs is not None)
