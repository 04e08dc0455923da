"""Assembly of measurement families, coefficient ingestion and persistence.

One pass yields the partition unit by unit.  Every JW string of a term
has the same X mask, the XOR of the term's mode bits, so all terms are
grouped into *blocks* keyed by that X-support, in one table.  A term is
carried as its key ``(creates, annihilates)``, its two descending mode
tuples, checked where the input arrived: the coefficients' one table is
keyed by it, and the block table's entries are ``(key, value)`` pairs.
Each unit of blocks is folded once, by one call of
:func:`~paulisched.fermion.jw_image`, which takes blocks of one X mask
each, into the exact JW images of its blocks' weighted terms: the unit's
one denominator and, per block, a row ``(text, x, z, re, im)`` per
string, already split into the block's even-Y and odd-Y halves.
:mod:`paulisched.fermion` sums the integer numerators over that
denominator and picks each row's half; this module only joins the halves
into an even-Y and an odd-Y family, certifies them
on their rows' masks and writes their text, their numerators and the
keys: no term object and no Pauli object is built between the loader and
the file.  A family is a named tuple of its rows, its provenance and its
origin, so ``len(family.rows)`` counts its strings; the checks in
:mod:`paulisched.oracles` read its rows as objects.  Both families of a
unit are yielded before the next unit is folded: a caller that writes the
families as they come, as the command line does, holds the block table
and one unit's families, never the whole partition, and the table shrinks
as its blocks are taken.

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
:func:`_anticommuting_indices`, the parity of the popcount of the
symplectic product (x_a & z_b) ^ (z_a & x_b) of every pair (Aaronson and
Gottesman, quant-ph/0406196), which also names the first anticommuting
pair in the :class:`FamilyCertificationError` of a family that fails.

Since each block is taken out of the table once, each distinct string sits
in exactly one family, whose provenance is the key of every term of each
block that puts a string into it, the block table's own key tuples.  A
schedule only decides how the four-mode blocks are packed into families:
an incomplete one leaves more units, never fewer strings.

Grouping depends only on n.  Coefficients are brought to normal order
(descending indices per operator kind, with the antisymmetry sign) and
summed per canonical term as they are read, on integer numerators over
one denominator per term, under the file's flat index tuples, both bodies
in one dict; each nonzero sum then becomes one Fraction under its term's
key, in canonical order, which does not depend on the order of the
file's entries.  That table is the coefficients' only form: Hermiticity
is one scan of it, and the weighted block table reads it as it is.
Output is bit-identical between runs.
"""

import errno
import json
import os
import re
import stat
import sys
import threading
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from pathlib import Path
from typing import NamedTuple

from .baranyai import Schedule, build_schedule, round_sizes
from .fermion import jw_image

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
_NUMBERS = frozenset((int, float, Fraction))  # the value types of an entry; bool is none
_dumps = json.JSONEncoder(separators=(",", ":")).encode


class CommutingFamily(NamedTuple):
    """Pauli strings certified pairwise-commuting, with the terms they came from.

    Each row ``(text, x, z, re, im)`` is an n-qubit string, its masks and
    the numerators of its coefficient (re + i im) / ``denominator``.  Each
    provenance entry is a term's key ``(creates, annihilates)``, its two
    descending mode tuples, as the block table holds it.
    """

    n: int
    denominator: int
    rows: tuple[tuple[str, int, int, int, int], ...]
    provenance: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    origin: str  # "dominant" or "residual"


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


def _anticommuting_indices(masks) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of the (x, z) ``masks`` that
    anticommutes, or None; pairs are taken in (i, j) order."""
    for i, (ax, az) in enumerate(masks):
        for j, (bx, bz) in enumerate(masks[i + 1:], i + 1):
            if ((ax & bz) ^ (az & bx)).bit_count() & 1:
                return i, j
    return None


def _certified(family: CommutingFamily) -> CommutingFamily:
    """The family, once its strings are shown to commute pairwise.

    The block test proves every family the compile builds; whatever it
    leaves undecided goes to the pairwise scan, which also names the first
    anticommuting pair of a family that fails.
    """
    rows = family.rows
    if _commute_by_blocks(rows):
        return family
    bad = _anticommuting_indices([(x, z) for _, x, z, _, _ in rows])
    if bad is not None:
        i, j = bad
        raise FamilyCertificationError(f"{rows[i][0]} and {rows[j][0]} do not commute in a {family.origin} family")
    return family


def _split(n: int, unit, origin: str) -> list[CommutingFamily]:
    """The certified even-Y and odd-Y families of a unit of blocks.

    A block is a list of (key, value) entries.  The unit is folded by one
    :func:`~paulisched.fermion.jw_image` call, which returns its one
    denominator and each block's rows already split into its even-Y and
    odd-Y halves; a family joins one half of every block, in unit order,
    and all the keys of a block are provenance of each half it puts a
    string into.  Empty halves drop, and an empty unit has no family.  A
    family's denominator is the unit's, which can exceed what its own rows
    need; the writer divides by it with correct rounding, so the bytes do
    not depend on it.
    """
    denominator, images = jw_image(n, unit)
    families = []
    for half in (0, 1):
        rows, provenance = [], []
        for block, image in zip(unit, images):
            if image[half]:
                rows += image[half]
                provenance += [key for key, _ in block]
        if rows:
            families.append(_certified(CommutingFamily(n, denominator, tuple(rows), tuple(provenance), origin)))
    return families


def _blocks(n: int, coeffs: "HamiltonianCoefficients | None") -> dict[int, list]:
    """Every (key, value) entry keyed by X mask: without coefficients every
    canonical non-vanishing term at value 1, else the coefficients' terms
    in their table's own order.  A key is a term's ``(creates,
    annihilates)``, two descending mode tuples, canonical as enumerated
    here or checked as the coefficients were read, so none is checked
    again."""
    if coeffs is None:
        keys = [((p,), (q,)) for p in range(n) for q in range(n)]
        keys += [
            ((q, p), (s, r))  # descending
            for p, q in combinations(range(n), 2)
            for r, s in combinations(range(n), 2)
            if p == r or p == s or q == r or q == s
        ]
        # one term per 4-subset, creating its two largest modes
        keys += [((d, c), (b, a)) for a, b, c, d in combinations(range(n), 4)]
        table = [(key, 1) for key in keys]
    else:
        table = coeffs.terms.items()
    blocks: dict[int, list] = {}
    for key, value in table:
        # the XOR of both sides' mode bits, as each side's modes are distinct
        mask = 0
        for m in key[0] + key[1]:
            mask ^= 1 << m
        blocks.setdefault(mask, []).append((key, value))
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


class HamiltonianCoefficients(NamedTuple):
    """A normal-ordered Hamiltonian's one coefficient table; absent terms mean zero.

    ``terms`` maps each term's key ``(creates, annihilates)`` to its
    Fraction weight: ``((p,), (q,))`` for the p-create/q-annihilate
    one-body term, ``((p, q), (r, s))`` with p > q and r > s for a
    two-body term.  Its order is canonical: one-body keys ascending, then
    two-body keys ascending, whatever the order of the entries read.  Use
    :func:`load_coefficients` or :meth:`from_entries`, the two builders
    that give that order, so raw index orders are normalized (with
    antisymmetry signs) and duplicate entries accumulate.  Both apply one
    rule, entry by entry: n must be an int (bool is not one), and is
    checked first; then each entry is checked in turn: its key's length,
    then its value, an int, float or Fraction in the float range (bool is
    none of them), then its mode indices, ints in range(n).  A two-body
    entry whose creates or annihilates repeat a mode vanishes once it
    passes these checks.  Each key sums its values' integer numerators
    over one denominator, and holds one Fraction if the sum is nonzero:
    both builders fold both bodies into one dict of flat sums, which
    :func:`_reduced` turns into this table in one canonical walk, and hand
    that table to the constructor as it is.

    The compile checks no key of a table and folds ``terms`` in the
    dict's own order: a table built by hand must hold canonical keys, and
    gives the canonical bytes only in the canonical order.
    """

    n: int
    terms: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]

    @classmethod
    def from_entries(cls, n, one_body_entries, two_body_entries) -> "HamiltonianCoefficients":
        return cls(n, _tables(n, one_body_entries, two_body_entries))


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


def _fold(sums: dict, size: int, key, value, n: int) -> None:
    """Check one entry of a body whose keys hold ``size`` indices, and add it
    to ``sums``, the [numerator, denominator] of each canonical flat key of
    either body.

    The checks run in the order of :class:`HamiltonianCoefficients`.  A
    two-body key is brought to descending order on each side, each swap
    flipping the sign.  A value joins its key's numerator when the
    denominators agree; only when they differ is their lcm taken.
    """
    if len(key) != size:
        raise ValueError("index lists must have 2 (pq) or 4 (pqrs) entries")
    # JSON Infinity and NaN parse as floats, integers can exceed the float
    # range, and strings or booleans would convert silently
    if not (type(value) in _NUMBERS and abs(value) <= _FLOAT_MAX):
        raise ValueError(f"coefficient values must be finite numbers in float range, got {value!r}")
    num, den = value.as_integer_ratio()
    if size == 2:
        p, q = key
        if not (type(p) is int and type(q) is int and 0 <= p < n and 0 <= q < n):
            raise _index_error("one-body", (p, q), n)
        key = p, q
    else:
        p, q, r, s = key
        if not (
            type(p) is int and type(q) is int and type(r) is int and type(s) is int
            and 0 <= p < n and 0 <= q < n and 0 <= r < n and 0 <= s < n
        ):
            raise _index_error("two-body", (p, q, r, s), n)
        if p == q or r == s:
            return  # the operator vanishes
        if p < q:
            p, q, num = q, p, -num
        if r < s:
            r, s, num = s, r, -num
        key = p, q, r, s
    held = sums.get(key)
    if held is None:
        sums[key] = [num, den]
    elif held[1] == den:
        held[0] += num
    else:
        common = lcm(held[1], den)
        held[0] = held[0] * (common // held[1]) + num * (common // den)
        held[1] = common


def _reduced(sums: dict) -> dict:
    """The coefficient table of the flat sums of both bodies: each nonzero
    sum as one Fraction, under its term's key ``(creates, annihilates)``;
    zero sums drop.

    A flat key of 2 indices is a one-body sum and one of 4 a two-body sum,
    so the bodies share ``sums``.  Its keys are sorted once, by length and
    then ascending, and each is split into its two sides once, so the
    table is in canonical order: one-body keys ascending, then two-body
    keys ascending, as sorting the flat keys sorts their sides.  Keys share
    their side tuples, and each sum leaves ``sums`` as it becomes a
    Fraction, which reduces itself, so building the table does not raise
    the loader's peak memory.
    """
    table, sides = {}, {}
    for key in sorted(sorted(sums), key=len):
        num, den = sums.pop(key)
        if num:
            half = len(key) // 2
            c, a = key[:half], key[half:]
            table[sides.setdefault(c, c), sides.setdefault(a, a)] = Fraction(num, den)
    return table


def _tables(n, one_body_entries, two_body_entries) -> dict:
    """The coefficient table of the entries, n checked first."""
    _check_n(n)
    sums: dict = {}
    for key, value in one_body_entries:
        _fold(sums, 2, key, value, n)
    for key, value in two_body_entries:
        _fold(sums, 4, key, value, n)
    return _reduced(sums)


def _check_hermitian(table: dict) -> None:
    """Raise ValueError unless the coefficient table is Hermitian.

    With real values, H is Hermitian iff every normal-ordered term equals
    the term of its adjoint: the adjoint of ``(c, a)`` is ``(a, c)``, for
    both bodies, and an absent term is 0.  One scan in the table's
    canonical order decides, and names the first failing key as the
    file's flat index list, such as ``[2, 1]``.
    """
    for (c, a), value in table.items():
        adjoint = table.get((a, c), 0)
        if adjoint != value:
            raise ValueError(
                f"not Hermitian: entry {list(c + a)} is {_shown(value)} but its adjoint "
                f"{list(a + c)} is {_shown(adjoint)}"
            )


def _shown(value) -> str:
    """A table value for a message: a float, if it has one."""
    return repr(float(value)) if abs(value) <= _FLOAT_MAX else str(value)


# What the parse holds in place of each entry folded, per body
_FOLDED = {"pq": object(), "pqrs": object()}
# "n" as the first member of the document, read before the parse; the
# parsed document must agree with it.  A pattern, not a compiled one: re
# compiles it at the first load, so no import pays for it.
_HEAD = r'\s*\{\s*"n"\s*:\s*(-?[0-9]{1,18})\s*[,}]'


class _Unsure(Exception):
    """The streamed fold cannot stand for the document, which is then read whole."""


def _streamed(text: str, path) -> tuple[int, dict]:
    """n and the coefficient table of a text, each entry folded as it is parsed.

    ``json`` hands each object to a hook as it closes.  An object of the
    shape the files are written in, ``{"pq": key, "value": v}`` or
    ``{"pqrs": key, "value": v}``, is an entry of the body its first member
    names (the name's length is the key's): the hook folds it by
    :func:`_fold`, against the n that opens the text, and the parse keeps
    a marker in its place, so the document never holds the entries.  Any
    other object stays a dict.  The fold stands for the document only if n
    opens the text and is the document's n, every entry passed its checks,
    and each body is a list of exactly the entries folded for it; else
    :class:`_Unsure` is raised, and the caller reads the document whole.
    """
    head = re.match(_HEAD, text)
    if head is None:
        raise _Unsure
    n = int(head[1])
    sums: dict = {}
    folded = {"pq": 0, "pqrs": 0}

    def entry(pairs):
        if len(pairs) == 2 and pairs[1][0] == "value":
            (name, key), (_, value) = pairs
            if name in folded:
                try:
                    _fold(sums, len(name), key, value, n)
                except (TypeError, ValueError):
                    raise _Unsure from None
                folded[name] += 1
                return _FOLDED[name]
        return dict(pairs)

    data, parsed_n = _parse_json(text, path, "coefficients", CoefficientsLoadError, entry)
    for body, name in (("one_body", "pq"), ("two_body", "pqrs")):
        entries = data.get(body, [])
        if not (type(entries) is list and entries.count(_FOLDED[name]) == len(entries) == folded[name]):
            raise _Unsure
    if parsed_n != n:
        raise _Unsure
    return n, _reduced(sums)


def _listed(text: str, path) -> tuple[int, dict]:
    """n and the coefficient table of a text parsed whole, its
    entries listed: any layout a dict reads, and every fault in the order
    of the rules, each body's entries listed before any is checked."""
    data, n = _parse_json(text, path, "coefficients", CoefficientsLoadError)
    try:
        one = [(tuple(entry["pq"]), entry["value"]) for entry in data.get("one_body", [])]
        two = [(tuple(entry["pqrs"]), entry["value"]) for entry in data.get("two_body", [])]
        return n, _tables(n, one, two)
    except (KeyError, TypeError, ValueError) as exc:
        raise CoefficientsLoadError(f"malformed coefficients file {path}: {exc}") from exc


def _read_text(path, kind: str, error: type[ValueError]) -> str:
    """The text of a ``kind`` file, or ``error`` naming the file that cannot be read."""
    try:
        return Path(path).read_text()
    # ValueError covers text that is not in the locale's encoding
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {kind} file {path}: {exc}") from exc


def _parse_json(text: str, path, kind: str, error: type[ValueError], hook=None) -> tuple[dict, int]:
    """A ``kind`` JSON text's data and its integer n, or ``error`` naming
    the file that cannot be parsed or whose n is not an integer.  ``hook``
    is ``json``'s ``object_pairs_hook``."""
    try:
        data = json.loads(text, object_pairs_hook=hook)
    # ValueError covers JSONDecodeError and integer literals too long to parse
    except ValueError as exc:
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

    Entries follow the rules of :class:`HamiltonianCoefficients`, and H
    must be Hermitian.  In a file laid out as above, each entry is folded
    into its key's sum as it is parsed, so no entry is held: the memory
    is the text and the sums.  A file in any other layout that ``json``
    reads to the same data, and a file with a fault, is parsed whole
    and its entries listed, so it loads to the same table, or fails with
    :class:`CoefficientsLoadError` and the same message, as the same data
    in the layout above.  The table is keyed by each term's ``(creates,
    annihilates)`` in canonical order, so files that list the same
    entries in other orders load to equal tables in the same key order.
    Both layouts fold into one dict of flat sums, which becomes the
    table once; Hermiticity is one scan of the table in canonical order,
    which names the first failing key.
    """
    text = _read_text(path, "coefficients", CoefficientsLoadError)
    try:
        n, table = _streamed(text, path)
    except _Unsure:
        n, table = _listed(text, path)
    try:
        _check_hermitian(table)
    except ValueError as exc:
        raise CoefficientsLoadError(f"malformed coefficients file {path}: {exc}") from exc
    return HamiltonianCoefficients(n, table)


# ---------------------------------------------------------------------------
# Persistence


def schedule_json(schedule: Schedule) -> str:
    """The canonical schedule JSON, one line; :func:`read_schedule_file` parses it."""
    # json writes tuples as arrays, so the rounds need no list copies
    payload = {"n": schedule.n, "rounds": schedule.rounds}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def read_schedule_file(path) -> Schedule:
    """Parse a schedule JSON file without validating its combinatorics."""
    data, n = _parse_json(_read_text(path, "schedule", ScheduleLoadError), path, "schedule", ScheduleLoadError)
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
    """Write the text ``chunks`` to ``path``, replacing a regular file only once it is whole.

    A symbolic link is followed, so the file it names is written and the
    link stays; a loop of links is an error.  An existing file that is not
    a regular one, a device or a FIFO, is written through, so a failed
    write can leave part of the text there; an existing directory fails
    before any chunk is produced.  Otherwise the chunks go to a temporary
    file beside the target, with an existing file's permission bits, named
    by the process and thread ids, which then replaces it: a failed write,
    also one raised while the chunks are produced, leaves an existing file
    as it was, creates none and leaves no temporary file.  Concurrent calls
    from distinct threads or processes never share a temporary file, and
    its name does not grow with the target's.
    """
    target = os.path.realpath(path)
    if os.path.islink(target):  # resolution stopped in a loop
        raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        # renaming over a device or a FIFO would replace it; open refuses a directory
        with open(target, "w") as fh:
            fh.writelines(chunks)
        return
    tmp = os.path.join(
        os.path.dirname(target), f".paulisched-{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with open(tmp, "w") as fh:
            if mode is not None:
                os.chmod(tmp, mode & 0o777)  # before the text goes in, so a private file stays private
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
            f'{{"creates":{modes(creates)},"annihilates":{modes(annihilates)}}}'
            for creates, annihilates in family.provenance
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


class PartitionReport(NamedTuple):
    n: int
    families: tuple[CommutingFamily, ...]
    weighted: bool

    def summary(self) -> dict:
        return summarize(self.n, self.weighted, [(f.origin, len(f.rows)) for f in self.families])


def build_partition(n: int, coeffs: HamiltonianCoefficients | None = None) -> PartitionReport:
    """Schedule -> certified families, weighted by coefficients when supplied."""
    return PartitionReport(n, tuple(commuting_families(schedule_for(n), coeffs)), coeffs is not None)
