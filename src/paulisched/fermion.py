"""Fermionic terms and their Jordan-Wigner images as integer rows.

A ladder operator on mode m maps to (X_m + iY_m)/2 (annihilation) or
(X_m - iY_m)/2 (creation), times a Z chain on all lower modes.  The
integer ladder table :func:`_ladder` is the one source of that encoding:
each part is a pair of masks (x, z) and an exponent e, for the weight
i**e X^x Z^z / 2 in the X^x Z^z normal form (Aaronson and Gottesman,
quant-ph/0406196), in which Y = iXZ.  One rule multiplies two such parts:
exponents add, and moving Z^z past X^x' adds 2 popcount(z & x').
:func:`jw_image` expands each term's ladder product exactly on integers in
one pass: every coefficient is (a + ib) / 2**f for Gaussian integers a + ib
and f ladder factors, so each product path carries an i-power and is added
straight into the sums of the whole weighted set.  The image is one
denominator and a list of rows ``(text, x, z, re, im)``: a string's text,
its masks and the numerators of its coefficient.  The sums are keyed by a
string's digits (:func:`paulisched.pauli.pauli_digits`), and each row's
text is formatted from them by :func:`paulisched.pauli.pauli_text`, the
one text rule.  The block fold in :mod:`paulisched.partition` calls it once
per block and carries the rows to the writer as they are.
:func:`weighted_strings`, the one builder of weighted strings, turns rows
into :class:`~paulisched.pauli.WeightedPauliString` values: the view of a
family, and :func:`jw_term`, the single-term image, read through it.  No
sign or phase is hand-coded, which is what the dense-matrix oracles in
:mod:`paulisched.oracles` verify.

A term is the product of its creates side and its annihilates side, and
each side is expanded once per process by that rule: ``_SIDES`` maps a
side's ``(modes, dagger)`` to its product paths.  A path stores its masks,
its normal-form exponent and its digits: the digit rule is linear over
GF(2), so the digits of a product of two paths are the XOR of theirs.  The
same rule joins the two sides, and only the product leaves the normal
form: each of its Y letters takes one factor i back.  No part of a path
depends on the register size, as a digit int has no width: a text is
padded to n digits only when it is formatted.  A two-body term
then takes 16 phases, one per pair of side paths, instead of the 30 of a
factor-by-factor expansion.  A side names one mode or two distinct
descending ones, so for modes below M the memo holds at most
2 * (M + C(M, 2)) keys.  Its lists are never changed once stored, so two
threads that fill one key store equal values.

For a two-body term with four distinct mode indices the expansion is always
16 strings of coefficient magnitude 1/16, each matching a fixed shape: X or
Y at the four endpoint modes, Z on the two open intervals between the first
and second and between the third and fourth endpoint (in increasing order),
identity elsewhere; the test suite checks this shape.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .pauli import ExactComplex, PauliString, WeightedPauliString, pauli_digits, pauli_text

__all__ = [
    "FermionicTerm",
    "UnsupportedTermError",
    "jw_image",
    "jw_term",
    "weighted_strings",
]


class UnsupportedTermError(ValueError):
    """Raised for terms outside the supported one-body / two-body shapes."""


@dataclass(frozen=True, slots=True)
class FermionicTerm:
    """A normal-ordered product of creation then annihilation operators.

    ``creates`` and ``annihilates`` are strictly descending mode-index
    tuples, either one index each (one-body) or two each (two-body).
    Repeats between the two tuples are allowed (those are the residual
    terms); repeats within a tuple would make the operator vanish and are
    rejected.
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

    @classmethod
    def one_body(cls, p: int, q: int, n: int) -> "FermionicTerm":
        return cls((p,), (q,), n)

    @classmethod
    def two_body(cls, p: int, q: int, r: int, s: int, n: int) -> "FermionicTerm":
        return cls((p, q), (r, s), n)


def _ladder(mode: int, dagger: bool) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """A ladder operator's parts (x, z, e) in normal form, each weighted
    i**e X^x Z^z / 2: X_mode, and X_mode Z_mode with e = 0 (creation) or 2,
    times the Z chain below ``mode``."""
    chain = (1 << mode) - 1
    return ((1 << mode, chain, 0), (1 << mode, chain | 1 << mode, 0 if dagger else 2))


_SIDES: dict[tuple[tuple[int, ...], bool], list[tuple[int, int, int, int]]] = {}


def jw_image(entries) -> tuple[int, list[tuple[str, int, int, int, int]]]:
    """The exact JW image of sum(value * term) over (term, value) entries.

    ``entries`` is a non-empty list; values are ints or Fractions and all
    terms share one register.  The sum is made on integers over one common
    denominator D: the lcm of the values' denominators times 2**f for the
    largest ladder count f among the terms.  Each product path of a term's
    ladder factors adds its value, scaled to D, times its phase i**k to the
    numerators of its string.  Returns D and one row ``(text, x, z, re,
    im)`` per string whose sum (re + i im) / D is nonzero; strings that sum
    to zero drop out.  The rows are sorted by text, which makes downstream
    output reproducible; texts are unique, so that is plain tuple order.
    """
    denominator = lcm(*(value.denominator for _, value in entries))
    denominator <<= max(len(term.creates) + len(term.annihilates) for term, _ in entries)
    sums: dict[int, list[int]] = {}  # per string's digits, [re, im, x, z]
    for term, value in entries:
        sides = []
        for side in ((term.creates, True), (term.annihilates, False)):
            paths = _SIDES.get(side)
            if paths is None:
                modes, dagger = side
                paths = [(0, 0, 0)]
                for mode in modes:
                    paths = [
                        (x ^ fx, z ^ fz, e + fe + 2 * (z & fx).bit_count())
                        for x, z, e in paths
                        for fx, fz, fe in _ladder(mode, dagger)
                    ]
                paths = _SIDES[side] = [(x, z, e, pauli_digits(x, z)) for x, z, e in paths]
            sides.append(paths)
        creates, annihilates = sides
        ladders = len(term.creates) + len(term.annihilates)
        scale = value.numerator * (denominator // (value.denominator << ladders))
        for cx, cz, ce, cd in creates:
            for ax, az, ae, ad in annihilates:
                # normal-form exponents add, Z^cz X^ax = (-1)^|cz & ax| X^ax Z^cz,
                # and the product's own Y letters leave the normal form
                x, z = cx ^ ax, cz ^ az
                k = ce + ae + 2 * (cz & ax).bit_count() - (x & z).bit_count()
                digits = cd ^ ad  # the digit rule is XOR-linear
                entry = sums.get(digits)
                if entry is None:
                    entry = sums[digits] = [0, 0, x, z]
                entry[k & 1] += -scale if k & 2 else scale  # i**k is 1, i, -1 or -i
    n = entries[0][0].n
    rows = [(pauli_text(n, digits), x, z, re, im) for digits, (re, im, x, z) in sums.items() if re or im]
    rows.sort()
    return denominator, rows


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

    This is ``jw_image([(term, 1)])`` read through :func:`weighted_strings`:
    equal strings arising from index repetition are combined and zero
    coefficients dropped, so nilpotent products come back empty, and the
    result is sorted by string text.
    """
    return weighted_strings(term.n, *jw_image([(term, 1)]))
