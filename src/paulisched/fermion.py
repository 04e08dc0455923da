"""Fermionic terms and their Jordan-Wigner images as weighted Pauli strings.

A ladder operator on mode m maps to (X_m + iY_m)/2 (annihilation) or
(X_m - iY_m)/2 (creation), times a Z chain on all lower modes.  The
integer ladder table :func:`_ladder` is the one source of that encoding:
each part is a pair of masks (x, z) and a weight i**k / 2.
:func:`jw_image`, the one builder of weighted strings, expands each
term's ladder product exactly on integers in one pass: every coefficient
is (a + ib) / 2**f for Gaussian integers a + ib and f ladder factors, so
each product path carries an i-power, takes its phase from the one phase
rule :func:`_product_phase`, and is added straight into the sums of the
whole weighted set.  :func:`jw_term` is its single-term case, and the
block fold in :mod:`paulisched.partition` calls it once per block.
No sign or phase is hand-coded, which is what the dense-matrix oracles in
:mod:`paulisched.oracles` verify.

A term is the product of its creates side and its annihilates side, and
each side is expanded once per process: ``_SIDES`` maps a side's
``(modes, dagger)`` to its product paths, which do not depend on the
register size.  A two-body term then takes 16 phases, one per pair of
side paths, instead of the 30 of a factor-by-factor expansion.  A side
names one mode or two distinct descending ones, so for modes below M the
memo holds at most 2 * (M + C(M, 2)) keys.  Its lists are never changed
once stored, so two threads that fill one key store equal values.

For a two-body term with four distinct mode indices the expansion is always
16 strings of coefficient magnitude 1/16, each matching a fixed shape: X or
Y at the four endpoint modes, Z on the two open intervals between the first
and second and between the third and fourth endpoint (in increasing order),
identity elsewhere; the test suite checks this shape.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .pauli import ExactComplex, PauliString, WeightedPauliString

__all__ = [
    "FermionicTerm",
    "UnsupportedTermError",
    "jw_image",
    "jw_term",
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
            if any(not 0 <= m < self.n for m in side):
                raise ValueError(f"mode index out of range [0, {self.n}) in {side}")
            if any(a <= b for a, b in zip(side, side[1:])):
                raise UnsupportedTermError(f"indices must be strictly descending, got {side}")

    @classmethod
    def one_body(cls, p: int, q: int, n: int) -> "FermionicTerm":
        return cls((p,), (q,), n)

    @classmethod
    def two_body(cls, p: int, q: int, r: int, s: int, n: int) -> "FermionicTerm":
        return cls((p, q), (r, s), n)


def _ladder(mode: int, dagger: bool) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """A ladder operator's parts (x, z, k), each weighted i**k / 2: X_mode, and
    Y_mode with k = 3 (creation) or 1, times the Z chain below ``mode``."""
    chain = (1 << mode) - 1
    return ((1 << mode, chain, 0), (1 << mode, chain | 1 << mode, 3 if dagger else 1))


def _product_phase(px: int, pz: int, qx: int, qz: int) -> int:
    """Exponent k in 0..3 with P*Q = i**k R for the IXYZ-letter strings P, Q, R.

    Uses the X^x Z^z normal form: each letter is i^(x*z) X^x Z^z, commuting
    Z past X contributes (-1)^(z1*x2) per position, and the result R, with
    masks (px ^ qx, pz ^ qz), is folded back into the IXYZ alphabet.
    """
    return (
        (px & pz).bit_count()
        + (qx & qz).bit_count()
        + 2 * (pz & qx).bit_count()
        - ((px ^ qx) & (pz ^ qz)).bit_count()
    ) & 3


_SIDES: dict[tuple[tuple[int, ...], bool], list[tuple[int, int, int]]] = {}


@lru_cache(maxsize=4096)
def _coefficient(re: int, im: int, denominator: int) -> ExactComplex:
    """(re + i im) / denominator, interned: ExactComplex is immutable, so sharing is safe."""
    return ExactComplex(Fraction(re, denominator), Fraction(im, denominator))


def jw_image(entries) -> list[WeightedPauliString]:
    """The exact JW image of sum(value * term) over (term, value) entries.

    ``entries`` is a non-empty list; values are ints or Fractions and all
    terms share one register.  The sum is made on integers over one common
    denominator D: the lcm of the values' denominators times 2**f for the
    largest ladder count f among the terms.  Each product path of a term's
    ladder factors adds its value, scaled to D, times its phase i**k to the
    numerators of its string; each nonzero sum then becomes one exact
    coefficient, and strings that sum to zero drop out.  The result is
    sorted by string text, which makes downstream output reproducible.
    """
    denominator = lcm(*(value.denominator for _, value in entries))
    denominator <<= max(len(term.creates) + len(term.annihilates) for term, _ in entries)
    sums: dict[tuple[int, int], list[int]] = {}
    for term, value in entries:
        sides = []
        for side in ((term.creates, True), (term.annihilates, False)):
            paths = _SIDES.get(side)
            if paths is None:
                modes, dagger = side
                paths = [(0, 0, 0)]
                for mode in modes:
                    paths = [
                        (x ^ fx, z ^ fz, k + fk + _product_phase(x, z, fx, fz))
                        for x, z, k in paths
                        for fx, fz, fk in _ladder(mode, dagger)
                    ]
                _SIDES[side] = paths
            sides.append(paths)
        creates, annihilates = sides
        ladders = len(term.creates) + len(term.annihilates)
        scale = value.numerator * (denominator // (value.denominator << ladders))
        for cx, cz, ck in creates:
            for ax, az, ak in annihilates:
                x, z, k = cx ^ ax, cz ^ az, ck + ak + _product_phase(cx, cz, ax, az)
                re_im = sums.get((x, z))
                if re_im is None:
                    re_im = sums[x, z] = [0, 0]
                re_im[k & 1] += -scale if k & 2 else scale  # i**k is 1, i, -1 or -i
    n = entries[0][0].n
    image = [
        WeightedPauliString(_coefficient(re, im, denominator), PauliString(n, x, z))
        for (x, z), (re, im) in sums.items()
        if re or im
    ]
    image.sort(key=lambda w: w.string.text())
    return image


def jw_term(term: FermionicTerm) -> list[WeightedPauliString]:
    """Expand a term's full ladder product into weighted Pauli strings.

    This is ``jw_image([(term, 1)])``: equal strings arising from index
    repetition are combined and zero coefficients dropped, so nilpotent
    products come back empty, and the result is sorted by string text.
    """
    return jw_image([(term, 1)])
