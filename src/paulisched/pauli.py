"""N-qubit Pauli strings: parsing, exact coefficients and the one commutation rule.

Text convention: qubit 0 is the LEFTMOST character, so "XII" puts an X on
qubit 0 of a three-qubit register.

Internally a string is a pair of bitmasks (x, z); bit t encodes qubit t as
I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).  One integer rule on these masks
decides commutation: the parity of the popcount of the symplectic product
(a.x & b.z) ^ (a.z & b.x).  That product is bilinear over GF(2), so a list
commutes pairwise exactly when a basis of its (x, z) vectors does
(Aaronson and Gottesman, quant-ph/0406196).  :func:`anticommuting_pair`
certifies a list on such a basis, picked out of the list itself, and
:func:`commutes` is its two-string case; the certification in
:mod:`paulisched.partition` and the family audit in
:mod:`paulisched.oracles` both call it once per family.

Coefficients are exact complex numbers with rational real/imaginary parts
(:class:`ExactComplex`); every value the encoding pipeline produces is a
dyadic rational times a power of i, so algebraic identities can be asserted
with equality instead of tolerances.  Conversion to float happens only at
serialization boundaries.

All values are immutable and all operations pure, so everything here can be
shared freely across threads.  The value types are slotted frozen
dataclasses, as are the other value types of the package: an instance has
no ``__dict__``, which keeps the hundreds of thousands of strings of a
compile small and quick to allocate.  Attributes cannot be added to an
instance, and ``functools.cached_property`` does not work on these classes,
so a :class:`PauliString` builds its text once, at construction, into a
field of its own that takes no part in ``==``, ``hash`` or ``repr``: the
sort of a Jordan-Wigner image and the writer of a families file read the
same text.
"""

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "ExactComplex",
    "PauliString",
    "WeightedPauliString",
    "anticommuting_index_count",
    "anticommuting_pair",
    "commutes",
    "parse_pauli",
]

_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_DIGIT_TO_CHAR = str.maketrans("0123", "IXZY")  # digit x + 2z per qubit


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

    def as_complex(self) -> complex:
        return complex(float(self.real), float(self.imag))


@dataclass(frozen=True, slots=True)
class PauliString:
    """An N-qubit Pauli word stored as x/z bitmasks (bit t = qubit t)."""

    n: int
    x: int = 0
    z: int = 0
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        limit = 1 << self.n
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValueError(f"bitmasks out of range for n={self.n}")
        # Reading each mask's binary digits as hex digits puts qubit t in hex
        # digit t as x_t + 2 z_t (no carries: every digit stays below 4).
        # Base 16, unlike base 10, has no int/str digit limit.
        digits = int(format(self.x, "b"), 16) + 2 * int(format(self.z, "b"), 16)
        text = format(digits, "x").zfill(self.n)[::-1].translate(_DIGIT_TO_CHAR)
        object.__setattr__(self, "_text", text)

    def text(self) -> str:
        return self._text

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"PauliString({self._text!r})"


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


def _require_same_length(p: PauliString, q: PauliString) -> None:
    if p.n != q.n:
        raise ValueError(f"Pauli strings act on different registers: {p.n} != {q.n}")


def anticommuting_index_count(p: PauliString, q: PauliString) -> int:
    """Number of qubit positions where p and q carry different non-identity letters.

    Per-qubit, two Pauli letters anticommute exactly when both are
    non-identity and unequal; in the (x, z) encoding that is the symplectic
    product x1*z2 XOR z1*x2 of the two bit pairs.
    """
    _require_same_length(p, q)
    return ((p.x & q.z) ^ (p.z & q.x)).bit_count()


def anticommuting_pair(strings) -> tuple[PauliString, PauliString] | None:
    """The first pair (a, b), a before b, of ``strings`` that anticommutes, or None.

    Pairs are taken in (i, j) order, i < j.  Every register is checked
    against the first.  Each string's vector ``(x << n) | z`` is then
    reduced against pivots keyed by their leading bit, so the strings
    that do not reduce to zero are a basis of the list, each independent
    of the strings before it.  Only the pairs of that basis are tested,
    on bare x/z ints.  This is exact because the symplectic product is
    bilinear: a string that is a sum of earlier strings commutes with
    every string that all of those commute with.  So the first
    anticommuting pair of the list joins two basis strings (any pair
    before it commutes), and it is also the first pair of the basis.

    Raises:
        ValueError: if the strings act on different registers.
    """
    for s in strings[1:]:
        _require_same_length(strings[0], s)
    pivots: dict[int, int] = {}
    basis = []
    for s in strings:
        v = s.x << s.n | s.z
        while v and (pivot := pivots.get(v.bit_length())):
            v ^= pivot
        if v:
            pivots[v.bit_length()] = v
            basis.append((s, s.x, s.z))
    for i, (a, ax, az) in enumerate(basis):
        for b, bx, bz in basis[i + 1:]:
            if ((ax & bz) ^ (az & bx)).bit_count() & 1:
                return a, b
    return None


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the two strings commute, i.e. the anticommuting-index count is even."""
    return anticommuting_pair((p, q)) is None
