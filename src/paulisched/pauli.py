"""N-qubit Pauli strings: their text, exact coefficients and the one commutation rule.

Text convention: qubit 0 is the LEFTMOST character, so "XII" puts an X on
qubit 0 of a three-qubit register.

A string is a pair of bitmasks (x, z); bit t encodes qubit t as I=(0,0),
X=(1,0), Y=(1,1), Z=(0,1).  The compile carries strings as those ints and
their text, never as objects.  The text is read from one more int, the
string's digits (:func:`pauli_digits`): qubit t sits in hex digit t as
I=0, X=1, Y=2, Z=3.  That rule is linear over GF(2), so the digits of a
product of strings are the XOR of its factors' digits, and the
Jordan-Wigner kernel builds each string's digits from those of its two
sides without reading its masks.  :func:`pauli_text` formats digits as
text, the one text rule, so the sort of a Jordan-Wigner image, the writer
of a families file and :class:`PauliString` read the same text.

One integer rule on the masks decides commutation: the parity of the
popcount of the symplectic product (a.x & b.z) ^ (a.z & b.x) (Aaronson and
Gottesman, quant-ph/0406196).  :func:`anticommuting_index_count` counts it
for two strings and :func:`commutes` reads its parity;
:func:`anticommuting_indices` scans a list of masks for its first
anticommuting pair.  The certification in :mod:`paulisched.partition`
calls that scan only for a family that its block test leaves undecided,
and so for every family that fails.

Coefficients are exact complex numbers with rational real/imaginary parts
(:class:`ExactComplex`); every value the encoding pipeline produces is a
dyadic rational times a power of i, so algebraic identities can be asserted
with equality instead of tolerances.

:class:`PauliString`, :class:`WeightedPauliString` and
:class:`ExactComplex` are the view that the oracles and the tests read:
:func:`paulisched.fermion.weighted_strings` builds them from a block's
integer rows, and no compile builds one.  All values are immutable and
all operations pure, so everything here can be shared freely across
threads.  The value types are slotted frozen dataclasses, as are the other
value types of the package: an instance has no ``__dict__``, and
attributes cannot be added to it.  A :class:`PauliString` builds its text
when it is read.
"""

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ExactComplex",
    "PauliString",
    "WeightedPauliString",
    "anticommuting_index_count",
    "anticommuting_indices",
    "commutes",
    "parse_pauli",
    "pauli_digits",
    "pauli_text",
]

_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_DIGIT_TO_CHAR = str.maketrans("0123", "IXYZ")


def pauli_digits(x: int, z: int) -> int:
    """The digits of the string with masks (x, z): qubit t in hex digit t,
    as I=0, X=1, Y=2, Z=3.

    Bit 0 of a digit is x_t ^ z_t and bit 1 is z_t, so the rule is linear
    over GF(2): the digits of ``(x1 ^ x2, z1 ^ z2)`` are the XOR of the two
    strings' digits.
    """
    # Reading a mask's binary digits as hex digits puts bit t in hex digit
    # t.  Base 16, unlike base 10, has no int/str digit limit.
    return int(format(x ^ z, "b"), 16) | int(format(z, "b"), 16) << 1


def pauli_text(n: int, digits: int) -> str:
    """The text of the n-qubit string with :func:`pauli_digits` ``digits``, qubit 0 leftmost."""
    # "%0*x" takes the width n as an argument: no format spec is built per call
    return ("%0*x" % (n, digits))[::-1].translate(_DIGIT_TO_CHAR)


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
        return pauli_text(self.n, pauli_digits(self.x, self.z))

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


def anticommuting_indices(masks) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of the (x, z) ``masks`` that
    anticommutes, or None; pairs are taken in (i, j) order."""
    for i, (ax, az) in enumerate(masks):
        for j, (bx, bz) in enumerate(masks[i + 1:], i + 1):
            if ((ax & bz) ^ (az & bx)).bit_count() & 1:
                return i, j
    return None


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the two strings commute, i.e. the anticommuting-index count is even.

    Raises:
        ValueError: if the strings act on different registers.
    """
    return not anticommuting_index_count(p, q) & 1
