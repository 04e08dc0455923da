"""N-qubit Pauli strings as the compile carries them: masks, digits and text.

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
text, the one text rule, so the sort of a Jordan-Wigner image and the
writer of a families file read the same text.

One integer rule on the masks decides commutation: the parity of the
popcount of the symplectic product (a.x & b.z) ^ (a.z & b.x) (Aaronson and
Gottesman, quant-ph/0406196).  :func:`anticommuting_indices` scans a list
of masks for its first anticommuting pair.  The certification in
:mod:`paulisched.partition` calls that scan only for a family that its
block test leaves undecided, and so for every family that fails.

The exact object model of strings and coefficients, which the checks and
the tests read, lives in :mod:`paulisched.oracles`.  Everything here is a
pure function of ints, so it can be shared freely across threads.
"""

__all__ = [
    "anticommuting_indices",
    "pauli_digits",
    "pauli_text",
]

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


def anticommuting_indices(masks) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of the (x, z) ``masks`` that
    anticommutes, or None; pairs are taken in (i, j) order."""
    for i, (ax, az) in enumerate(masks):
        for j, (bx, bz) in enumerate(masks[i + 1:], i + 1):
            if ((ax & bz) ^ (az & bx)).bit_count() & 1:
                return i, j
    return None
