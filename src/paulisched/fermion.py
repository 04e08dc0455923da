"""The Jordan-Wigner images of fermionic terms, as integer rows.

A ladder operator on mode m maps to (X_m + iY_m)/2 (annihilation) or
(X_m - iY_m)/2 (creation), times a Z chain on all lower modes.  The
integer ladder table :func:`_ladder` is the one source of that encoding:
each part is a pair of masks (x, z) and an exponent e, for the weight
i**e X^x Z^z / 2 in the X^x Z^z normal form (Aaronson and Gottesman,
quant-ph/0406196), in which Y = iXZ.  One rule multiplies two such parts:
exponents add, and moving Z^z past X^x' adds 2 popcount(z & x').
:func:`_product_rows`, the one expansion routine, expands each term's
ladder product exactly on integers in one pass: every coefficient is
(a + ib) / 2**f for Gaussian integers a + ib and f ladder factors, so each
product path carries an i-power and is added straight into the sums of the
whole weighted set.  :func:`jw_image` folds one unit of blocks: it takes
the register size n and the blocks, each a list of ``(key, value)``
entries whose terms share one X mask, a key being a term's ``(creates,
annihilates)``, its two descending mode tuples; it builds no term.  It
returns the unit's one denominator and, per block, its even-Y and its
odd-Y rows ``(text, x, z, re, im)``: a string's text, its masks and the
numerators of its coefficient.  So the kernel makes both decisions of a
family's rows, the denominator and the Y half, and a family only joins
halves.  Every string of a term has the term's X mask, the XOR of its
mode bits, so every string of a block has the block's: the sums are keyed
by a string's z alone, and each distinct string's text is formatted once
from its masks by :func:`_text`; a four-mode block's rows are spliced
from text halves in the same letters instead (below).  The split in
:mod:`paulisched.partition` calls :func:`jw_image` once per unit, a
schedule round or a leftover block, on the blocks its table holds, keyed
by X mask, and carries the rows to the writer as they are.  No sign or
phase is hand-coded, which is what the dense-matrix oracles in
:mod:`paulisched.oracles` verify: their single-term image,
``oracles.jw_term``, reads :func:`jw_image`.

A term is the product of its creates side and its annihilates side, and
each side is expanded once per process by that rule: :func:`_side`, a
cached function, maps a side's ``(modes, dagger)`` to its product paths
``(x, z, e)``, and is the one reader of the ladder table.  The same rule
joins the two sides, and only the product leaves the normal form: each of
its Y letters takes one factor i back.  No part of a path depends on the
register size: a text is padded to n letters only when it is formatted.
A two-body term expanded this way takes 16 phases, one per pair of side
paths, instead of the 30 of a factor-by-factor expansion.  A side names
one mode or two distinct descending ones, so for modes below M its cache
holds at most 2 * (M + C(M, 2)) keys.  Both caches here are filled on
first use, and they hold tuples, which no caller can change: two threads
that miss one key at once both expand it and store equal values, and
either serves.

A two-body term on four distinct modes a < b < c < d always expands to 16
strings of coefficient magnitude 1/16: X or Y at the four modes, Z on the
open gaps (a, b) and (c, d), identity elsewhere; the test suite checks this
shape.  Its coefficients depend only on its shape, which two of the four
sorted positions it creates, of which there are six: the gap Z's sit on no
X position, so they add no phase.  A block whose first term names four
distinct modes has a 4-bit X mask, and every term of such a block names
those four modes, so it takes no product path.  :func:`_shape`, the
second cached function, maps each shape to its 16 numerators over 2**4:
the rows of that term on the register of the modes 0..3, expanded from
its key by the expansion routine, which sorts them by text, and read in
order.
The block's sums are each term's value, scaled to the unit's denominator,
times its shape's table, so a weighted block of up to six terms and an
unweighted one of one term take the same code.  Each row is one of four
left texts ``I*a L_a Z*(b-a-1) L_b`` and one of four right texts, and its
z is the gap chain and its Y bits.  The Y pattern read from a to d counts
up in text order, as X < Y and qubit 0 is leftmost, so the rows come out
sorted, in the order of the table.  A row's Y parity is that of its left
text plus that of its right text, so each table position belongs to one
half, and each half keeps text order.  Every other block's rows come from
the expansion routine, sorted by text, and go to the half of their Y
count |x & z|.
"""

from functools import cache
from itertools import product
from math import lcm

__all__ = ["jw_image"]

_LETTERS = str.maketrans("0123", "IXZY")


def _text(n: int, x: int, z: int) -> str:
    """The text of the n-qubit string with masks (x, z), qubit 0 leftmost:
    qubit t reads "IXZY"[x_t | z_t << 1]."""
    # a mask's binary digits read as hex put bit t in hex digit t, so hex
    # digit t of the sum is x_t | z_t << 1; base 16, unlike base 10, has no
    # int/str digit limit, and "%0*x" takes the width n as an argument
    return ("%0*x" % (n, int(format(x, "b"), 16) | int(format(z, "b"), 16) << 1))[::-1].translate(_LETTERS)


def _ladder(mode: int, dagger: bool) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """A ladder operator's parts (x, z, e) in normal form, each weighted
    i**e X^x Z^z / 2: X_mode, and X_mode Z_mode with e = 0 (creation) or 2,
    times the Z chain below ``mode``."""
    chain = (1 << mode) - 1
    return ((1 << mode, chain, 0), (1 << mode, chain | 1 << mode, 0 if dagger else 2))


@cache
def _side(modes: tuple[int, ...], dagger: bool) -> tuple[tuple[int, int, int], ...]:
    """The product paths (x, z, e) of one side's ladder factors, in normal
    form; a tuple, as every caller shares it."""
    paths = [(0, 0, 0)]
    for mode in modes:
        paths = [
            (x ^ fx, z ^ fz, e + fe + 2 * (z & fx).bit_count())
            for x, z, e in paths
            for fx, fz, fe in _ladder(mode, dagger)
        ]
    return tuple(paths)


def _product_rows(n: int, scaled) -> tuple[list, list]:
    """The even-Y and the odd-Y rows, each in text order, of sum(scale *
    term) over (key, scale) pairs with integer scales and one X mask, each
    product path of a term adding its scale times its phase; rows that sum
    to zero drop."""
    # every string of the block has its X mask, the XOR of a term's mode bits
    (creates, annihilates), _ = scaled[0]
    x = 0
    for m in creates + annihilates:
        x ^= 1 << m
    sums = {}  # per string's z, [re, im]
    for (creates, annihilates), scale in scaled:
        annihilated = _side(annihilates, False)
        for _, cz, ce in _side(creates, True):
            for ax, az, ae in annihilated:
                # normal-form exponents add, Z^cz X^ax = (-1)^|cz & ax| X^ax Z^cz,
                # and the product's own Y letters leave the normal form
                z = cz ^ az
                k = ce + ae + 2 * (cz & ax).bit_count() - (x & z).bit_count()
                entry = sums.get(z)
                if entry is None:
                    entry = sums[z] = [0, 0]
                entry[k & 1] += -scale if k & 2 else scale  # i**k is 1, i, -1 or -i
    halves: tuple[list, list] = ([], [])
    for row in sorted([(_text(n, x, z), x, z, re, im) for z, (re, im) in sums.items() if re or im]):
        halves[(x & row[2]).bit_count() & 1].append(row)
    return halves


@cache
def _shape(creates: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The 16 (re, im) numerators over 2**4, in text order, of the term on
    the modes 0..3 that creates the positions ``creates``; a tuple, as
    every caller shares it."""
    key = creates, tuple(p for p in (3, 2, 1, 0) if p not in creates)
    even, odd = _product_rows(4, [(key, 1)])
    return tuple([(re, im) for _, _, _, re, im in sorted(even + odd)])


def jw_image(n: int, blocks) -> tuple[int, list[tuple[list, list]]]:
    """The exact JW images of the blocks of one unit, over one denominator.

    ``blocks`` is a list of non-empty lists of (key, value) entries, each
    block standing for sum(value * term) over its entries, and every entry
    of a block sharing one X mask, the XOR of its term's mode bits.  A key
    is a term's ``(creates, annihilates)``: two strictly descending tuples
    of modes in range(n), one mode each or two each, checked where the
    input arrived; the key is not checked again here, and no check reads
    the shared mask, which the callers build by.  Values are ints or
    Fractions.  Every block is summed on integers
    over the unit's one denominator D: the lcm of every value's denominator
    in the unit times 2**f for the largest ladder count f among its terms.
    Each value is scaled once to its numerator over D / 2**f for its own
    term's f.  Each product path of a term's ladder factors adds its scaled
    value times its phase i**k to the numerators of its string, keyed by
    its z, as the block's X mask is every string's.  A block whose first
    term names four distinct modes has a 4-bit mask, so every term of it
    names those four modes, and it is summed from the shape tables
    instead: each term adds its scaled value times the table of its shape
    (:func:`_shape`), and the rows are spliced from text halves
    (:func:`_four_mode_rows`).
    Returns D and, per block in order, its even-Y rows and its odd-Y rows
    ``(text, x, z, re, im)``, one per string whose sum (re + i im) / D is
    nonzero and whose Y count |x & z| has that parity; strings that sum to
    zero drop out.  Each half is sorted by text, which makes downstream
    output reproducible; texts are unique, so that is plain tuple order.
    An empty unit has no images, and D is 1.
    """
    ladders = [len(c) + len(a) for block in blocks for (c, a), _ in block]
    denominator = lcm(*[value.denominator for block in blocks for _, value in block]) << max(ladders, default=0)
    images = []
    for block in blocks:
        scaled = [
            (key, value.numerator * (denominator // (value.denominator << len(key[0]) + len(key[1]))))
            for key, value in block
        ]
        (creates, annihilates), _ = block[0]
        ends = sorted({*creates, *annihilates})
        images.append(_four_mode_rows(n, ends, scaled) if len(ends) == 4 else _product_rows(n, scaled))
    return denominator, images


def _four_mode_rows(n: int, ends, scaled) -> tuple[list, list]:
    """The even-Y and the odd-Y rows, each in text order, of sum(scale *
    term) over (key, scale) pairs whose terms all name the sorted modes
    a < b < c < d; rows that sum to zero drop.

    The 16 strings' sums, in text order, are each term's scale times the
    table of its shape.  A row's text is one of four left halves
    ``I*a L_a Z*(b-a-1) L_b`` and one of four right halves, and its z is
    the gaps' chain and the Y bits of both halves.  Its Y count is that of
    its left half plus that of its right half, so its position in the
    table fixes its half.
    """
    # a term's shape is which two of the four sorted positions it creates
    sums = None
    for (creates, _), scale in scaled:
        table = _shape(tuple([ends.index(m) for m in creates]))
        if sums is None:
            # the unweighted build's one term has scale 1 and reads its table,
            # which nothing changes, as it is: scaling it anyway took the
            # in-process N = 20 families pass from 0.179 to 0.186 s (medians
            # of 14 fresh interpreters, best of 5, collector off, 2-core Xeon)
            sums = table if scale == 1 else [(scale * re, scale * im) for re, im in table]
        else:
            sums = [(re + scale * tre, im + scale * tim) for (re, im), (tre, tim) in zip(sums, table)]
    a, b, c, d = ends
    ya, yb, yc, yd = 1 << a, 1 << b, 1 << c, 1 << d
    chain = yb - (ya << 1) | yd - (yc << 1)
    head, inner, middle, outer = "I" * a, "Z" * (b - a - 1), "I" * (c - b - 1), "Z" * (d - c - 1)
    tail = "I" * (n - d - 1)
    # the text after the previous endpoint up to each endpoint, as X and as Y
    ax, ay, bx, by = head + "X", head + "Y", inner + "X", inner + "Y"
    cx, cy, dx, dy = middle + "X", middle + "Y", outer + "X" + tail, outer + "Y" + tail
    # each half's text, z bits and Y parity, for the letters XX, XY, YX and YY in turn
    lefts = ((ax + bx, chain, 0), (ax + by, chain | yb, 1), (ay + bx, chain | ya, 1), (ay + by, chain | ya | yb, 0))
    rights = ((cx + dx, 0, 0), (cx + dy, yd, 1), (cy + dx, yc, 1), (cy + dy, yc | yd, 0))
    x = ya | yb | yc | yd
    halves: tuple[list, list] = ([], [])
    for ((left, lz, ly), (right, rz, ry)), (re, im) in zip(product(lefts, rights), sums):
        if re or im:
            halves[ly ^ ry].append((left + right, x, lz | rz, re, im))
    return halves
