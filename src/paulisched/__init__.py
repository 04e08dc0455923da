"""Commuting-family measurement scheduling for second-quantized Hamiltonians.

The package turns the two-body excitation terms of an n-mode Hamiltonian
into O(n^3) certified-commuting families of Pauli strings.  The schedule
behind the grouping depends only on n, so it can be computed once and
cached per register size.

The root re-exports only the library sweep's four calls; every other name
is read from its module, such as :mod:`paulisched.partition`.
"""

from .partition import build_partition, load_coefficients, save_families, schedule_for

__version__ = "0.1.0"
