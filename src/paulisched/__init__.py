"""Commuting-family measurement scheduling for second-quantized Hamiltonians.

The package turns the two-body excitation terms of an n-mode Hamiltonian
into O(n^3) certified-commuting families of Pauli strings.  The schedule
behind the grouping depends only on n, so it can be computed once and
cached per register size.
"""

from .baranyai import PartialState, Schedule, build_schedule
from .fermion import FermionicTerm, UnsupportedTermError, jw_image, jw_term
from .flows import FlowNetwork, max_flow_integral
from .partition import (
    CommutingFamily,
    HamiltonianCoefficients,
    PartitionReport,
    build_partition,
    commuting_families,
    load_coefficients,
    save_families,
    schedule_for,
)
from .pauli import (
    ExactComplex,
    PauliString,
    WeightedPauliString,
    anticommuting_index_count,
    anticommuting_pair,
    commutes,
    parse_pauli,
)

__version__ = "0.1.0"
