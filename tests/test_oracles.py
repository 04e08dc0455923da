from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from conftest import adjoint, seeded_hermitian_entries
from paulisched import fermion, oracles
from paulisched.baranyai import Schedule, build_schedule, round_sizes
from paulisched.fermion import FermionicTerm
from paulisched.partition import (
    CommutingFamily,
    HamiltonianCoefficients,
    build_partition,
    commuting_families,
)
from paulisched.pauli import ExactComplex, WeightedPauliString, commutes, parse_pauli
from paulisched.oracles import (
    anticommuting_chain_fixture,
    ladder_matrix,
    string_matrix,
    term_matrix,
    validate_families,
    validate_partition,
    validate_schedule,
    verify_anticommuting_chains,
    verify_disjoint_term_commutation,
    verify_jw_against_matrices,
    verify_sliding_invariance,
)


class TestLadderMatrixOracle:
    """The oracle itself must behave like fermionic ladder operators."""

    def test_canonical_anticommutation_relations(self):
        n = 4
        eye = np.eye(1 << n)
        for p in range(n):
            for q in range(n):
                a_p = ladder_matrix(p, False, n)
                adag_q = ladder_matrix(q, True, n)
                anti = a_p @ adag_q + adag_q @ a_p
                want = eye if p == q else np.zeros_like(eye)
                assert np.array_equal(anti, want)
                a_q = ladder_matrix(q, False, n)
                assert np.array_equal(a_p @ a_q + a_q @ a_p, np.zeros_like(eye))

    def test_creation_is_adjoint_of_annihilation(self):
        for mode in range(3):
            assert np.array_equal(
                ladder_matrix(mode, True, 3), ladder_matrix(mode, False, 3).conj().T
            )

    def test_built_once_and_read_only(self):
        a = ladder_matrix(1, True, 3)
        assert ladder_matrix(1, True, 3) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1
        assert np.array_equal(a, ladder_matrix(1, False, 3).conj().T)

    def test_number_operator_is_diagonal(self):
        n_op = ladder_matrix(1, True, 2) @ ladder_matrix(1, False, 2)
        assert np.array_equal(n_op, np.diag(np.diag(n_op)))


class TestDenseChecks:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_jw_matches_matrices(self, n):
        report = verify_jw_against_matrices(n)
        assert report.passed, report.counterexample
        assert report.details["terms_checked"] == {4: 47, 5: 100, 6: 186}[n]
        assert report.details["exact_matches"] == report.details["terms_checked"]
        assert report.details["max_deviation"] == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_canonical_terms_are_every_class(self, n):
        # one-body terms, two-body terms whose sides share a mode, and the
        # distinct-index terms that create their two largest modes
        sides = [(a, b) for a in range(n) for b in range(a)]
        want = {FermionicTerm.one_body(p, q, n) for p in range(n) for q in range(n)}
        want |= {
            FermionicTerm(c, d, n) for c in sides for d in sides if set(c) & set(d) or min(c) > max(d)
        }
        terms = oracles._canonical_terms(n)
        assert len(terms) == len(set(terms))
        assert set(terms) == want

    def test_term_plus_adjoint_is_hermitian(self):
        term = FermionicTerm.two_body(3, 2, 1, 0, 4)
        total = term_matrix(term) + term_matrix(adjoint(term))
        assert np.array_equal(total, total.conj().T)

    def test_string_matrix_uses_qubit0_as_first_factor(self):
        got = string_matrix(parse_pauli("XI"))
        want = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        assert np.array_equal(got, want)


class TestExhaustiveDisjointCheck:
    def test_report(self):
        report = verify_disjoint_term_commutation()
        assert report.passed
        assert report.details["cases"] == 70
        assert report.details["cross_pairs"] == 70 * 256
        histogram = report.details["count_histogram"]
        assert all(count % 2 == 0 for count in histogram)
        assert report.details["min_count"] == 0
        assert report.details["max_count"] == 6

    def test_non_interleaved_case_has_zero_count(self):
        from paulisched.fermion import jw_term
        from paulisched.pauli import anticommuting_index_count

        upper = FermionicTerm.two_body(7, 6, 5, 4, 8)
        lower = FermionicTerm.two_body(3, 2, 1, 0, 8)
        all_x = {
            str(w.string): w.string
            for w in jw_term(upper) + jw_term(lower)
        }
        assert anticommuting_index_count(all_x["IIIIXXXX"], all_x["XXXXIIII"]) == 0


class TestSliding:
    def test_invariance_holds(self):
        report = verify_sliding_invariance(trials=100, max_n=12, seed=3)
        assert report.passed, report.counterexample
        assert report.details["trials"] == 100


class TestChains:
    def test_three_qubit_fixture_matches_known_list(self):
        chain = anticommuting_chain_fixture(3)
        assert [str(p) for p in chain] == ["XII", "YII", "ZXI", "ZYI", "ZZX", "ZZY"]

    def test_single_qubit(self):
        assert [str(p) for p in anticommuting_chain_fixture(1)] == ["X", "Y"]

    def test_no_pair_commutes_up_to_five(self):
        chain = anticommuting_chain_fixture(5)
        assert len(chain) == 10
        clashes = [
            (a, b)
            for i, a in enumerate(chain)
            for b in chain[i + 1 :]
            if commutes(a, b)
        ]
        assert clashes == []

    def test_report(self):
        report = verify_anticommuting_chains(max_n=8)
        assert report.passed
        assert report.details["pairs_checked"] == sum(
            (2 * n) * (2 * n - 1) // 2 for n in range(1, 9)
        )


class TestValidateSchedule:
    def test_valid_schedule_passes(self):
        report = validate_schedule(build_schedule(8))
        assert report.passed
        assert report.details["rounds"] == 35
        assert report.details["subsets"] == 70

    def test_duplicate_subset_is_named(self):
        schedule = build_schedule(8)
        rounds = [list(r) for r in schedule.rounds]
        rounds[0] = list(rounds[1])  # a whole round twice: duplicates without overlaps
        report = validate_schedule(Schedule.from_rounds(8, rounds))
        assert not report.passed
        assert report.details["checks"]["round_disjoint"]
        assert not report.details["checks"]["exact_cover"]
        assert any(str(tuple(s)) in report.counterexample for s in rounds[1])

    def test_overlapping_round_detected(self):
        rounds = [[(7, 6, 5, 4), (7, 2, 1, 0)]]
        report = validate_schedule(Schedule.from_rounds(8, rounds))
        assert not report.passed
        assert not report.details["checks"]["round_disjoint"]

    def test_malformed_subset_detected(self):
        report = validate_schedule(Schedule(4, (((3, 2, 1, 1),),)))
        assert not report.passed
        assert not report.details["checks"]["subset_shape"]

    def test_wrong_round_count_detected_for_divisible_sizes(self):
        schedule = build_schedule(8)
        report = validate_schedule(Schedule(8, schedule.rounds[:-1]))
        assert not report.passed

    def test_round_shape_checked_for_every_n(self):
        # an exact cover of n=9 with one subset per round: 126 rounds, not 63
        rounds = [[s] for s in combinations(range(9), 4)]
        report = validate_schedule(Schedule.from_rounds(9, rounds))
        assert not report.passed
        assert report.details["checks"]["exact_cover"]
        assert not report.details["checks"]["round_shape"]
        assert "126 rounds, expected 63" in report.counterexample

    @pytest.mark.parametrize("n", [0, -4])
    def test_non_positive_n_fails_without_raising(self, n):
        report = validate_schedule(Schedule(n, ()))
        assert not report.passed
        assert f"n={n}" in report.counterexample
        assert report.details["checks"]["mode_count"] is False

    @pytest.mark.parametrize("n", range(4, 21))
    def test_round_count_is_that_of_round_sizes(self, n):
        rounds = len(round_sizes(n))
        assert validate_schedule(Schedule(n, ((),) * rounds)).details["checks"]["round_shape"]
        report = validate_schedule(Schedule(n, ((),) * (rounds + 1)))
        assert not report.details["checks"]["round_shape"]

    def test_huge_n_fails_without_listing_its_rounds(self):
        # about 1.7e17 rounds for n = 10**6: the count is computed, never listed
        report = validate_schedule(Schedule(10**6, ()))
        assert not report.passed
        assert not report.details["checks"]["exact_cover"]
        assert not report.details["checks"]["round_shape"]
        assert report.counterexample.startswith("0 distinct subsets covered")

    def test_report_serializes(self):
        report = validate_schedule(build_schedule(4))
        as_dict = report.to_dict()
        assert as_dict["passed"] is True
        assert "checks" in as_dict["details"]


class TestValidateFamilies:
    def test_real_families_pass(self):
        report = validate_families(commuting_families(build_schedule(4)))
        assert report.passed

    def test_doctored_family_fails_with_counterexample(self):
        one = ExactComplex(1)
        bad = CommutingFamily(
            (
                WeightedPauliString(one, parse_pauli("XI")),
                WeightedPauliString(one, parse_pauli("YI")),
            ),
            (),
            "dominant",
        )
        report = validate_families([bad])
        assert not report.passed
        assert "do not commute" in report.counterexample

    def test_only_the_last_pair_anticommutes(self):
        # the family of test_anticommuting_pair_fails_certification
        texts = ("ZIII", "IZII", "ZZII", "IIII", "ZIIZ", "IIXI", "IIZI")
        strings = tuple(WeightedPauliString(ExactComplex(1), parse_pauli(t)) for t in texts)
        report = validate_families([CommutingFamily(strings, (), "residual")])
        assert not report.passed
        assert report.counterexample == "family 0: IIXI and IIZI do not commute"
        assert report.details["pairs_checked"] == 21  # C(7, 2)

    def test_mixed_registers_fail_without_raising(self):
        strings = tuple(WeightedPauliString(ExactComplex(1), parse_pauli(t)) for t in ("X", "XX"))
        report = validate_families([CommutingFamily(strings, (), "residual")])
        assert not report.passed
        assert report.counterexample == "family 0: Pauli strings act on different registers: 1 != 2"


class TestValidatePartition:
    @staticmethod
    def coefficients(n, kind):
        if kind == "unweighted":
            return None
        one, two = seeded_hermitian_entries(n, seed=n)
        if kind == "one-sided":
            one, two = one[::2], two[::2]
        return HamiltonianCoefficients.from_entries(n, one, two)

    @pytest.mark.parametrize("kind", ["unweighted", "hermitian", "one-sided"])
    @pytest.mark.parametrize("n", [4, 5, 8, 12])
    def test_built_partitions_pass(self, n, kind):
        coeffs = self.coefficients(n, kind)
        families = build_partition(n, coeffs).families
        report = validate_partition(families, n, coeffs)
        assert report.passed, report.counterexample
        strings = [w.string for f in families for w in f.strings]
        assert len(strings) == len(set(strings)) == report.details["image_strings"]
        assert ("dense_max_deviation" in report.details) == (n <= 6)
        assert report.details.get("dense_max_deviation", 0.0) < 1e-12

    @pytest.fixture(scope="class", params=[6, 8])
    def built(self, request):
        n = request.param
        coeffs = self.coefficients(n, "one-sided")
        return n, coeffs, build_partition(n, coeffs).families

    def test_duplicated_string_fails(self, built):
        n, coeffs, families = built
        families = list(families)  # each test edits its own copy
        first = families[0].strings[0]
        families[1] = replace(families[1], strings=families[1].strings + (first,))
        report = validate_partition(families, n, coeffs)
        assert not report.passed
        assert f"{first.string} appears in an earlier family" in report.counterexample

    def test_dropped_string_fails(self, built):
        n, coeffs, families = built
        families = list(families)  # each test edits its own copy
        dropped = families[-1].strings[-1]
        families[-1] = replace(families[-1], strings=families[-1].strings[:-1])
        report = validate_partition(families, n, coeffs)
        assert not report.passed
        assert report.counterexample.startswith(f"{dropped.string}: families sum to None")

    def test_reweighted_string_fails(self, built):
        n, coeffs, families = built
        families = list(families)  # each test edits its own copy
        w = families[0].strings[0]
        doubled = replace(w, coefficient=w.coefficient + w.coefficient)
        families[0] = replace(families[0], strings=(doubled,) + families[0].strings[1:])
        report = validate_partition(families, n, coeffs)
        assert not report.passed
        assert report.counterexample.startswith(f"{w.string}: ")

    def test_other_hamiltonian_fails(self, built):
        n, coeffs, families = built
        assert not validate_partition(families, n).passed

    @pytest.mark.parametrize("n", [4, 8])
    def test_string_on_another_register_fails_without_raising(self, n):
        # at n <= 6 the dense sum would subtract matrices of different shapes
        family = CommutingFamily((WeightedPauliString(ExactComplex(1), parse_pauli("XXIIIIIIII")),), (), "residual")
        report = validate_partition([family], n)
        assert not report.passed
        assert report.counterexample == f"family 0: XXIIIIIIII acts on 10 qubits, not {n}"
        assert "dense_max_deviation" not in report.details


class TestOraclesFail:
    """A fault in what an oracle checks fails its report with a counterexample."""

    def test_jw_dense_check_catches_a_dropped_string(self, monkeypatch):
        expand = oracles.jw_term
        monkeypatch.setattr(oracles, "jw_term", lambda term: expand(term)[1:])
        report = verify_jw_against_matrices(4)
        assert report.passed is False
        assert report.counterexample == "term (0,)/(0,): max deviation 0.5"
        assert report.details["exact_matches"] == 0

    def test_disjoint_check_catches_an_odd_count(self, monkeypatch):
        count = oracles.anticommuting_index_count
        monkeypatch.setattr(oracles, "anticommuting_index_count", lambda p, q: count(p, q) + 1)
        report = verify_disjoint_term_commutation()
        assert report.passed is False
        assert report.counterexample == "(0, 1, 2, 3) vs (4, 5, 6, 7): XXXXIIII / IIIIXXXX anticommute at 1 indices"
        assert report.details["cross_pairs"] == 70 * 256

    def test_sliding_check_catches_an_odd_parity(self, monkeypatch):
        count = oracles.anticommuting_index_count
        monkeypatch.setattr(oracles, "anticommuting_index_count", lambda p, q: count(p, q) + 1)
        report = verify_sliding_invariance(trials=100, max_n=12, seed=3)
        assert report.passed is False
        assert report.counterexample.endswith("changed parity")
        assert report.details["trials"] == 1

    def test_chain_check_catches_a_commuting_pair(self, monkeypatch):
        monkeypatch.setattr(oracles, "commutes", lambda p, q: True)
        report = verify_anticommuting_chains(max_n=3)
        assert report.passed is False
        assert report.counterexample == "n=1: X and Y commute"

    def test_partition_dense_sum_catches_a_kernel_fault(self, monkeypatch):
        # swapping creation and annihilation changes the compile and the
        # exact reference image alike, so only the dense sum can see it
        ladder = fermion._ladder
        monkeypatch.setattr(fermion, "_ladder", lambda mode, dagger: ladder(mode, not dagger))
        monkeypatch.setattr(fermion, "_SIDES", {})
        report = validate_partition(build_partition(4).families, 4)
        assert report.passed is False
        assert report.counterexample == "dense sum of the families deviates from the Hamiltonian by 4.0"
        assert not verify_jw_against_matrices(4).passed
