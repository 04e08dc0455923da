from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    adjoint,
    conjugate_transpose,
    family_of,
    identity_matrix,
    matrix_product,
    matrix_sum,
    seeded_hermitian_entries,
    string_matrix,
    strings_of,
)
from paulisched import fermion, oracles
from paulisched.baranyai import Schedule, build_schedule, round_sizes
from paulisched.partition import (
    HamiltonianCoefficients,
    build_partition,
    commuting_families,
)
from paulisched.oracles import (
    ExactComplex,
    FermionicTerm,
    WeightedPauliString,
    anticommuting_chain_fixture,
    commutes,
    ladder_matrix,
    parse_pauli,
    term_matrix,
    validate_families,
    validate_partition,
    validate_schedule,
    verify_anticommuting_chains,
    verify_disjoint_term_commutation,
    verify_jw_against_matrices,
    verify_sliding_invariance,
    weighted_sum_matrix,
)


class TestLadderMatrixOracle:
    """The oracle itself must behave like fermionic ladder operators."""

    def test_canonical_anticommutation_relations(self):
        n = 4
        for p in range(n):
            for q in range(n):
                a_p = ladder_matrix(p, False, n)
                adag_q = ladder_matrix(q, True, n)
                anti = matrix_sum(matrix_product(a_p, adag_q), matrix_product(adag_q, a_p))
                assert anti == (identity_matrix(n) if p == q else {})
                a_q = ladder_matrix(q, False, n)
                assert matrix_sum(matrix_product(a_p, a_q), matrix_product(a_q, a_p)) == {}

    def test_creation_is_adjoint_of_annihilation(self):
        for mode in range(3):
            assert ladder_matrix(mode, True, 3) == conjugate_transpose(ladder_matrix(mode, False, 3))

    def test_number_operator_is_diagonal(self):
        n_op = matrix_product(ladder_matrix(1, True, 2), ladder_matrix(1, False, 2))
        assert n_op and all(row == column for row, column in n_op)


class TestDenseChecks:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_jw_matches_matrices(self, n):
        report = verify_jw_against_matrices(n)
        assert report.passed, report.counterexample
        assert report.details["terms_checked"] == {4: 52, 5: 125, 6: 261}[n]
        assert report.details["exact_matches"] == report.details["terms_checked"]
        assert report.details["max_deviation"] == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_canonical_terms_are_every_class(self, n):
        # one-body terms, two-body terms whose sides share a mode, and the
        # distinct-index terms that create their two largest modes
        sides = [(a, b) for a in range(n) for b in range(a)]
        want = {FermionicTerm((p,), (q,), n) for p in range(n) for q in range(n)}
        want |= {
            FermionicTerm(c, d, n) for c in sides for d in sides if set(c) & set(d) or min(c) > max(d)
        }
        terms = oracles._canonical_terms(n)
        assert len(terms) == len(set(terms))
        assert set(terms) == want

    @pytest.mark.parametrize("n", [-3, 0, 9])
    def test_register_out_of_range_raises(self, n):
        # a register of no modes has no terms, so it would pass having checked none
        with pytest.raises(ValueError, match=f"got {n}$"):
            verify_jw_against_matrices(n)

    def test_weighted_sum_of_another_register_raises(self):
        strings = [WeightedPauliString(ExactComplex(1), parse_pauli(t)) for t in ("XYZ", "XY")]
        with pytest.raises(ValueError, match=r"^XY acts on 2 qubits, not 3$"):
            weighted_sum_matrix(strings, 3)

    def test_term_plus_adjoint_is_hermitian(self):
        term = FermionicTerm((3, 2), (1, 0), 4)
        total = matrix_sum(term_matrix(term), term_matrix(adjoint(term)))
        assert total and total == conjugate_transpose(total)

    def test_qubit_and_mode_t_are_bit_t_of_the_basis_index(self):
        one, i = ExactComplex(1), ExactComplex(0, 1)
        minus_one, minus_i = ExactComplex(-1), ExactComplex(0, -1)
        assert string_matrix(parse_pauli("XI")) == {(b ^ 1, b): one for b in range(4)}
        # Y|0> = i|1> and Y|1> = -i|0> on qubit 1
        assert string_matrix(parse_pauli("IY")) == {
            (0b10, 0b00): i, (0b11, 0b01): i, (0b00, 0b10): minus_i, (0b01, 0b11): minus_i,
        }
        # annihilating mode 1 of |11> passes the occupied mode 0: sign -1
        assert ladder_matrix(1, False, 2) == {(0b00, 0b10): one, (0b01, 0b11): minus_one}


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
        from paulisched.oracles import anticommuting_index_count, jw_term

        upper = FermionicTerm((7, 6), (5, 4), 8)
        lower = FermionicTerm((3, 2), (1, 0), 8)
        all_x = {
            str(w.string): w.string
            for w in jw_term(upper) + jw_term(lower)
        }
        assert anticommuting_index_count(all_x["IIIIXXXX"], all_x["XXXXIIII"]) == 0


class TestSliding:
    def test_invariance_holds(self):
        report = verify_sliding_invariance()
        assert report.passed, report.counterexample
        assert report.details == {"trials": 200, "max_n": 12}


class TestChains:
    def test_three_qubit_fixture_matches_known_list(self):
        chain = anticommuting_chain_fixture(3)
        assert [str(p) for p in chain] == ["XII", "YII", "ZXI", "ZYI", "ZZX", "ZZY"]

    def test_single_qubit(self):
        assert [str(p) for p in anticommuting_chain_fixture(1)] == ["X", "Y"]

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_qubits_rejected(self, n):
        with pytest.raises(ValueError, match="^need at least one qubit$"):
            anticommuting_chain_fixture(n)

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
        report = verify_anticommuting_chains()
        assert report.passed
        assert report.details["max_n"] == 8
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

    def test_oversized_round_detected(self):
        # the right round count and an exact cover, but round 0 takes round
        # 1's subsets: four in a round of n=8, which can hold two
        rounds = [list(r) for r in build_schedule(8).rounds]
        rounds[0] += rounds[1]
        rounds[1] = []
        report = validate_schedule(Schedule(8, tuple(map(tuple, rounds))))
        assert not report.passed
        checks = report.details["checks"]
        assert checks["exact_cover"]
        assert not checks["round_disjoint"]
        assert not checks["round_shape"]

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
        bad = family_of(
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
        report = validate_families([family_of(strings)])
        assert not report.passed
        assert report.counterexample == "family 0: IIXI and IIZI do not commute"
        assert report.details["pairs_checked"] == 21  # C(7, 2)

    def test_mixed_registers_fail_without_raising(self):
        # a family holds one register, the first string's, and the audit
        # reads its rows on it: a row of a wider register fails the family
        strings = tuple(WeightedPauliString(ExactComplex(1), parse_pauli(t)) for t in ("X", "XX"))
        report = validate_families([family_of(strings)])
        assert not report.passed
        assert report.counterexample == "family 0: bitmasks out of range for n=1"

    @pytest.mark.parametrize("fault", ["non-pauli", "x-to-y", "length"])
    def test_a_row_text_that_does_not_spell_its_masks_fails(self, fault):
        # the writer writes each row's text, which weighted_strings drops: both
        # validators read it against the row's masks
        families = list(build_partition(6).families)
        family = families[3]
        text = family.rows[0][0]
        at = next(t for t, c in enumerate(text) if c in "XY")
        wrong = {
            "non-pauli": "Q" * len(text),
            "x-to-y": text[:at] + {"X": "Y", "Y": "X"}[text[at]] + text[at + 1:],
            "length": text + "I",
        }[fault]
        doctored = families[:3] + [family._replace(rows=((wrong, *family.rows[0][1:]),) + family.rows[1:])]
        doctored += families[4:]
        for report in (validate_families(doctored), validate_partition(doctored, 6)):
            assert not report.passed
            assert report.counterexample == (
                f"family 3: row text {wrong!r} does not spell {parse_pauli(text)}"
            )
        assert validate_families(families).passed and validate_partition(families, 6).passed


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
        strings = [w.string for f in families for w in strings_of(f)]
        assert len(strings) == len(set(strings)) == report.details["image_strings"]
        assert ("dense_max_deviation" in report.details) == (n <= 6)
        assert report.details.get("dense_max_deviation", 0.0) == 0.0

    @pytest.fixture(scope="class", params=[6, 8])
    def built(self, request):
        n = request.param
        coeffs = self.coefficients(n, "one-sided")
        return n, coeffs, build_partition(n, coeffs).families

    def test_duplicated_string_fails(self, built):
        n, coeffs, families = built
        families = list(families)  # each test edits its own copy
        first = strings_of(families[0])[0]
        families[1] = family_of(strings_of(families[1]) + [first], families[1].provenance, families[1].origin)
        report = validate_partition(families, n, coeffs)
        assert not report.passed
        assert f"{first.string} appears in an earlier family" in report.counterexample

    def test_dropped_string_fails(self, built):
        n, coeffs, families = built
        families = list(families)  # each test edits its own copy
        dropped = strings_of(families[-1])[-1]
        families[-1] = family_of(strings_of(families[-1])[:-1], families[-1].provenance, families[-1].origin)
        report = validate_partition(families, n, coeffs)
        assert not report.passed
        assert report.counterexample.startswith(f"{dropped.string}: families sum to None")

    def test_reweighted_string_fails(self, built):
        n, coeffs, families = built
        families = list(families)  # each test edits its own copy
        w = strings_of(families[0])[0]
        doubled = replace(w, coefficient=w.coefficient + w.coefficient)
        families[0] = family_of([doubled] + strings_of(families[0])[1:], families[0].provenance, families[0].origin)
        report = validate_partition(families, n, coeffs)
        assert not report.passed
        assert report.counterexample.startswith(f"{w.string}: ")

    def test_other_hamiltonian_fails(self, built):
        n, coeffs, families = built
        assert not validate_partition(families, n).passed

    @pytest.mark.parametrize("n", [4, 8])
    def test_string_on_another_register_fails_without_raising(self, n):
        # at n <= 6 the dense sum would subtract matrices of different shapes
        family = family_of((WeightedPauliString(ExactComplex(1), parse_pauli("XXIIIIIIII")),))
        report = validate_partition([family], n)
        assert not report.passed
        assert report.counterexample == f"family 0: XXIIIIIIII acts on 10 qubits, not {n}"
        assert "dense_max_deviation" not in report.details

    def test_mixed_registers_fail_without_raising(self):
        # a row of a wider register than its family's fails the family, as in validate_families
        strings = tuple(WeightedPauliString(ExactComplex(1), parse_pauli(t)) for t in ("Z", "ZZ"))
        report = validate_partition([family_of(strings)], 1)
        assert not report.passed
        assert report.counterexample == "family 0: bitmasks out of range for n=1"
        assert "dense_max_deviation" not in report.details


def _clear_kernel_memos() -> None:
    """Empty the JW kernel's side paths and shape tables."""
    fermion._side.cache_clear()
    fermion._shape.cache_clear()


class TestOraclesFail:
    """A fault in what an oracle checks fails its report with a counterexample."""

    def test_jw_dense_check_catches_a_dropped_string(self, monkeypatch):
        expand = oracles.jw_term
        monkeypatch.setattr(oracles, "jw_term", lambda term: expand(term)[1:])
        report = verify_jw_against_matrices(4)
        assert report.passed is False
        assert report.counterexample == "term (0,)/(0,): max deviation 0.5"
        assert report.details["exact_matches"] == 0

    def test_jw_dense_check_is_exact(self, monkeypatch):
        # a float tolerance of 1e-12 would pass an error of 2**-60
        expand = oracles.jw_term

        def off_by_a_little(term):
            first, *rest = expand(term)
            nudged = ExactComplex(first.coefficient.real + Fraction(1, 2**60), first.coefficient.imag)
            return [replace(first, coefficient=nudged), *rest]

        monkeypatch.setattr(oracles, "jw_term", off_by_a_little)
        report = verify_jw_against_matrices(4)
        assert report.passed is False
        assert report.counterexample == f"term (0,)/(0,): max deviation {2.0**-60}"
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
        report = verify_sliding_invariance()
        assert report.passed is False
        assert report.counterexample.endswith("changed parity")
        assert report.details["trials"] == 1

    def test_chain_check_catches_a_commuting_pair(self, monkeypatch):
        monkeypatch.setattr(oracles, "commutes", lambda p, q: True)
        report = verify_anticommuting_chains()
        assert report.passed is False
        assert report.counterexample == "n=1: X and Y commute"

    def test_partition_dense_sum_catches_a_kernel_fault(self, monkeypatch):
        # swapping creation and annihilation changes the compile and the
        # exact reference image alike, so only the dense sum can see it
        # the kernel's memos are cleared before the fault, so it reaches
        # them, and after, so no faulty side or table outlives this test
        ladder = fermion._ladder
        monkeypatch.setattr(fermion, "_ladder", lambda mode, dagger: ladder(mode, not dagger))
        _clear_kernel_memos()
        try:
            report = validate_partition(build_partition(4).families, 4)
            assert report.passed is False
            assert report.counterexample == "dense sum of the families deviates from the Hamiltonian by 4.0"
            assert not verify_jw_against_matrices(4).passed
        finally:
            monkeypatch.undo()
            _clear_kernel_memos()
