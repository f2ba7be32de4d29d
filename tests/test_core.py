import numpy as np
import pytest

from mmi_lab import (CoincidenceDistribution, coincidence_classical,
                     coincidence_mixture, coincidence_quantum, fit_visibility,
                     fock_oracle, random_unitary, renormalization_magnitude,
                     similarity)
from mmi_lab.core import (DegenerateDistributionError, ModeIndexError,
                          TwoPhotonState, cross_pair_index, mode_pairs, pair_index)


class TestCoincidenceTables:
    def test_splitter_hom_dip(self, splitter):
        q = coincidence_quantum(splitter, 0, 1, renormalized=False)
        assert q[(0, 1)] == pytest.approx(0.0, abs=1e-15)
        assert q[(0, 0)] == pytest.approx(0.5)
        assert q[(1, 1)] == pytest.approx(0.5)

    def test_identity_single_outcome(self, identity4):
        q = coincidence_quantum(identity4, 0, 1, renormalized=False)
        assert q[(0, 1)] == pytest.approx(1.0)
        assert q.values.sum() == pytest.approx(1.0)

    def test_chip_same_detector_entry(self, chip):
        q = coincidence_quantum(chip, 0, 1, renormalized=False)
        assert q[(0, 0)] == pytest.approx(2 * (0.28 * 0.41) ** 2, abs=1e-12)

    def test_splitter_classical(self, splitter):
        c = coincidence_classical(splitter, 0, 1, renormalized=False)
        assert c[(0, 1)] == pytest.approx(0.5)
        assert c[(0, 0)] == pytest.approx(0.25)
        assert c[(1, 1)] == pytest.approx(0.25)

    def test_identity_classical(self, identity4):
        c = coincidence_classical(identity4, 0, 1, renormalized=False)
        assert c[(0, 1)] == pytest.approx(1.0)

    def test_chip_same_detector_ratio_is_exactly_two(self, chip):
        q = coincidence_quantum(chip, 0, 1, renormalized=False)
        c = coincidence_classical(chip, 0, 1, renormalized=False)
        assert q[(0, 0)] / c[(0, 0)] == 2.0

    def test_same_detector_ratio_all_pairs_and_random(self, chip, rng):
        mats = [chip] + [random_unitary(4, rng) for _ in range(5)]
        for mat in mats:
            for i in range(4):
                for j in range(i + 1, 4):
                    q = coincidence_quantum(mat, i, j, renormalized=False)
                    c = coincidence_classical(mat, i, j, renormalized=False)
                    for k in range(4):
                        if c[(k, k)] > 0:
                            assert q[(k, k)] / c[(k, k)] == 2.0

    def test_unitary_tables_sum_to_one(self, rng):
        for n in (2, 3, 4):
            u = random_unitary(n, rng)
            q = coincidence_quantum(u, 0, 1, renormalized=False)
            c = coincidence_classical(u, 0, 1, renormalized=False)
            assert q.values.sum() == pytest.approx(1.0, abs=1e-12)
            assert c.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_hom_dip_for_phased_balanced_splitters(self, rng):
        # any balanced 2x2 unitary suppresses cross coincidences exactly
        from mmi_lab import TransferMatrix
        for _ in range(20):
            a, b = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            bal = TransferMatrix(np.array([[a, b], [np.conj(b), -np.conj(a)]]) / np.sqrt(2))
            q = coincidence_quantum(bal, 0, 1, renormalized=False)
            assert q[(0, 1)] == pytest.approx(0.0, abs=1e-12)

    def test_renormalization_magnitude(self, chip):
        # non-unitarity of the measured matrix: average correction ~1.9%
        assert renormalization_magnitude(chip) == pytest.approx(0.019, abs=0.005)

    def test_renormalized_tables_sum_to_one(self, chip):
        q = coincidence_quantum(chip, 0, 1, renormalized=True)
        assert q.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert q.renormalized

    def test_degenerate_distribution_raises(self):
        from mmi_lab import TransferMatrix
        m = TransferMatrix(np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=complex))
        with pytest.raises(DegenerateDistributionError):
            coincidence_quantum(m, 0, 1, renormalized=True)


class TestMixture:
    def test_endpoints(self, chip):
        q = coincidence_quantum(chip, 0, 1)
        c = coincidence_classical(chip, 0, 1)
        r1 = coincidence_mixture(chip, 0, 1, 1.0)
        r0 = coincidence_mixture(chip, 0, 1, 0.0)
        assert np.allclose(r1.values, q.values)
        assert np.allclose(r0.values, c.values)

    def test_interior_point(self, chip):
        v = 0.708
        q = coincidence_quantum(chip, 0, 1)
        c = coincidence_classical(chip, 0, 1)
        r = coincidence_mixture(chip, 0, 1, v)
        assert np.allclose(r.values, v * q.values + (1 - v) * c.values)

    def test_out_of_range(self, chip):
        with pytest.raises(ValueError):
            coincidence_mixture(chip, 0, 1, 1.2)


class TestFockOracle:
    def test_identity_matches_closed_form(self, identity4):
        q = coincidence_quantum(identity4, 0, 1, renormalized=False)
        o = fock_oracle(identity4, 0, 1)
        assert np.abs(o.values - q.values).max() < 1e-15

    def test_random_unitaries_match_both_forms(self, rng):
        for n in (2, 3, 4):
            for _ in range(20):
                u = random_unitary(n, rng)
                for i in range(n):
                    for j in range(i + 1, n):
                        q = coincidence_quantum(u, i, j, renormalized=False)
                        c = coincidence_classical(u, i, j, renormalized=False)
                        assert np.abs(fock_oracle(u, i, j).values - q.values).max() <= 1e-12
                        assert np.abs(fock_oracle(u, i, j, True).values - c.values).max() <= 1e-12

    def test_splitter_distinguishable(self, splitter):
        c = coincidence_classical(splitter, 0, 1, renormalized=False)
        o = fock_oracle(splitter, 0, 1, distinguishable=True)
        assert np.abs(o.values - c.values).max() < 1e-15

    def test_non_unitary_matrix_pre_normalisation(self, chip):
        q = coincidence_quantum(chip, 0, 1, renormalized=False)
        assert np.abs(fock_oracle(chip, 0, 1).values - q.values).max() <= 1e-12


class TestTwoPhotonState:
    def test_normalised_after_unitary_evolution(self, rng):
        u = random_unitary(3, rng)
        state = TwoPhotonState.from_input_pair(3, 0, 2).evolve(u)
        assert state.pair_probabilities().sum() == pytest.approx(1.0, abs=1e-12)

    def test_superposition_evolution_is_linear(self, rng):
        u = random_unitary(3, rng)
        a = TwoPhotonState.from_input_pair(3, 0, 1)
        b = TwoPhotonState.from_input_pair(3, 1, 2)
        combo = TwoPhotonState(3, (a.amplitudes + b.amplitudes) / np.sqrt(2))
        lhs = combo.evolve(u).amplitudes
        rhs = (a.evolve(u).amplitudes + b.evolve(u).amplitudes) / np.sqrt(2)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_rejects_single_mode_pair(self):
        with pytest.raises(ModeIndexError):
            TwoPhotonState.from_input_pair(4, 2, 2)

    @pytest.mark.parametrize("pair", [(0, 4), (-1, 2), (2, -1)])
    def test_rejects_out_of_range_pair(self, pair):
        with pytest.raises(ModeIndexError):
            TwoPhotonState.from_input_pair(4, *pair)

    def test_input_pair_slot(self):
        for i, j in [(0, 1), (2, 0), (1, 3)]:
            amps = TwoPhotonState.from_input_pair(4, i, j).amplitudes
            assert np.flatnonzero(amps).tolist() == [mode_pairs(4).index((min(i, j), max(i, j)))]


class TestVisibilityFit:
    def test_exact_quantum_counts(self, chip):
        q = coincidence_quantum(chip, 0, 1)
        meas = CoincidenceDistribution(4, q.values * 5000)
        v, s = fit_visibility(meas, chip, 0, 1)
        assert v == pytest.approx(1.0)
        assert s == pytest.approx(1.0, abs=1e-9)

    def test_exact_classical_counts(self, chip):
        c = coincidence_classical(chip, 0, 1)
        meas = CoincidenceDistribution(4, c.values * 5000)
        v, s = fit_visibility(meas, chip, 0, 1)
        assert v == pytest.approx(0.0)
        assert s == pytest.approx(1.0, abs=1e-9)

    def test_multinomial_resampling_recovers_v(self, chip):
        rng = np.random.default_rng(314)
        r = coincidence_mixture(chip, 0, 1, 0.7)
        counts = rng.multinomial(100_000, r.values / r.values.sum()).astype(float)
        v, _ = fit_visibility(CoincidenceDistribution(4, counts), chip, 0, 1)
        assert v == pytest.approx(0.70, abs=0.02)

    def test_empty_counts_rejected(self, chip):
        with pytest.raises(ValueError):
            fit_visibility(CoincidenceDistribution(4, np.zeros(10)), chip, 0, 1)


class TestDistributionContainer:
    def test_pair_count_for_four_modes(self, chip):
        q = coincidence_quantum(chip, 0, 1)
        assert len(q.pairs) == 10
        assert len(q.cross_only().pairs) == 6
        assert q.same_detector_values().shape == (4,)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_pair_index_follows_mode_pairs(self, n):
        pairs = mode_pairs(n)
        assert [pair_index(k, l, n) for k, l in pairs] == list(range(len(pairs)))
        k, l = np.array(pairs).T
        assert pair_index(k, l, n).tolist() == list(range(len(pairs)))

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_cross_pair_index_follows_cross_pairs(self, n):
        cross = CoincidenceDistribution(n, np.zeros(n * (n + 1) // 2)).cross_only().pairs
        k, l = np.array(cross).T
        assert cross_pair_index(k, l, n).tolist() == list(range(len(cross)))

    def test_getitem_matches_pair_order(self):
        full = CoincidenceDistribution(4, np.arange(10.0))
        cross = full.cross_only()
        for idx, pair in enumerate(full.pairs):
            assert full[pair] == full[pair[::-1]] == idx
        for idx, pair in enumerate(cross.pairs):
            assert cross[pair] == cross[pair[::-1]] == cross.values[idx]

    @pytest.mark.parametrize("pair", [(0, 4), (-1, 2), (4, 4)])
    def test_getitem_rejects_foreign_pairs(self, pair):
        with pytest.raises(ValueError):
            CoincidenceDistribution(4, np.zeros(10))[pair]

    def test_cross_only_has_no_same_detector_entry(self):
        with pytest.raises(ValueError):
            CoincidenceDistribution(4, np.zeros(10)).cross_only()[(2, 2)]

    def test_dict_round_trip(self, chip):
        q = coincidence_quantum(chip, 0, 1)
        d = q.as_dict()
        assert set(d) == {f"{k},{l}" for k in range(1, 5) for l in range(k, 5)}

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            CoincidenceDistribution(4, np.full(10, -1.0))


def test_similarity_bound_between_predictions(chip):
    q = coincidence_quantum(chip, 0, 1).cross_only()
    c = coincidence_classical(chip, 0, 1).cross_only()
    assert similarity(q.values, c.values) == pytest.approx(0.901, abs=0.003)
