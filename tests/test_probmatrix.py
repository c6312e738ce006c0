import math

import numpy as np
import pytest

from ppunlearn.errors import ShapeError, TargetError
from ppunlearn.probmatrix import (FLOOR, ProbMatrix, PseudoScheme, class_mass,
                                  dump_probmatrix, kl_div, kl_rows,
                                  load_probmatrix, pseudo_generate,
                                  replace_rows)


class TestProbMatrix:
    def test_floor_and_renormalize(self):
        m = ProbMatrix([[1.0, 0.0], [0.5, 0.5]])
        # flooring happens before the renormalization, so entries sit at the
        # floor up to the normalization factor
        assert m.values.min() >= FLOOR * (1.0 - 1e-9)
        assert np.abs(m.values.sum(axis=1) - 1.0).max() <= 1e-9

    def test_rejects_bad_rows(self):
        with pytest.raises(TargetError):
            ProbMatrix([[0.5, 0.2]])
        with pytest.raises(TargetError):
            ProbMatrix([[1.5, -0.5]])
        with pytest.raises(TargetError):
            ProbMatrix([[np.nan, 1.0]])
        with pytest.raises(ShapeError):
            ProbMatrix([0.5, 0.5])

    def test_registry_defaults_and_mismatch(self):
        m = ProbMatrix([[0.5, 0.5]] * 3)
        assert m.row_ids.tolist() == [0, 1, 2]
        with pytest.raises(ShapeError):
            ProbMatrix([[0.5, 0.5]], row_ids=[0, 1])

    def test_values_are_read_only(self):
        m = ProbMatrix([[0.5, 0.5]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.9


class TestKlDiv:
    def test_identity_is_exactly_zero(self):
        p = ProbMatrix([[0.3, 0.7]]).row(0)
        assert kl_div(p, p) == 0.0

    def test_near_onehot_vs_uniform(self):
        eps = 1e-12
        got = kl_div(np.array([1.0 - eps, eps]), np.array([0.5, 0.5]))
        assert got == pytest.approx(math.log(2.0), abs=1e-9)

    def test_frozen_derived_value(self):
        # 0.3 ln 0.6 + 0.7 ln 1.4, evaluated in extended precision
        expected = 0.08228287850505178
        got = kl_div(np.array([0.3, 0.7]), np.array([0.5, 0.5]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_non_negative_on_random_rows(self, rng):
        for _ in range(200):
            k = rng.integers(2, 6)
            p = ProbMatrix(rng.dirichlet(np.ones(k), size=1)).row(0)
            q = ProbMatrix(rng.dirichlet(np.ones(k), size=1)).row(0)
            assert kl_div(p, q) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kl_div(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))

    def test_kl_rows_matches_scalar(self, rng):
        P = ProbMatrix(rng.dirichlet(np.ones(3), size=5))
        Q = ProbMatrix(rng.dirichlet(np.ones(3), size=5))
        per_row = kl_rows(P, Q)
        for i in range(5):
            assert per_row[i] == pytest.approx(kl_div(P.row(i), Q.row(i)))


class TestPseudoGenerate:
    def test_uniform_rows(self):
        m = pseudo_generate(2, 4, PseudoScheme("uniform"))
        assert np.array_equal(m.values, np.full((2, 4), 0.25))

    def test_random_softmax_deterministic(self):
        a = pseudo_generate(6, 3, PseudoScheme("random-softmax", seed=9))
        b = pseudo_generate(6, 3, PseudoScheme("random-softmax", seed=9))
        assert np.array_equal(a.values, b.values)

    def test_random_softmax_rows_valid(self):
        m = pseudo_generate(50, 4, PseudoScheme("random-softmax", seed=1))
        assert np.abs(m.values.sum(axis=1) - 1.0).max() <= 1e-12
        assert m.values.min() > 0.0
        assert m.values.max() < 1.0

    def test_scheme_seed_rules(self):
        with pytest.raises(ValueError):
            PseudoScheme("random-softmax")
        with pytest.raises(ValueError):
            PseudoScheme("uniform", seed=3)
        with pytest.raises(ValueError):
            PseudoScheme("gaussian")

    def test_invariants_over_many_draws(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(2, 6))
            seed = int(rng.integers(0, 2**31))
            m = pseudo_generate(n, k, PseudoScheme("random-softmax", seed=seed))
            assert m.values.shape == (n, k)
            assert m.values.min() >= FLOOR
            assert np.abs(m.values.sum(axis=1) - 1.0).max() <= 1e-9


class TestClassMass:
    def test_identity_like(self):
        m = ProbMatrix([[1.0, 0.0], [0.0, 1.0]])
        assert class_mass(m) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_uniform_columns(self):
        m = pseudo_generate(4, 2, PseudoScheme("uniform"))
        assert class_mass(m) == pytest.approx([2.0, 2.0], abs=1e-12)

    def test_total_mass_equals_rows(self, rng):
        m = ProbMatrix(rng.dirichlet(np.ones(4), size=17))
        assert class_mass(m).sum() == pytest.approx(17.0, abs=1e-9)

    def test_linearity_under_concatenation(self, rng):
        a = ProbMatrix(rng.dirichlet(np.ones(3), size=5))
        b = ProbMatrix(rng.dirichlet(np.ones(3), size=7))
        both = ProbMatrix(np.vstack([a.values, b.values]))
        assert class_mass(both) == pytest.approx(class_mass(a) + class_mass(b))


class TestReplaceRows:
    def test_empty_index_is_identity(self, rng):
        q = ProbMatrix(rng.dirichlet(np.ones(3), size=4))
        out = replace_rows(q, [], ProbMatrix(np.empty((0, 3))))
        assert np.array_equal(out.values, q.values)

    def test_full_replacement_equals_pseudo(self, rng):
        q = ProbMatrix(rng.dirichlet(np.ones(4), size=3))
        p = pseudo_generate(3, 4, PseudoScheme("uniform"))
        out = replace_rows(q, [0, 1, 2], p)
        assert np.array_equal(out.values, p.values)

    def test_untouched_rows_bitwise(self, rng):
        q = ProbMatrix(rng.dirichlet(np.ones(3), size=5))
        p = pseudo_generate(2, 3, PseudoScheme("random-softmax", seed=5))
        out = replace_rows(q, [1, 3], p)
        for i in (0, 2, 4):
            assert np.array_equal(out.values[i], q.values[i])

    def test_round_trip_restores_bitwise(self, rng):
        q = ProbMatrix(rng.dirichlet(np.ones(3), size=6))
        idx = np.array([0, 2, 5])
        p = pseudo_generate(3, 3, PseudoScheme("random-softmax", seed=11))
        swapped = replace_rows(q, idx, p)
        restored = replace_rows(swapped, idx, q.take(idx))
        assert np.array_equal(restored.values, q.values)

    def test_index_errors(self, rng):
        q = ProbMatrix(rng.dirichlet(np.ones(3), size=4))
        p = pseudo_generate(2, 3, PseudoScheme("uniform"))
        with pytest.raises(IndexError):
            replace_rows(q, [0, 0], p)
        with pytest.raises(IndexError):
            replace_rows(q, [0, 7], p)
        with pytest.raises(ShapeError):
            replace_rows(q, [0], p)

    def test_registry_preserved(self, rng):
        q = ProbMatrix(rng.dirichlet(np.ones(3), size=4), row_ids=[10, 11, 12, 13])
        p = pseudo_generate(1, 3, PseudoScheme("uniform"))
        out = replace_rows(q, [2], p)
        assert out.row_ids.tolist() == [10, 11, 12, 13]


def test_dump_round_trip(tmp_path, rng):
    m = ProbMatrix(rng.dirichlet(np.ones(4), size=9), row_ids=rng.permutation(9))
    path = tmp_path / "probs.pmx"
    dump_probmatrix(m, path)
    back = load_probmatrix(path)
    assert np.array_equal(back.values, m.values)
    assert np.array_equal(back.row_ids, m.row_ids)


class TestLoadValidation:
    @staticmethod
    def dump_raw(path, values, tail=b""):
        """A dump whose payload is ``values`` as given, plus ``tail``."""
        values = np.asarray(values, dtype=np.float64)
        dump_probmatrix(ProbMatrix(np.full(values.shape, 1.0 / values.shape[1])),
                        path)
        data = path.read_bytes()
        header = data[:data.index(b"\n") + 1]
        path.write_bytes(header + values.astype("<f8").tobytes() + tail)

    def test_rows_within_tolerance_load_bitwise(self, tmp_path):
        # the constructor would renormalize these rows; the loader keeps them
        vals = np.array([[0.1, 0.2, 0.7 + 4e-7], [1.0 - 3e-7, 1e-12, 0.0]])
        path = tmp_path / "probs.pmx"
        self.dump_raw(path, vals)
        assert load_probmatrix(path).values.tobytes() == vals.tobytes()

    def test_non_finite_entry_rejected(self, tmp_path):
        path = tmp_path / "probs.pmx"
        for bad in (np.nan, np.inf):
            self.dump_raw(path, [[0.5, 0.5], [bad, 0.5]])
            with pytest.raises(TargetError, match="finite"):
                load_probmatrix(path)

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "probs.pmx"
        self.dump_raw(path, [[0.5, 0.5], [1.25, -0.25]])
        with pytest.raises(TargetError, match="non-negative"):
            load_probmatrix(path)

    def test_row_sum_off_by_more_than_tolerance_rejected(self, tmp_path):
        path = tmp_path / "probs.pmx"
        self.dump_raw(path, [[0.5, 0.5], [0.5, 0.5 + 2e-6]])
        with pytest.raises(TargetError, match="row 1 sums"):
            load_probmatrix(path)

    def test_wrong_byte_count_rejected(self, tmp_path):
        path = tmp_path / "probs.pmx"
        vals = np.full((3, 2), 0.5)
        self.dump_raw(path, vals, tail=b"\x00")
        with pytest.raises(ShapeError, match="payload bytes"):
            load_probmatrix(path)
        self.dump_raw(path, vals)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ShapeError, match="payload bytes"):
            load_probmatrix(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "probs.pmx"
        for header in (b"{\"format\": \"probm", b"[1, 2]",
                       b'{"format": "probmatrix", "n": -1, "k": 2, '
                       b'"row_ids": []}'):
            path.write_bytes(header + b"\n")
            with pytest.raises(ShapeError):
                load_probmatrix(path)
