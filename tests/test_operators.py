import warnings

import numpy as np
import pytest

from minimax_seq import (
    ValidationError,
    decompose,
    make_integration_operator,
    reconstruct,
    to_sequence,
)
from minimax_seq.operators import (
    load_matrix_bin,
    load_matrix_csv,
    save_matrix_bin,
    save_matrix_csv,
)


class TestDecompose:
    def test_identity(self):
        model = decompose(np.eye(3))
        np.testing.assert_allclose(model.singular_values, np.ones(3))
        assert model.rank == 3
        assert model.kernel_dim == 0

    def test_diagonal(self):
        model = decompose(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(model.singular_values, [3.0, 2.0, 1.0])
        # axis-aligned singular vectors, positive under the sign convention
        np.testing.assert_allclose(np.abs(model.right), np.eye(3), atol=1e-14)
        assert np.all(model.right[model.right != 0] > 0)

    def test_reconstruction_identity(self, rng):
        m = rng.standard_normal((12, 7))
        model = decompose(m)
        approx = (model.left * model.singular_values) @ model.right.T
        assert np.linalg.norm(m - approx) <= 1e-10 * np.linalg.norm(m)

    def test_sign_convention_deterministic(self, rng):
        m = rng.standard_normal((9, 9))
        a = decompose(m)
        b = decompose(m.copy())
        np.testing.assert_array_equal(a.right, b.right)
        np.testing.assert_array_equal(a.left, b.left)
        for j in range(a.rank):
            col = a.right[:, j]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_integration_operator_power_decay(self):
        sv = decompose(make_integration_operator(64)).singular_values
        j = np.arange(1, 65, dtype=float)
        slope = np.polyfit(np.log(j), np.log(sv), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_rank_deficiency_detected(self):
        m = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        model = decompose(m)
        assert model.rank == 1
        assert model.kernel_dim == 1

    def test_residual_check_holds_where_the_norm_overflows(self, monkeypatch):
        # ||T|| is about 2e308, past the largest double
        m = np.array([[1e308, 1e308], [1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decompose(m).rank == 2
            svd = np.linalg.svd

            def wrong(a, full_matrices=True):
                u, s, vt = svd(a, full_matrices=full_matrices)
                return u, s * np.array([1.0, 0.5]), vt

            monkeypatch.setattr(np.linalg, "svd", wrong)
            with pytest.raises(ValidationError, match="SVD reconstruction residual"):
                decompose(m)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            decompose(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestSequenceMapping:
    def test_noiseless_inversion(self, rng):
        t = make_integration_operator(32)
        model = decompose(t)
        x = rng.standard_normal(32)
        z = to_sequence(t @ x, model)
        want = model.right.T @ x
        np.testing.assert_allclose(z, want, rtol=0, atol=1e-10)

    def test_overflowing_coefficient_names_its_singular_value(self):
        # y is finite and z_1 = 1e300 is too, but <y, u_2>/s_2 = 1e320 overflows
        model = decompose(np.diag([1e-310, 1e-320]))
        with pytest.raises(ValidationError) as info:
            to_sequence(np.array([1e-10, 1.0]), model)
        assert str(info.value) == ("observations must be finite: "
                                   "<y, u_2>/s_2 overflows (s_2 = 1e-320)")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_is_named_as_such(self, bad):
        model = decompose(np.eye(2))
        with pytest.raises(ValidationError) as info:
            to_sequence(np.array([1.0, bad]), model)
        assert str(info.value) == "observations must be finite"

    def test_basis_image(self):
        model = decompose(make_integration_operator(8))
        z = to_sequence(model.left[:, 0], model)
        want = np.zeros(8)
        want[0] = 1.0 / model.singular_values[0]
        np.testing.assert_allclose(z, want, atol=1e-12)

    def test_noise_amplification(self, rng):
        # white ambient noise becomes coordinate noise with std sigma/s_j
        t = make_integration_operator(8)
        model = decompose(t)
        sigma = 0.3
        draws = np.empty((10_000, 8))
        for r in range(draws.shape[0]):
            draws[r] = to_sequence(sigma * rng.standard_normal(8), model)
        got = draws.std(axis=0, ddof=1)
        want = sigma / model.singular_values
        assert np.all(np.abs(got - want) <= 4.0 * want / np.sqrt(draws.shape[0]))


class TestReconstruct:
    def test_zero_level(self):
        model = decompose(make_integration_operator(8))
        np.testing.assert_array_equal(reconstruct(np.ones(8), model, 0),
                                      np.zeros(8))

    def test_full_rank_recovery(self, rng):
        t = make_integration_operator(64)
        model = decompose(t)
        x = np.sin(np.linspace(0.0, 2.0, 64))
        got = reconstruct(t @ x, model, model.rank)
        assert np.linalg.norm(got - x) <= 1e-8 * np.linalg.norm(x)

    def test_cokernel_projection_for_deficient_rank(self, rng):
        m = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        model = decompose(m)
        x = rng.standard_normal(2)
        got = reconstruct(m @ x, model, model.rank)
        v1 = model.right[:, 0]
        np.testing.assert_allclose(got, v1 * (v1 @ x), atol=1e-12)

    def test_equals_sequence_expansion(self, rng):
        model = decompose(make_integration_operator(16))
        y = rng.standard_normal(16)
        z = to_sequence(y, model)
        for d in (1, 5, 16):
            want = model.right[:, :d] @ z[:d]
            np.testing.assert_array_equal(reconstruct(y, model, d), want)

    def test_level_beyond_rank_rejected(self):
        model = decompose(make_integration_operator(8))
        with pytest.raises(ValidationError):
            reconstruct(np.ones(8), model, 9)

    @pytest.mark.parametrize("level", [2.5, True, "2"])
    def test_level_must_be_an_integer(self, level):
        # 2.5 raised a bare TypeError, and True cut at D = 1
        model = decompose(make_integration_operator(8))
        with pytest.raises(ValidationError, match=r"^D must be an integer, got "):
            reconstruct(np.ones(8), model, level)

    def test_integer_level_of_any_type_keeps_its_value(self):
        model = decompose(make_integration_operator(8))
        np.testing.assert_array_equal(reconstruct(np.ones(8), model, np.int64(3)),
                                      reconstruct(np.ones(8), model, 3))


class TestIntegrationOperator:
    def test_smallest_case(self):
        np.testing.assert_array_equal(make_integration_operator(2),
                                      [[0.5, 0.0], [0.5, 0.5]])

    def test_row_sums(self):
        t = make_integration_operator(5)
        np.testing.assert_allclose(t.sum(axis=1), np.arange(1, 6) / 5.0)

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            make_integration_operator(1)


class TestMatrixIO:
    def test_csv_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((5, 3))
        path = str(tmp_path / "m.csv")
        save_matrix_csv(m, path)
        np.testing.assert_array_equal(load_matrix_csv(path), m)

    def test_binary_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((7, 4))
        path = str(tmp_path / "m.bin")
        save_matrix_bin(m, path)
        np.testing.assert_array_equal(load_matrix_bin(path), m)

    def test_binary_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(ValidationError, match="magic"):
            load_matrix_bin(str(path))

    def test_binary_truncation_detected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"MSEQ1" + (2).to_bytes(4, "little")
                         + (2).to_bytes(4, "little") + b"\x00" * 8)
        with pytest.raises(ValidationError, match="truncated"):
            load_matrix_bin(str(path))
