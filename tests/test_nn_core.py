import numpy as np
import pytest

from denguecast.errors import ValidationError
from denguecast.nn_core import (
    Adam,
    Parameter,
    derive_seed,
    dropout,
    dropout_mask,
    l2_penalty,
    load_params,
    make_rng,
    mse,
    relu,
    save_params,
    sigmoid,
    zero_grads,
)

from gradcheck import grad_check


def _ref_sigmoid(x):
    """The masked two-branch sigmoid that the branch-free one replaced."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestActivations:
    def test_relu_values(self):
        out = relu(np.array([-1.0, 2.0]))
        assert out[0] == 0.0 and out[1] == 2.0

    def test_sigmoid_center(self):
        assert float(sigmoid(np.array([0.0]))[0]) == 0.5

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-300)
        assert out[1] == pytest.approx(1.0)

    def test_sigmoid_bits_match_masked_branches(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, 709.0, -709.0,
                            745.0, -745.0, -746.0])
        grid = make_rng(5).normal(size=(37, 41)) * np.logspace(-3, 2.5, 41)
        for x in (special, grid):
            bits = sigmoid(x).view(np.int64)
            assert np.all(bits == _ref_sigmoid(x).view(np.int64))


class TestDropout:
    def test_rate_zero_identity(self):
        x = make_rng(0).normal(size=(4, 5))
        y, keep = dropout(x, 0.0, make_rng(1))
        assert np.array_equal(y, x)
        assert keep.dtype == bool and keep.shape == x.shape and keep.all()

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_rebuilt_mask_is_the_float_mask_bit_for_bit(self, rate):
        # the float mask dropout returned before it returned keep: all ones at
        # rate 0, else the survivors of the same draw scaled by 1/(1-rate)
        x = make_rng(0).normal(size=(40, 50))
        if rate == 0.0:
            old = np.ones_like(x)
        else:
            old = (make_rng(1).random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
        y, keep = dropout(x, rate, make_rng(1))
        assert dropout_mask(keep, rate).tobytes() == old.tobytes()
        assert y.tobytes() == (x * old).tobytes()

    def test_drop_fraction(self):
        x = np.ones((1000, 100))
        y, _ = dropout(x, 0.2, make_rng(3))
        zero_frac = np.mean(y == 0.0)
        assert abs(zero_frac - 0.2) < 0.01

    def test_expectation_preserved(self):
        x = np.ones((1000, 100))
        y, _ = dropout(x, 0.2, make_rng(4))
        assert abs(np.mean(y) - 1.0) < 0.01


class TestMse:
    def test_equal_vectors(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert mse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(12.5, abs=1e-12)

    def test_against_loop_oracle(self):
        rng = make_rng(11)
        a = rng.normal(size=100)
        p = rng.normal(size=100)
        expected = sum((a[i] - p[i]) ** 2 for i in range(100)) / 100
        assert mse(a, p) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = make_rng(12)
        for _ in range(20):
            assert mse(rng.normal(size=8), rng.normal(size=8)) >= 0.0


class TestL2Penalty:
    def test_zero_lambda_untouched(self):
        p = Parameter("w", [[3.0]])
        l2_penalty([p], 0.0)
        assert p.grad is None

    def test_hand_value(self):
        p = Parameter("w", [[3.0]])
        p.zero_grad()
        l2_penalty([p], 0.1)
        assert p.grad[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_biases_excluded(self):
        b = Parameter("b", [5.0], is_bias=True)
        b.zero_grad()
        l2_penalty([b], 0.5)
        assert np.all(b.grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(5)
        p = Parameter("w", rng.normal(size=(3, 2)))
        lam = 0.3

        def loss_and_grads():
            # the penalty lambda*sum(w^2), whose gradient l2_penalty adds
            p.zero_grad()
            l2_penalty([p], lam)
            return lam * float(np.sum(p.value * p.value))

        assert grad_check(loss_and_grads, [p], eps=1e-6) < 1e-7


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = Parameter("w", [1.5])
        p.zero_grad()
        Adam(lr=0.1).step([p])
        assert p.value[0] == 1.5

    def test_first_step_hand_value(self):
        # m_hat = g, v_hat = g^2 at t=1, so the step is -lr * g/(|g| + eps)
        p = Parameter("w", [0.0])
        p.zero_grad()
        p.grad[0] = 1.0
        Adam(lr=0.1).step([p])
        assert p.value[0] == pytest.approx(-0.1, abs=1e-8)

    def test_two_steps_hand_value_where_eps_matters(self):
        # |g| = eps = 1e-8, so eps added to the root halves each step, where
        # eps added under it (sqrt(1e-16 + 1e-8) ~ 1e-4) would shrink it 5,000x.
        # Step 1, g = 1e-8: m_hat = g, v_hat = g^2, so w = -lr * g / (2 g) = -lr/2.
        # Step 2, g = -1e-8: m_hat = (0.09 - 0.1) 1e-8 / 0.19 = -1e-8 / 19 and
        # v_hat = 0.001 (0.999 + 1) 1e-16 / (1 - 0.999^2) = 1e-16, so the step
        # is +lr / 38 and w = -lr/2 + lr/38 = -9 lr / 19.
        p = Parameter("w", [0.0])
        opt = Adam(lr=0.1)
        for g, want in ((1e-8, -0.05), (-1e-8, -0.9 / 19)):
            p.zero_grad()
            p.grad[0] = g
            opt.step([p])
            assert p.value[0] == pytest.approx(want, rel=1e-12)

    def test_bit_identical_runs(self):
        def run():
            rng = make_rng(9)
            p = Parameter("w", rng.normal(size=(4, 4)))
            opt = Adam(lr=0.01)
            for _ in range(25):
                p.zero_grad()
                p.grad += 2.0 * p.value
                opt.step([p])
            return p.value.tobytes()

        assert run() == run()


class TestGradCheck:
    def test_linear_model_exact(self):
        rng = make_rng(21)
        w = Parameter("w", rng.normal(size=(1, 3)))
        x = rng.normal(size=3)
        target = 2.0

        def loss_and_grads():
            w.zero_grad()
            pred = float((w.value @ x)[0])
            w.grad += 2.0 * (pred - target) * x[None, :]
            return (pred - target) ** 2

        assert grad_check(loss_and_grads, [w], eps=1e-6) < 1e-9

    def test_detects_corrupted_gradient(self):
        rng = make_rng(22)
        w = Parameter("w", rng.normal(size=(1, 3)))
        x = rng.normal(size=3)

        def loss_and_grads():
            w.zero_grad()
            pred = float((w.value @ x)[0])
            w.grad += 2.0 * pred * x[None, :]
            w.grad[0, 0] += 0.1  # injected fault
            return pred**2

        assert grad_check(loss_and_grads, [w], eps=1e-6) > 1e-2

    def test_nonfinite_loss(self):
        w = Parameter("w", [1.0])

        def bad():
            w.zero_grad()
            return float("nan")

        with pytest.raises(ValidationError, match="non-finite loss nan"):
            grad_check(bad, [w])


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = make_rng(33)
        params = [
            Parameter("layer0.W", rng.normal(size=(4, 3))),
            Parameter("layer0.b", rng.normal(size=4), is_bias=True),
        ]
        path = tmp_path / "snap.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert [p.name for p in loaded] == ["layer0.W", "layer0.b"]
        assert loaded[1].is_bias
        for a, b in zip(params, loaded):
            assert np.array_equal(a.value, b.value)

    def test_deterministic_bytes(self, tmp_path):
        params = [Parameter("w", np.arange(6, dtype=float).reshape(2, 3))]
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_params(params, p1)
        save_params(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 16)
        with pytest.raises(ValidationError):
            load_params(path)

    def test_repeated_name(self, tmp_path):
        path = tmp_path / "snap.bin"
        save_params([Parameter("w", np.zeros(2)), Parameter("w", np.ones(2))], path)
        with pytest.raises(ValidationError, match=r"snap.bin: parameter w repeats"):
            load_params(path)

    def test_shape_beyond_the_file_ends_early(self, tmp_path):
        # a u32 dimension of 2**32 - 1 would ask for 32 GiB of values
        path = tmp_path / "snap.bin"
        save_params([Parameter("w", np.zeros(2))], path)
        data = bytearray(path.read_bytes())
        data[17:21] = b"\xff\xff\xff\xff"  # magic 8, count 4, name 2 + 1, bias, ndim
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="snapshot ends early"):
            load_params(path)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).normal(size=10)
        b = make_rng(123).normal(size=10)
        assert np.array_equal(a, b)

    def test_derive_seed_stable_and_distinct(self):
        s1 = derive_seed(5, "dropout")
        assert s1 == derive_seed(5, "dropout")
        assert s1 != derive_seed(5, "init")
        assert s1 != derive_seed(6, "dropout")
        assert 0 <= s1 < 2**63
