import numpy as np
import pytest

from kbqa.neural.optim import Adam, SGD, make_optimizer


class TestSGD:
    def test_basic_step(self):
        theta = np.array([1.0])
        SGD(0.1).step(theta, np.array([0.5]))
        assert theta[0] == pytest.approx(0.95, abs=1e-15)

    def test_step_count(self):
        opt = SGD(0.1)
        theta = np.zeros(2)
        for _ in range(3):
            opt.step(theta, np.zeros(2))
        assert opt.step_count == 3

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            SGD(0.0)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        lr = 0.01
        opt = Adam(lr)
        theta = np.array([1.0, 1.0])
        opt.step(theta, np.array([3.0, -0.2]))
        # bias correction makes m_hat/sqrt(v_hat) = sign(g) up to epsilon
        assert theta[0] == pytest.approx(1.0 - lr, rel=1e-6)
        assert theta[1] == pytest.approx(1.0 + lr, rel=1e-6)

    def test_coupled_equals_decoupled_without_decay(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=5)
        runs = {}
        for decoupled in (False, True):
            theta = np.ones(5)
            opt = Adam(0.05, weight_decay=0.0, decoupled=decoupled)
            trajectory = []
            for _ in range(40):
                opt.step(theta, 2.0 * (theta - target))
                trajectory.append(theta.copy())
            runs[decoupled] = trajectory
        for a, b in zip(runs[False], runs[True]):
            assert np.array_equal(a, b)

    def test_coupled_and_decoupled_differ_with_decay(self):
        theta_c = np.full(3, 2.0)
        theta_d = np.full(3, 2.0)
        grad = np.full(3, 0.3)
        Adam(0.05, weight_decay=0.1, decoupled=False).step(theta_c, grad)
        Adam(0.05, weight_decay=0.1, decoupled=True).step(theta_d, grad)
        assert not np.allclose(theta_c, theta_d)

    def test_adam_converges_on_quadratic(self):
        theta = np.array([5.0, -3.0])
        opt = Adam(0.1)
        for _ in range(500):
            opt.step(theta, 2.0 * theta)
        assert np.abs(theta).max() < 1e-3

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            Adam(0.1, weight_decay=-0.1)


class TestFactory:
    @pytest.mark.parametrize(
        "kind,expected",
        [("SGD", "SGD"), ("ADAM_COUPLED", "ADAM_COUPLED"), ("ADAM_DECOUPLED", "ADAM_DECOUPLED")],
    )
    def test_kinds(self, kind, expected):
        assert make_optimizer(kind, 0.1).kind == expected

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_optimizer("RMSPROP", 0.1)
