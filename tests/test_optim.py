import numpy as np

from hjbctrl import optim


def test_adam_first_step_matches_hand_formula():
    p = [np.array([1.0, -2.0])]
    g = [np.array([0.5, 0.5])]
    adam = optim.Adam(p)
    out = adam.step(p, g, lr=0.1)
    # after bias correction the first step is lr * g / (|g| + eps)
    want = p[0] - 0.1 * g[0] / (np.abs(g[0]) + 1e-8)
    assert np.allclose(out[0], want, atol=1e-12)


def test_adam_zero_gradient_is_identity():
    p = [np.ones((3, 2))]
    adam = optim.Adam(p)
    out = adam.step(p, [np.zeros((3, 2))], lr=0.1)
    assert np.array_equal(out[0], p[0])


def test_adam_deterministic():
    rng = np.random.default_rng(0)
    p0 = [rng.normal(size=(4,)), rng.normal(size=(2, 2))]
    gs = [rng.normal(size=(4,)), rng.normal(size=(2, 2))]

    def run():
        adam = optim.Adam(p0)
        p = [a.copy() for a in p0]
        for _ in range(10):
            p = adam.step(p, gs, lr=0.01)
        return p

    a, b = run(), run()
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_step_decay_schedule():
    s = optim.step_decay(1e-3, 0.5, every=100)
    assert s(0) == 1e-3
    assert s(99) == 1e-3
    assert s(100) == 5e-4
    assert s(250) == 2.5e-4


def test_exponential_schedule_hits_final():
    s = optim.exponential_to(0.01, 1e-4, total_steps=500)
    assert np.isclose(s(0), 0.01)
    assert np.isclose(s(499), 1e-4)
    assert s(100) < s(50)


def test_exponential_schedule_degenerate():
    s = optim.exponential_to(0.01, 1e-4, total_steps=1)
    assert s(0) == 0.01


def test_adam_moments_of_float32_gradients_stay_in_the_parameters_dtype():
    # the square of a float32 gradient above ~1.8e19 overflows float32
    p = [np.array([1.0, -2.0])]
    g = np.array([3e20, -0.5])
    out32 = optim.Adam(p).step(p, [g.astype(np.float32)], lr=0.1)
    out64 = optim.Adam(p).step(p, [g.astype(np.float32).astype(np.float64)], lr=0.1)
    assert out32[0].dtype == np.float64
    assert np.array_equal(out32[0], out64[0])
