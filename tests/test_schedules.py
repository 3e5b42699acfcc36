import numpy as np
import pytest

from fedsim.problems import SpecError
from fedsim.schedules import (
    AveragedIterate,
    InverseDecay,
    NonConvexConstant,
    StronglyConvexDecay,
)


def test_strongly_convex_shift_and_first_step():
    sched = StronglyConvexDecay(mu=1.0, smoothness=1.0, local_steps=1, delay_offset=0.0)
    assert sched.shift == 100.0
    assert sched.eta(1) == pytest.approx(4.0 / 101.0)


def test_strongly_convex_shift_with_delay_offset():
    # max(100, 40 * 5) * (4 / 1)^1.5 = 200 * 8 = 1600
    sched = StronglyConvexDecay(mu=1.0, smoothness=4.0, local_steps=1, delay_offset=5.0)
    assert sched.shift == pytest.approx(1600.0)


def test_strongly_convex_step_cap_holds_for_all_rounds():
    for smoothness in (1.0, 3.0, 10.0):
        for k in (1, 5):
            sched = StronglyConvexDecay(mu=1.0, smoothness=smoothness, local_steps=k, delay_offset=0.0)
            cap = 1.0 / (25.0 * k * smoothness)
            assert sched.eta(1) <= cap + 1e-15
            for t in (1, 10, 1000):
                assert sched.eta(t) <= cap + 1e-15


def test_strongly_convex_decay_is_strictly_monotone():
    sched = StronglyConvexDecay(mu=0.5, smoothness=2.0, local_steps=3, delay_offset=1.0)
    etas = [sched.eta(t) for t in range(1, 50)]
    assert all(a > b > 0 for a, b in zip(etas, etas[1:]))


def test_strongly_convex_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StronglyConvexDecay(mu=2.0, smoothness=1.0, local_steps=1)
    with pytest.raises(ValueError):
        StronglyConvexDecay(mu=1.0, smoothness=1.0, local_steps=0)
    with pytest.raises(ValueError):
        StronglyConvexDecay(mu=1.0, smoothness=1.0, local_steps=1, delay_offset=-1.0)


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"mu": 1e-300}, "mu"),  # (1 / mu)^1.5 is past the largest double
        ({"mu": 1e-205}, "mu"),  # the power is finite, 100 times it is not
        ({"delay_offset": 1e308}, "delay_offset"),  # the shift is inf, every step 0
        ({"mu": 1e10, "smoothness": 1e10, "delay_offset": 1e300}, "delay_offset"),  # finite a, infinite mu K a
    ],
)
def test_strongly_convex_names_the_argument_that_leaves_no_step(kwargs, key):
    with pytest.raises(SpecError) as err:
        StronglyConvexDecay(**{"mu": 1.0, "smoothness": 1.0, "local_steps": 1, **kwargs})
    assert err.value.key == key


def test_nonconvex_constant_formula():
    sched = NonConvexConstant(
        n_devices=10, local_steps=5, horizon=1000, smoothness=2.0, staleness_cap_mean=3.0
    )
    assert sched.eta(1) == pytest.approx(np.sqrt(10.0 / 40000.0))
    assert sched.eta(999) == sched.eta(1)


def test_nonconvex_constant_scale_knob():
    base = NonConvexConstant(n_devices=4, local_steps=2, horizon=100, smoothness=1.0, staleness_cap_mean=0.0)
    half = NonConvexConstant(
        n_devices=4, local_steps=2, horizon=100, smoothness=1.0, staleness_cap_mean=0.0, scale=0.5
    )
    assert half.eta(1) == pytest.approx(0.5 * base.eta(1))
    with pytest.raises(ValueError):
        NonConvexConstant(n_devices=4, local_steps=2, horizon=100, smoothness=1.0, staleness_cap_mean=0.0, scale=1.5)


def test_inverse_decay_formula():
    sched = InverseDecay(eta0=0.1)
    for t in (1, 2, 10, 97):
        assert sched.eta(t) == pytest.approx(0.1 / t)
    with pytest.raises(ValueError):
        InverseDecay(eta0=0.0)


# ---------------------------------------------------------------------------
# averaged iterate
# ---------------------------------------------------------------------------


def test_weights_and_normalizer_small_case():
    # shift 2, rounds 1..3: weights 2, 6, 12, total 20; closed form 9 + 9 + 2
    avg = AveragedIterate(2.0, 1)
    for t, x in [(1, 1.0), (2, 2.0), (3, 3.0)]:
        avg.observe(t, np.array([x]))
    assert avg.weight_total == pytest.approx(20.0)
    assert avg.weight_closed_form() == pytest.approx(20.0)
    assert avg.current()[0] == pytest.approx((2 * 1 + 6 * 2 + 12 * 3) / 20.0)  # = 2.5


def test_constant_sequence_average_is_constant():
    avg = AveragedIterate(100.0, 3)
    v = np.array([1.0, -2.0, 0.5])
    for t in range(1, 50):
        avg.observe(t, v)
        assert np.allclose(avg.current(), v, rtol=1e-13)


@pytest.mark.parametrize("shift", [2.0, 100.0, 1600.0])
@pytest.mark.parametrize("horizon", [1, 10, 1000])
def test_normalizer_closed_form_agreement(shift, horizon):
    avg = AveragedIterate(shift, 1)
    for t in range(1, horizon + 1):
        avg.observe(t, np.zeros(1))
    assert avg.weight_total == pytest.approx(avg.weight_closed_form(), rel=1e-6)


def test_average_invariant_to_uniform_weight_rescaling():
    rng = np.random.default_rng(3)
    ws = [rng.standard_normal(2) for _ in range(20)]
    avg = AveragedIterate(7.0, 2)
    for t, w in enumerate(ws, start=1):
        avg.observe(t, w)
    # rescale all weights by the same factor: the normalized average is unchanged
    scaled_sum = 3.0 * avg.weighted_sum
    scaled_total = 3.0 * avg.weight_total
    assert np.allclose(scaled_sum / scaled_total, avg.current(), rtol=1e-14)


def test_observe_requires_order_and_current_requires_data():
    avg = AveragedIterate(2.0, 1)
    with pytest.raises(ValueError):
        avg.current()
    avg.observe(1, np.zeros(1))
    with pytest.raises(ValueError):
        avg.observe(3, np.zeros(1))
