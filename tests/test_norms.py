"""Unit tests for the normalizers, against hand-worked values.

The single-row example used throughout: z = [2, -1], mu = [1, 0],
sigma = [2, 1] (tau chosen so softplus(tau) hits those exactly), m = 0.3.
Then zhat = [0.5, -1], out = 0.7 * zhat + 0.3 * z = [0.95, -1.0], and with
incoming gradient [1, 1]:

    grad_z   = [0.7/2 + 0.3, 0.7/1 + 0.3]         = [0.65, 1.0]
    grad_mu  = [-0.7/2, -0.7/1]                   = [-0.35, -0.7]
    grad_tau = [-0.7*1/4 * (1 - e^-2), 0.7 * (1 - 1/e)]
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fin_equity import (
    BatchNormState,
    FinParams,
    NormKind,
    ValidationError,
    softplus,
    softplus_grad,
)
from reference_fixtures import add_at_fin_backward, max_rel_err, numeric_grad


def test_softplus_reference_points():
    assert softplus(0.0) == pytest.approx(math.log(2.0))
    assert softplus(math.log(math.e - 1.0)) == pytest.approx(1.0)
    assert softplus(800.0) == 800.0  # no overflow
    assert softplus(-50.0) > 0.0


def test_softplus_grad_is_sigmoid():
    for t in (-800.0, -3.0, 0.0, 2.5, 800.0):
        expected = 1.0 / (1.0 + math.exp(-t)) if abs(t) < 700 else float(t > 0)
        assert softplus_grad(t) == pytest.approx(expected, abs=1e-12)
    # matches the slope of softplus itself
    ts = np.linspace(-6, 6, 25)
    h = 1e-6
    numeric = (softplus(ts + h) - softplus(ts - h)) / (2 * h)
    assert np.allclose(softplus_grad(ts), numeric, atol=1e-9)


def two_branch_softplus_grad(t):
    """The sigmoid with one divide in each branch of the where."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 745.0, -745.0]


@given(st.lists(st.floats(), max_size=60))
def test_softplus_grad_has_the_two_branch_bits(values):
    t = np.array(values + EDGES)
    assert softplus_grad(t).tobytes() == two_branch_softplus_grad(t).tobytes()
    stack = np.resize(t, (2, 3, 16))  # a seed stack of (groups, dim) taus
    assert softplus_grad(stack).tobytes() == two_branch_softplus_grad(stack).tobytes()


def hand_params(m=0.3):
    tau = [[math.log(math.e**2 - 1.0), math.log(math.e - 1.0)]]  # sigma [2, 1]
    return FinParams(mu=np.array([[1.0, 0.0]]), tau=np.array(tau), momentum=m)


def norm_forward(norm, z, attrs=None, training=True):
    """One forward through the object: its rows, then its kernel."""
    z = np.array(z, dtype=np.float64)
    return norm.forward(z, norm.rows(attrs, z.shape[-2], training), training)


def norm_backward(norm, grad, saved):
    """grad_z and the object's parameter gradients, in `names` order."""
    grads = {f"norm.{name}": np.empty(getattr(norm, name).shape) for name in norm.names}
    grad_z = norm.backward(np.asarray(grad, dtype=np.float64), saved, grads)
    return (grad_z, *grads.values())


def test_fin_forward_hand_example():
    params = hand_params()
    out, saved = norm_forward(params, [[2.0, -1.0]], np.array([0]))
    assert np.allclose(out, [[0.95, -1.0]], atol=1e-12)
    assert np.allclose(params.sigma(), [[2.0, 1.0]], atol=1e-12)
    assert saved[0] == 0.3  # the blend weight the backward pass uses


def test_fin_backward_hand_example():
    params = hand_params()
    _, saved = norm_forward(params, [[2.0, -1.0]], np.array([0]))
    grad_z, grad_mu, grad_tau = norm_backward(params, [[1.0, 1.0]], saved)
    assert np.allclose(grad_z, [[0.65, 1.0]], atol=1e-12)
    assert np.allclose(grad_mu, [[-0.35, -0.7]], atol=1e-12)
    expected_tau = [
        -0.175 * (1.0 - math.exp(-2.0)),
        0.7 * (1.0 - 1.0 / math.e),
    ]
    assert np.allclose(grad_tau, [expected_tau], atol=1e-12)


def test_fin_groups_accumulate_and_absent_groups_stay_zero():
    rng = np.random.default_rng(0)
    params = FinParams(
        mu=rng.standard_normal((3, 4)),
        tau=rng.standard_normal((3, 4)),
        momentum=0.3,
    )
    z = rng.standard_normal((6, 4))
    attrs = np.array([0, 0, 2, 2, 2, 0])  # group 1 absent
    out, saved = norm_forward(params, z, attrs)
    g = rng.standard_normal((6, 4))
    _, grad_mu, grad_tau = norm_backward(params, g, saved)
    assert np.all(grad_mu[1] == 0.0)  # exact zeros, not small numbers
    assert np.all(grad_tau[1] == 0.0)
    # group sums equal the per-row contributions added up
    sigma = params.sigma()
    rows = np.flatnonzero(attrs == 2)
    manual = (-g[rows] * 0.7 / sigma[2]).sum(axis=0)
    assert np.allclose(grad_mu[2], manual, atol=1e-12)


@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["2-D", "stack-of-1", "stacked"])
@pytest.mark.parametrize("m", [0.0, 0.3, 1.0])
def test_fin_backward_equals_the_add_at_reference_bitwise(lead, m):
    rng = np.random.default_rng(23)
    params = FinParams(
        mu=rng.standard_normal(lead + (4, 5)),
        tau=rng.standard_normal(lead + (4, 5)),
        momentum=m,
    )
    batch = 40
    attrs = rng.choice([0, 2, 3], size=batch)  # group 1 absent
    _, saved = norm_forward(params, rng.standard_normal(lead + (batch, 5)), attrs)
    g = rng.standard_normal(lead + (batch, 5))
    g[..., attrs == 3, :] = 0.0  # group 3 sums only -0.0 terms, to +0.0
    got = norm_backward(params, g, saved)
    want = add_at_fin_backward(g, saved)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_momentum_one_is_bitwise_identity():
    rng = np.random.default_rng(1)
    params = FinParams(
        mu=rng.standard_normal((2, 5)),
        tau=rng.standard_normal((2, 5)),
        momentum=1.0,
    )
    z = rng.standard_normal((7, 5))
    attrs = rng.integers(0, 2, size=7)
    out, saved = norm_forward(params, z, attrs)
    assert np.array_equal(out, z)
    g = rng.standard_normal((7, 5))
    grad_z, grad_mu, grad_tau = norm_backward(params, g, saved)
    assert np.array_equal(grad_z, g)
    assert not grad_mu.any() and not grad_tau.any()


def test_momentum_zero_is_pure_normalization():
    params = hand_params(m=0.0)
    out, _ = norm_forward(params, [[2.0, -1.0]], np.array([0]))
    assert np.allclose(out, [[0.5, -1.0]], atol=1e-12)


def test_fin_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    mu = rng.standard_normal((2, 3))
    tau = rng.standard_normal((2, 3))
    z = rng.standard_normal((5, 3))
    attrs = np.array([0, 1, 0, 1, 1])
    weight = rng.standard_normal((5, 3))  # fixed linear readout as the loss

    def loss(params):
        out, _ = norm_forward(params, z, attrs)
        return float((out * weight).sum())

    params = FinParams(mu=mu.copy(), tau=tau.copy(), momentum=0.3)
    _, saved = norm_forward(params, z, attrs)
    grad_z, grad_mu, grad_tau = norm_backward(params, weight, saved)

    num_mu = numeric_grad(lambda: loss(params), params.mu)
    num_tau = numeric_grad(lambda: loss(params), params.tau)
    num_z = numeric_grad(lambda: loss(params), z)
    assert max_rel_err(grad_mu, num_mu) < 1e-7
    assert max_rel_err(grad_tau, num_tau) < 1e-7
    assert max_rel_err(grad_z, num_z) < 1e-7


def test_fin_rows_validation():
    params = hand_params()
    with pytest.raises(ValidationError, match="attribute id per row"):
        params.rows(None, 2, True)
    with pytest.raises(ValidationError, match="length 2"):
        params.rows(np.array([0]), 2, True)  # attrs length
    with pytest.raises(ValidationError, match="batch position 1"):
        params.rows(np.array([0, 1]), 2, True)  # group 1 absent
    with pytest.raises(ValidationError, match="integers"):
        params.rows(np.array([0.7, 1.9]), 2, True)  # not truncated
    for dtype in (np.int8, np.int32, np.uint16, np.int64):
        out, _ = norm_forward(params, np.ones((2, 2)), np.zeros(2, dtype=dtype))
        assert out.shape == (2, 2)
    with pytest.raises(ValidationError):
        FinParams(mu=np.ones((1, 2)), tau=np.ones((1, 3)))
    with pytest.raises(ValidationError):
        FinParams(mu=np.ones((1, 2)), tau=np.ones((1, 2)), momentum=1.5)


def test_settings_are_one_float64_per_model():
    alone = hand_params(m=0.3)
    assert alone.momentum.shape == () and alone.momentum.dtype == np.float64
    stack = FinParams(mu=np.ones((3, 1, 2)), tau=np.ones((3, 1, 2)), momentum=0.3)
    assert np.array_equal(stack.momentum, [0.3, 0.3, 0.3])  # a scalar broadcasts
    stack = FinParams(stack.mu, stack.tau, momentum=[0.0, 0.5, 1.0])
    assert np.array_equal(stack.momentum, [0.0, 0.5, 1.0])
    with pytest.raises(ValidationError, match=r"momentum must be 0-d or of shape \(3,\)"):
        FinParams(stack.mu, stack.tau, momentum=[0.3, 0.3])
    with pytest.raises(ValidationError, match=r"momentum must be 0-d or of shape \(\)"):
        FinParams(alone.mu, alone.tau, momentum=[0.3])
    with pytest.raises(ValidationError, match=r"momentum must lie in \[0, 1\], got nan"):
        FinParams(stack.mu, stack.tau, momentum=[0.3, float("nan"), 2.0])
    bn = BatchNormState(*np.ones((4, 2, 3)), eps=[1e-5, 1e-3], bn_momentum=0.1)
    assert np.array_equal(bn.eps, [1e-5, 1e-3]) and bn.bn_momentum.shape == (2,)
    with pytest.raises(ValidationError, match=r"bn_momentum must lie in \[0, 1\], got 1.5"):
        BatchNormState(*np.ones((4, 2, 3)), bn_momentum=[0.1, 1.5])
    with pytest.raises(ValidationError, match=r"eps must be 0-d or of shape \(2,\)"):
        BatchNormState(*np.ones((4, 2, 3)), eps=np.ones((2, 3)))


@pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, [1e-5, -1e-3]])
def test_bn_refuses_an_eps_that_is_not_positive(eps):
    # a negative eps used to give all-NaN scores, far from its cause
    shape = (4, 2, 3) if isinstance(eps, list) else (4, 3)
    bad = eps[-1] if isinstance(eps, list) else eps
    with pytest.raises(ValidationError, match=rf"^eps must be > 0, got {bad}$"):
        BatchNormState(*np.ones(shape), eps=eps)
    with pytest.raises(ValidationError, match=r"^eps must be > 0, got -1.0$"):
        replace(BatchNormState.create(2), eps=-1.0)


def test_init_fin_draw_order_and_seeding():
    ref = np.random.default_rng(123)
    expected_mu = ref.standard_normal((3, 4))
    expected_tau = ref.standard_normal((3, 4))
    params = FinParams.init(3, 4, np.random.default_rng(123))
    assert np.array_equal(params.mu, expected_mu)
    assert np.array_equal(params.tau, expected_tau)
    assert params.momentum == 0.3
    with pytest.raises(ValidationError):
        FinParams.init(0, 4, np.random.default_rng(0))


def test_sigma_stays_positive_under_updates():
    rng = np.random.default_rng(7)
    params = FinParams.init(2, 3, rng)
    for _ in range(1000):
        params.tau += rng.standard_normal(params.tau.shape)
        assert (params.sigma() > 0.0).all()


# ---------------------------------------------------------------------------
# batch normalization


def test_bn_forward_hand_case():
    state = BatchNormState.create(1)
    out, _ = norm_forward(state, [[-1.0], [1.0]])
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    assert np.allclose(out, [[-expected], [expected]], atol=1e-12)
    # running stats: mean stays 0, var blends in the unbiased estimate 2.0
    assert np.allclose(state.running_mean, [0.0], atol=1e-15)
    assert np.allclose(state.running_var, [0.9 * 1.0 + 0.1 * 2.0], atol=1e-15)


@pytest.mark.parametrize("shape", [(7, 5), (3, 6, 4)])
def test_bn_training_statistics_are_numpys_mean_and_var_bitwise(shape):
    rng = np.random.default_rng(3)
    z = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    state = BatchNormState.create(shape[-1])
    if len(shape) == 3:  # a stack of models keeps (models, dim) statistics
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(state, name, np.tile(getattr(state, name), (shape[0], 1)))
    state.gamma = state.gamma * 1.5
    out, (xhat, inv_std, _) = norm_forward(state, z)
    mean, var, n = z.mean(axis=-2), z.var(axis=-2), shape[-2]
    assert np.array_equal(inv_std, 1.0 / np.sqrt(var + state.eps))
    assert np.array_equal(xhat, (z - mean[..., None, :]) * inv_std[..., None, :])
    assert np.array_equal(out, 1.5 * xhat)
    assert np.array_equal(state.running_mean, 0.1 * mean)
    assert np.array_equal(state.running_var, 0.9 + 0.1 * (var * n / (n - 1)))


def test_bn_defaults():
    state = BatchNormState.create(4)
    assert state.eps == 1e-5
    assert state.bn_momentum == 0.1
    assert np.array_equal(state.gamma, np.ones(4))
    assert np.array_equal(state.running_var, np.ones(4))
    with pytest.raises(ValidationError, match="dim must be >= 1, got 0"):
        BatchNormState.create(0)


def test_bn_training_needs_two_rows():
    state = BatchNormState.create(2)
    with pytest.raises(ValidationError, match="batch size >= 2 in training mode"):
        norm_forward(state, np.ones((1, 2)))
    # inference mode is fine with a single row
    out, _ = norm_forward(state, np.ones((1, 2)), training=False)
    assert out.shape == (1, 2)


def test_bn_inference_uses_running_stats_and_mutates_nothing():
    state = BatchNormState.create(3)
    rng = np.random.default_rng(2)
    norm_forward(state, rng.standard_normal((16, 3)))
    mean_before = state.running_mean.copy()
    var_before = state.running_var.copy()
    z = rng.standard_normal((5, 3))
    out, _ = norm_forward(state, z, training=False)
    expected = (z - mean_before) / np.sqrt(var_before + state.eps)
    assert np.allclose(out, expected, atol=1e-12)
    assert np.array_equal(state.running_mean, mean_before)
    assert np.array_equal(state.running_var, var_before)
    # same input twice gives the same output: nothing drifted
    out2, _ = norm_forward(state, z, training=False)
    assert np.array_equal(out, out2)


def test_bn_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((6, 3))
    weight = rng.standard_normal((6, 3))
    state = BatchNormState.create(3)
    state.gamma = rng.standard_normal(3)
    state.beta = rng.standard_normal(3)

    def loss():
        out, _ = norm_forward(state, z)
        return float((out * weight).sum())

    _, saved = norm_forward(state, z)
    grad_z, grad_gamma, grad_beta = norm_backward(state, weight, saved)
    assert max_rel_err(grad_z, numeric_grad(loss, z)) < 1e-6
    assert max_rel_err(grad_gamma, numeric_grad(loss, state.gamma)) < 1e-6
    assert max_rel_err(grad_beta, numeric_grad(loss, state.beta)) < 1e-6


def test_norm_kind_from_string():
    assert NormKind.from_string("fair_identity") is NormKind.FAIR_IDENTITY
    assert NormKind.from_string("none") is NormKind.NONE
    with pytest.raises(ValidationError):
        NormKind.from_string("layernorm")


@pytest.mark.parametrize("lead", [(), (3,)], ids=["2-D", "stacked"])
def test_fin_forward_never_writes_its_input_in_either_mode(lead):
    rng = np.random.default_rng(22)
    params = FinParams(
        mu=rng.standard_normal(lead + (3, 4)),
        tau=rng.standard_normal(lead + (3, 4)),
        momentum=0.3,
    )
    z = rng.standard_normal(lead + (7, 4))
    before = z.tobytes()
    rows = params.rows(rng.integers(0, 3, size=7), 7, True)
    out, _ = params.forward(z, rows, True)
    assert z.tobytes() == before  # the caller's array is left as it was
    inf_out, saved = params.forward(z, rows, False)
    assert saved is None
    assert inf_out.tobytes() == out.tobytes()
    assert z.tobytes() == before  # inference leaves it unchanged too
