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

import numpy as np
import pytest

from fin_equity import (
    BatchNormState,
    CacheError,
    FinParams,
    NormKind,
    ValidationError,
    bn_backward,
    bn_forward,
    fin_backward,
    fin_forward,
    init_fin,
    softplus,
    softplus_grad,
)
from fin_equity.norms import (
    _bn_backward,
    _bn_forward,
    _fin_backward,
    _fin_forward,
    fin_rows,
)
from reference_fixtures import max_rel_err, numeric_grad


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


def hand_params(m=0.3):
    tau = [[math.log(math.e**2 - 1.0), math.log(math.e - 1.0)]]  # sigma [2, 1]
    return FinParams(mu=np.array([[1.0, 0.0]]), tau=np.array(tau), momentum=m)


def test_fin_forward_hand_example():
    params = hand_params()
    out, cache = fin_forward(np.array([[2.0, -1.0]]), np.array([0]), params)
    assert np.allclose(out, [[0.95, -1.0]], atol=1e-12)
    assert np.allclose(params.sigma(), [[2.0, 1.0]], atol=1e-12)
    assert cache.momentum == 0.3


def test_fin_backward_hand_example():
    params = hand_params()
    _, cache = fin_forward(np.array([[2.0, -1.0]]), np.array([0]), params)
    grad_z, grad_mu, grad_tau = fin_backward(np.array([[1.0, 1.0]]), cache)
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
    out, cache = fin_forward(z, attrs, params)
    g = rng.standard_normal((6, 4))
    _, grad_mu, grad_tau = fin_backward(g, cache)
    assert np.all(grad_mu[1] == 0.0)  # exact zeros, not small numbers
    assert np.all(grad_tau[1] == 0.0)
    # group sums equal the per-row contributions added up
    sigma = params.sigma()
    rows = np.flatnonzero(attrs == 2)
    manual = (-g[rows] * 0.7 / sigma[2]).sum(axis=0)
    assert np.allclose(grad_mu[2], manual, atol=1e-12)


def test_momentum_one_is_bitwise_identity():
    rng = np.random.default_rng(1)
    params = FinParams(
        mu=rng.standard_normal((2, 5)),
        tau=rng.standard_normal((2, 5)),
        momentum=1.0,
    )
    z = rng.standard_normal((7, 5))
    attrs = rng.integers(0, 2, size=7)
    out, cache = fin_forward(z, attrs, params)
    assert np.array_equal(out, z)
    g = rng.standard_normal((7, 5))
    grad_z, grad_mu, grad_tau = fin_backward(g, cache)
    assert np.array_equal(grad_z, g)
    assert not grad_mu.any() and not grad_tau.any()


def test_momentum_zero_is_pure_normalization():
    params = hand_params(m=0.0)
    out, _ = fin_forward(np.array([[2.0, -1.0]]), np.array([0]), params)
    assert np.allclose(out, [[0.5, -1.0]], atol=1e-12)


def test_fin_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    mu = rng.standard_normal((2, 3))
    tau = rng.standard_normal((2, 3))
    z = rng.standard_normal((5, 3))
    attrs = np.array([0, 1, 0, 1, 1])
    weight = rng.standard_normal((5, 3))  # fixed linear readout as the loss

    def loss(params):
        out, _ = fin_forward(z, attrs, params)
        return float((out * weight).sum())

    params = FinParams(mu=mu.copy(), tau=tau.copy(), momentum=0.3)
    _, cache = fin_forward(z, attrs, params)
    grad_z, grad_mu, grad_tau = fin_backward(weight, cache)

    num_mu = numeric_grad(lambda: loss(params), params.mu)
    num_tau = numeric_grad(lambda: loss(params), params.tau)
    num_z = numeric_grad(lambda: loss(params), z)
    assert max_rel_err(grad_mu, num_mu) < 1e-7
    assert max_rel_err(grad_tau, num_tau) < 1e-7
    assert max_rel_err(grad_z, num_z) < 1e-7


def test_fin_cache_is_single_use():
    params = hand_params()
    _, cache = fin_forward(np.array([[2.0, -1.0]]), np.array([0]), params)
    fin_backward(np.array([[1.0, 1.0]]), cache)
    with pytest.raises(CacheError):
        fin_backward(np.array([[1.0, 1.0]]), cache)


def test_fin_cache_rejects_wrong_grad_shape():
    params = hand_params()
    _, cache = fin_forward(np.array([[2.0, -1.0]]), np.array([0]), params)
    with pytest.raises(CacheError):
        fin_backward(np.ones((2, 2)), cache)


def test_fin_forward_validation():
    params = hand_params()
    with pytest.raises(ValidationError):
        fin_forward(np.ones((2, 3)), np.array([0, 0]), params)  # wrong width
    with pytest.raises(ValidationError):
        fin_forward(np.ones((2, 2)), np.array([0]), params)  # attrs length
    with pytest.raises(ValidationError, match="batch position 1"):
        fin_forward(np.ones((2, 2)), np.array([0, 1]), params)  # group 1 absent
    with pytest.raises(ValidationError, match="integers"):
        fin_forward(np.ones((2, 2)), np.array([0.7, 1.9]), params)  # not truncated
    for dtype in (np.int8, np.int32, np.uint16, np.int64):
        out, _ = fin_forward(np.ones((2, 2)), np.zeros(2, dtype=dtype), params)
        assert out.shape == (2, 2)
    with pytest.raises(ValidationError):
        FinParams(mu=np.ones((1, 2)), tau=np.ones((1, 3)))
    with pytest.raises(ValidationError):
        FinParams(mu=np.ones((1, 2)), tau=np.ones((1, 2)), momentum=1.5)


def test_init_fin_draw_order_and_seeding():
    ref = np.random.default_rng(123)
    expected_mu = ref.standard_normal((3, 4))
    expected_tau = ref.standard_normal((3, 4))
    params = init_fin(3, 4, np.random.default_rng(123))
    assert np.array_equal(params.mu, expected_mu)
    assert np.array_equal(params.tau, expected_tau)
    assert params.momentum == 0.3
    with pytest.raises(ValidationError):
        init_fin(0, 4, np.random.default_rng(0))


def test_sigma_stays_positive_under_updates():
    rng = np.random.default_rng(7)
    params = init_fin(2, 3, rng)
    for _ in range(1000):
        params.tau += rng.standard_normal(params.tau.shape)
        assert (params.sigma() > 0.0).all()


# ---------------------------------------------------------------------------
# batch normalization


def test_bn_forward_hand_case():
    state = BatchNormState.create(1)
    z = np.array([[-1.0], [1.0]])
    out, cache = bn_forward(z, state, "training")
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    assert np.allclose(out, [[-expected], [expected]], atol=1e-12)
    # running stats: mean stays 0, var blends in the unbiased estimate 2.0
    assert np.allclose(state.running_mean, [0.0], atol=1e-15)
    assert np.allclose(state.running_var, [0.9 * 1.0 + 0.1 * 2.0], atol=1e-15)


def test_bn_defaults():
    state = BatchNormState.create(4)
    assert state.eps == 1e-5
    assert state.bn_momentum == 0.1
    assert np.array_equal(state.gamma, np.ones(4))
    assert np.array_equal(state.running_var, np.ones(4))


def test_bn_training_needs_two_rows():
    state = BatchNormState.create(2)
    with pytest.raises(ValidationError):
        bn_forward(np.ones((1, 2)), state, "training")
    # inference mode is fine with a single row
    out, _ = bn_forward(np.ones((1, 2)), state, "inference")
    assert out.shape == (1, 2)


def test_bn_inference_uses_running_stats_and_mutates_nothing():
    state = BatchNormState.create(3)
    rng = np.random.default_rng(2)
    bn_forward(rng.standard_normal((16, 3)), state, "training")
    mean_before = state.running_mean.copy()
    var_before = state.running_var.copy()
    z = rng.standard_normal((5, 3))
    out, _ = bn_forward(z, state, "inference")
    expected = (z - mean_before) / np.sqrt(var_before + state.eps)
    assert np.allclose(out, expected, atol=1e-12)
    assert np.array_equal(state.running_mean, mean_before)
    assert np.array_equal(state.running_var, var_before)
    # same input twice gives the same output: nothing drifted
    out2, _ = bn_forward(z, state, "inference")
    assert np.array_equal(out, out2)


def test_bn_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((6, 3))
    weight = rng.standard_normal((6, 3))
    state = BatchNormState.create(3)
    state.gamma = rng.standard_normal(3)
    state.beta = rng.standard_normal(3)

    def loss():
        out, _ = bn_forward(z, state, "training")
        return float((out * weight).sum())

    _, cache = bn_forward(z, state, "training")
    grad_z, grad_gamma, grad_beta = bn_backward(weight, cache)
    assert max_rel_err(grad_z, numeric_grad(loss, z)) < 1e-6
    assert max_rel_err(grad_gamma, numeric_grad(loss, state.gamma)) < 1e-6
    assert max_rel_err(grad_beta, numeric_grad(loss, state.beta)) < 1e-6


def test_bn_backward_needs_training_cache():
    state = BatchNormState.create(2)
    bn_forward(np.ones((4, 2)), state, "training")
    _, cache = bn_forward(np.ones((4, 2)), state, "inference")
    with pytest.raises(CacheError):
        bn_backward(np.ones((4, 2)), cache)
    _, cache = bn_forward(np.zeros((4, 2)), state, "training")
    bn_backward(np.ones((4, 2)), cache)
    with pytest.raises(CacheError):
        bn_backward(np.ones((4, 2)), cache)


def test_norm_kind_from_string():
    assert NormKind.from_string("fair_identity") is NormKind.FAIR_IDENTITY
    assert NormKind.from_string("none") is NormKind.NONE
    with pytest.raises(ValidationError):
        NormKind.from_string("layernorm")


@pytest.mark.parametrize("lead", [(), (3,)], ids=["2-D", "stacked"])
def test_fin_inference_kernel_works_in_place_and_fin_forward_never_does(lead):
    rng = np.random.default_rng(22)
    params = FinParams(
        mu=rng.standard_normal(lead + (3, 4)),
        tau=rng.standard_normal(lead + (3, 4)),
        momentum=0.3,
    )
    z = rng.standard_normal(lead + (7, 4))
    before = z.tobytes()
    attrs = rng.integers(0, 3, size=7)
    out, _ = fin_forward(z, attrs, params)
    assert z.tobytes() == before  # the caller's array is left as it was
    scratch = z.copy()
    k_out, saved = _fin_forward(scratch, fin_rows(attrs, params, 7), params, False)
    assert saved is None
    assert k_out.tobytes() == out.tobytes()


@pytest.mark.parametrize("lead", [(), (3,)], ids=["2-D", "stacked"])
def test_public_norm_ops_and_their_kernels_give_the_same_bits(lead):
    rng = np.random.default_rng(21)
    params = FinParams(
        mu=rng.standard_normal(lead + (3, 4)),
        tau=rng.standard_normal(lead + (3, 4)),
        momentum=0.3,
    )
    z = rng.standard_normal(lead + (7, 4))
    g = rng.standard_normal(lead + (7, 4))
    for attrs in (rng.integers(0, 3, size=lead + (7,)), rng.integers(0, 3, size=7)):
        out, cache = fin_forward(z, attrs, params)
        k_out, saved = _fin_forward(z, fin_rows(attrs, params, 7), params, True)
        assert np.array_equal(out, k_out)
        grad_z, grad_mu, grad_tau = fin_backward(g, cache)
        k_mu, k_tau = np.full(params.mu.shape, np.nan), np.full(params.mu.shape, np.nan)
        k_grad_z = _fin_backward(g, saved, k_mu, k_tau)
        for a, b in ((grad_z, k_grad_z), (grad_mu, k_mu), (grad_tau, k_tau)):
            assert np.array_equal(a, b)

    arrays = [rng.standard_normal(lead + (4,)) for _ in range(3)]
    arrays.append(rng.uniform(0.5, 2.0, lead + (4,)))  # running_var > 0
    public = BatchNormState(*arrays)
    kernel = BatchNormState(*(a.copy() for a in arrays))
    for mode in ("training", "inference"):
        out, cache = bn_forward(z, public, mode)
        k_out, saved = _bn_forward(z, kernel, mode == "training")
        assert np.array_equal(out, k_out)
        assert np.array_equal(public.running_mean, kernel.running_mean)
        assert np.array_equal(public.running_var, kernel.running_var)
        if mode == "training":
            grad_z, grad_gamma, grad_beta = bn_backward(g, cache)
            k_gamma, k_beta = np.empty(kernel.gamma.shape), np.empty(kernel.gamma.shape)
            k_grad_z = _bn_backward(g, saved, k_gamma, k_beta)
            for a, b in ((grad_z, k_grad_z), (grad_gamma, k_gamma), (grad_beta, k_beta)):
                assert np.array_equal(a, b)
