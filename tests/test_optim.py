import numpy as np
import pytest

from fin_equity import (
    AdamWConfig,
    AdamWState,
    NonFiniteError,
    ValidationError,
    adamw_step,
    default_decay_mask,
)
from fin_equity.optim import _adamw_update, decay_shrink, flat_views


def test_default_decay_mask():
    assert default_decay_mask("backbone.0.w")
    assert default_decay_mask("head.w")
    assert not default_decay_mask("backbone.0.b")
    assert not default_decay_mask("head.b")
    assert not default_decay_mask("norm.mu")
    assert not default_decay_mask("norm.tau")
    assert not default_decay_mask("norm.gamma")
    assert not default_decay_mask("norm.beta")


def test_config_defaults_and_validation():
    cfg = AdamWConfig()
    assert cfg.lr == 5e-5
    assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
    assert cfg.eps == 1e-8
    assert cfg.weight_decay == 0.0
    with pytest.raises(ValidationError):
        AdamWConfig(lr=0.0)
    with pytest.raises(ValidationError):
        AdamWConfig(beta1=1.0)
    with pytest.raises(ValidationError):
        AdamWConfig(beta2=-0.1)
    with pytest.raises(ValidationError):
        AdamWConfig(eps=0.0)
    with pytest.raises(ValidationError):
        AdamWConfig(weight_decay=-1.0)


def test_first_step_closed_form():
    # from zero moments the bias corrections cancel, so the first step is
    # lr * g / (|g| + eps) exactly
    rng = np.random.default_rng(0)
    g = rng.standard_normal(7)
    theta = rng.standard_normal(7)
    params = {"head.b": theta.copy()}
    state = AdamWState.create(params)
    cfg = AdamWConfig(lr=0.01)
    adamw_step(params, {"head.b": g.copy()}, state, cfg)
    expected = theta - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params["head.b"], expected, atol=1e-15)
    assert state.step == 1


def test_scalar_example():
    params = {"head.b": np.array([1.0])}
    state = AdamWState.create(params)
    adamw_step(params, {"head.b": np.array([0.5])}, state, AdamWConfig(lr=0.01))
    assert params["head.b"][0] == pytest.approx(0.99, abs=1e-9)


def test_constant_gradient_steps_at_lr():
    params = {"head.b": np.array([3.0])}
    state = AdamWState.create(params)
    cfg = AdamWConfig(lr=0.1)
    for _ in range(2):
        adamw_step(params, {"head.b": np.array([1.0])}, state, cfg)
    # with a constant gradient every bias-corrected step is almost exactly lr
    assert params["head.b"][0] == pytest.approx(3.0 - 0.2, abs=1e-6)
    assert state.step == 2


def test_decay_is_decoupled_and_masked():
    w = np.full((2, 2), 2.0)
    b = np.full(2, 2.0)
    mu = np.full((1, 2), 2.0)
    params = {"backbone.0.w": w, "backbone.0.b": b, "norm.mu": mu}
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    state = AdamWState.create(params)
    cfg = AdamWConfig(lr=0.01, weight_decay=0.5)
    adamw_step(params, grads, state, cfg)
    # zero gradient: the only movement is the multiplicative shrink, and it
    # touches affine weights only
    assert np.array_equal(params["backbone.0.w"], np.full((2, 2), 2.0 * (1 - 0.005)))
    assert np.array_equal(params["backbone.0.b"], np.full(2, 2.0))
    assert np.array_equal(params["norm.mu"], np.full((1, 2), 2.0))


def test_decay_never_enters_the_moments():
    params = {"head.w": np.full((2, 2), 5.0)}
    g = np.full((2, 2), 0.25)
    state = AdamWState.create(params)
    cfg = AdamWConfig(lr=0.01, weight_decay=0.9)
    adamw_step(params, {"head.w": g.copy()}, state, cfg)
    assert np.allclose(state.m["head.w"], 0.1 * g, atol=1e-15)
    assert np.allclose(state.v["head.w"], 0.001 * g * g, atol=1e-15)
    # shrink applied before the gradient step
    expected = 5.0 * (1 - 0.01 * 0.9) - 0.01 * 0.25 / (0.25 + 1e-8)
    assert np.allclose(params["head.w"], expected, atol=1e-12)


def test_updates_are_in_place():
    w = np.ones(3)
    params = {"head.b": w}
    state = AdamWState.create(params)
    out, _ = adamw_step(params, {"head.b": np.ones(3)}, state, AdamWConfig(lr=0.1))
    assert out["head.b"] is w  # same array object, mutated
    assert not np.array_equal(w, np.ones(3))


def test_nonfinite_gradient_names_the_block():
    params = {"head.w": np.ones((2, 2)), "head.b": np.ones(2)}
    grads = {"head.w": np.ones((2, 2)), "head.b": np.array([1.0, np.nan])}
    state = AdamWState.create(params)
    with pytest.raises(NonFiniteError, match="head.b"):
        adamw_step(params, grads, state, AdamWConfig())


def test_name_and_shape_mismatches():
    params = {"head.w": np.ones(2)}
    state = AdamWState.create(params)
    with pytest.raises(ValidationError):
        adamw_step(params, {"head.b": np.ones(2)}, state, AdamWConfig())
    with pytest.raises(ValidationError):
        adamw_step(params, {"head.w": np.ones(3)}, state, AdamWConfig())
    other = AdamWState.create({"head.b": np.ones(2)})
    with pytest.raises(ValidationError, match="parameter/optimizer-state name mismatch"):
        adamw_step(params, {"head.w": np.ones(2)}, other, AdamWConfig())
    wider = AdamWState.create({"head.w": np.ones(3)})
    with pytest.raises(ValidationError, match="!= optimizer-state shape"):
        adamw_step(params, {"head.w": np.ones(2)}, wider, AdamWConfig())


def reference_adamw_step(params, grads, state, config):
    """The per-block AdamW loop that the fused update must match bit for bit."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t
    shrink = 1.0 - config.lr * config.weight_decay
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        step_vec = config.lr * (m / bc1) / (np.sqrt(v / bc2) + config.eps)
        if config.weight_decay and default_decay_mask(name):
            p *= shrink
        p -= step_vec


BLOCK_SHAPES = {
    "backbone.0.w": (5, 7),
    "backbone.0.b": (7,),
    "backbone.1.w": (7, 4),
    "backbone.1.b": (4,),
    "norm.mu": (3, 4),
    "norm.tau": (3, 4),
    "head.w": (4, 2),
    "head.b": (2,),
}


def random_blocks(rng, scale=1.0):
    return {k: scale * rng.standard_normal(s) for k, s in BLOCK_SHAPES.items()}


@pytest.mark.parametrize(
    "config",
    [
        AdamWConfig(lr=1e-2),
        AdamWConfig(lr=1e-2, beta1=0.5, beta2=0.9, eps=1e-6, weight_decay=0.3),
    ],
    ids=["no-decay", "default-mask"],
)
def test_fused_step_matches_per_block_loop_bitwise(config):
    rng = np.random.default_rng(11)
    start = random_blocks(rng)
    fused = {k: v.copy() for k, v in start.items()}
    ref = {k: v.copy() for k, v in start.items()}
    fused_state = AdamWState.create(fused)
    ref_state = AdamWState.create(ref)
    for _ in range(25):
        grads = random_blocks(rng, scale=rng.choice([1e-4, 1.0, 1e3]))
        adamw_step(fused, {k: g.copy() for k, g in grads.items()}, fused_state, config)
        reference_adamw_step(ref, grads, ref_state, config)
    assert fused_state.step == ref_state.step == 25
    for name in BLOCK_SHAPES:
        assert np.array_equal(fused[name], ref[name]), name
        assert np.array_equal(fused_state.m[name], ref_state.m[name]), name
        assert np.array_equal(fused_state.v[name], ref_state.v[name]), name
    assert not np.array_equal(fused["head.w"], start["head.w"])


def test_nonfinite_middle_block_is_named_and_nothing_moves():
    rng = np.random.default_rng(3)
    params = random_blocks(rng)
    state = AdamWState.create(params)
    adamw_step(params, random_blocks(rng), state, AdamWConfig(lr=1e-2))
    before = {k: v.copy() for k, v in params.items()}
    m_before = state.m_flat.copy()
    grads = random_blocks(rng)
    grads["norm.mu"][1, 2] = np.nan
    grads["head.b"][0] = np.inf  # a later bad block is not the one named
    with pytest.raises(NonFiniteError, match="'norm.mu'"):
        adamw_step(params, grads, state, AdamWConfig(lr=1e-2))
    assert state.step == 1
    assert np.array_equal(state.m_flat, m_before)
    assert all(np.array_equal(params[k], before[k]) for k in params)


def test_moments_are_views_into_flat_buffers():
    params = {k: np.zeros(s) for k, s in BLOCK_SHAPES.items()}
    state = AdamWState.create(params)
    total = sum(p.size for p in params.values())
    assert state.m_flat.shape == state.v_flat.shape == (total,)
    for name, p in params.items():
        assert state.m[name].shape == state.v[name].shape == p.shape
        assert np.shares_memory(state.m[name], state.m_flat)
        assert np.shares_memory(state.v[name], state.v_flat)


@pytest.mark.parametrize("weight_decay", [0.0, 0.2], ids=["no-decay", "decay"])
@pytest.mark.parametrize("layout", ["one-buffer", "separate"])
def test_public_step_and_its_kernel_give_the_same_bits(layout, weight_decay):
    config = AdamWConfig(lr=1e-2, weight_decay=weight_decay)
    rng = np.random.default_rng(17)
    start = random_blocks(rng)

    def params():
        if layout == "separate":
            return {k: v.copy() for k, v in start.items()}
        flat, views = flat_views({k: v.shape for k, v in start.items()})
        for k, v in start.items():
            views[k][...] = v
        return views

    public = params()
    flat, kernel = flat_views({k: v.shape for k, v in start.items()})
    for k, v in start.items():
        kernel[k][...] = v
    public_state, kernel_state = AdamWState.create(public), AdamWState.create(kernel)
    shrink = decay_shrink(kernel_state, config)
    assert (shrink is None) == (weight_decay == 0.0)
    for _ in range(10):
        grads = random_blocks(rng)
        adamw_step(public, grads, public_state, config)
        for k, g in grads.items():
            kernel_state.grad[k][...] = g
        _adamw_update(flat, kernel_state, config, shrink)
    assert public_state.step == kernel_state.step == 10
    for k in start:
        assert np.array_equal(public[k], kernel[k]), k
    assert np.array_equal(public_state.m_flat, kernel_state.m_flat)
    assert np.array_equal(public_state.v_flat, kernel_state.v_flat)


def test_step_follows_the_state_order_not_the_dict_order():
    rng = np.random.default_rng(19)
    start = random_blocks(rng)
    grads = random_blocks(rng)
    config = AdamWConfig(lr=1e-2, weight_decay=0.2)
    ordered = {k: v.copy() for k, v in start.items()}
    reordered = {k: start[k].copy() for k in reversed(list(start))}
    ordered_state, reordered_state = AdamWState.create(ordered), AdamWState.create(ordered)
    adamw_step(ordered, grads, ordered_state, config)
    adamw_step(reordered, grads, reordered_state, config)  # same names, other order
    for k in start:
        assert np.array_equal(reordered[k], ordered[k]), k
