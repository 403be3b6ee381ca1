import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fin_equity import (
    AffineLayer,
    CacheError,
    MlpModel,
    NormKind,
    ValidationError,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    named_parameters,
    softmax,
)
from fin_equity import net
from fin_equity.net import (
    _backward,
    _cross_entropy,
    _forward,
    model_slice,
    one_hot,
    stack_models,
)
from reference_fixtures import max_rel_err, numeric_grad

ALL_KINDS = (
    NormKind.NONE,
    NormKind.BATCH,
    NormKind.LEARNABLE_SHARED,
    NormKind.FAIR_IDENTITY,
)


def test_init_shapes_and_zero_biases():
    model = init_mlp((20, 32, 16), NormKind.FAIR_IDENTITY, 3, np.random.default_rng(0))
    assert [l.w.shape for l in model.backbone] == [(20, 32), (32, 16)]
    assert model.head.w.shape == (16, 2)
    assert all(not l.b.any() for l in model.backbone)
    assert not model.head.b.any()
    assert model.input_dim == 20 and model.feature_dim == 16
    assert model.norm.mu.shape == (3, 16)


def test_init_weight_distribution():
    model = init_mlp((200, 100), NormKind.NONE, 1, np.random.default_rng(8))
    w = model.backbone[0].w
    limit = 1.0 / math.sqrt(200)
    assert np.abs(w).max() <= limit
    # variance of U(-limit, limit) is limit^2 / 3
    assert np.var(w) == pytest.approx(limit**2 / 3.0, rel=0.05)


def test_init_is_deterministic_per_seed():
    a = init_mlp((4, 3), NormKind.NONE, 1, np.random.default_rng(5))
    b = init_mlp((4, 3), NormKind.NONE, 1, np.random.default_rng(5))
    c = init_mlp((4, 3), NormKind.NONE, 1, np.random.default_rng(6))
    assert np.array_equal(a.backbone[0].w, b.backbone[0].w)
    assert np.array_equal(a.head.w, b.head.w)
    assert not np.array_equal(a.backbone[0].w, c.backbone[0].w)


def test_norm_kinds_share_backbone_and_head_draws():
    """Normalizer params are drawn last, so the rest matches across kinds."""
    per_kind = [
        init_mlp((6, 5, 4), kind, 3, np.random.default_rng(77)) for kind in ALL_KINDS
    ]
    ref = per_kind[0]
    for model in per_kind[1:]:
        for la, lb in zip(ref.backbone, model.backbone):
            assert np.array_equal(la.w, lb.w)
        assert np.array_equal(ref.head.w, model.head.w)


def test_init_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        init_mlp((4,), NormKind.NONE, 1, rng)
    with pytest.raises(ValidationError):
        init_mlp((4, 0), NormKind.NONE, 1, rng)
    with pytest.raises(ValidationError):
        init_mlp((4, 3), NormKind.FAIR_IDENTITY, 0, rng)


def test_forward_shapes_and_modes():
    model = init_mlp((3, 4), NormKind.NONE, 1, np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((5, 3))
    logits, caches = forward(model, x, mode="inference")
    assert logits.shape == (5, 2)
    assert caches.mode == "inference"
    with pytest.raises(ValidationError):
        forward(model, x, mode="test")
    with pytest.raises(ValidationError):
        forward(model, np.ones((5, 2)))


def test_fair_identity_forward_requires_attrs():
    model = init_mlp((3, 4), NormKind.FAIR_IDENTITY, 2, np.random.default_rng(1))
    x = np.ones((2, 3))
    with pytest.raises(ValidationError):
        forward(model, x)
    logits, _ = forward(model, x, attrs=np.array([0, 1]))
    assert logits.shape == (2, 2)


def test_ramp_between_layers_but_not_after_the_last():
    # one backbone layer: its (possibly negative) output feeds the head raw
    model = MlpModel(
        backbone=[AffineLayer(w=np.array([[1.0], [0.0]]), b=np.zeros(1))],
        norm_kind=NormKind.NONE,
        norm=None,
        head=AffineLayer(w=np.array([[1.0, -1.0]]), b=np.zeros(2)),
    )
    logits, _ = forward(model, np.array([[-3.0, 0.0]]))
    assert np.allclose(logits, [[-3.0, 3.0]])  # not clamped to zero

    # two backbone layers: the ramp sits between them
    model2 = MlpModel(
        backbone=[
            AffineLayer(w=np.array([[1.0], [0.0]]), b=np.zeros(1)),
            AffineLayer(w=np.array([[1.0]]), b=np.zeros(1)),
        ],
        norm_kind=NormKind.NONE,
        norm=None,
        head=AffineLayer(w=np.array([[1.0, -1.0]]), b=np.zeros(2)),
    )
    logits2, _ = forward(model2, np.array([[-3.0, 0.0]]))
    assert np.allclose(logits2, [[0.0, 0.0]])  # -3 clamped by the ramp


def test_softmax_stability():
    out = softmax(np.array([[1000.0, 1000.0], [1000.0, 0.0]]))
    assert np.allclose(out[0], [0.5, 0.5])
    assert out[1, 0] == pytest.approx(1.0)
    assert np.isfinite(out).all()


def test_cross_entropy_hand_values():
    loss, grad = cross_entropy(np.array([[1.0, 2.0]]), np.array([1]))
    assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-15)
    loss2, grad2 = cross_entropy(np.array([[0.0, 0.0]]), np.array([1]))
    assert loss2 == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(grad2, [[0.5, -0.5]])
    # batch averaging
    loss3, grad3 = cross_entropy(np.zeros((2, 2)), np.array([0, 1]))
    assert loss3 == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(grad3, [[-0.25, 0.25], [0.25, -0.25]])


def test_cross_entropy_large_logits():
    loss, grad = cross_entropy(np.array([[800.0, -800.0]]), np.array([0]))
    assert loss == 0.0
    assert np.isfinite(grad).all()
    loss_wrong, _ = cross_entropy(np.array([[800.0, -800.0]]), np.array([1]))
    assert loss_wrong == pytest.approx(1600.0)


def test_cross_entropy_validation():
    with pytest.raises(ValidationError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 1]))
    with pytest.raises(ValidationError):
        cross_entropy(np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(ValidationError):
        cross_entropy(np.zeros((2, 2)), np.array([0]))


def full_loss(model, x, attrs, labels):
    logits, _ = forward(model, x, attrs, mode="training")
    loss, _ = cross_entropy(logits, labels)
    return loss


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_model_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(31)
    model = init_mlp((3, 5, 4), kind, 2, rng, fin_momentum=0.3)
    x = rng.standard_normal((6, 3))
    attrs = rng.integers(0, 2, size=6)
    labels = rng.integers(0, 2, size=6)

    logits, caches = forward(model, x, attrs, mode="training")
    _, grad_logits = cross_entropy(logits, labels)
    analytic = backward(model, caches, grad_logits)
    assert list(analytic) == list(named_parameters(model))  # same names, same order

    params = named_parameters(model)
    for name, p in params.items():
        numeric = numeric_grad(lambda: full_loss(model, x, attrs, labels), p)
        assert max_rel_err(analytic[name], numeric) < 1e-6, name


def test_ramp_subgradient_at_zero_is_zero():
    # first layer maps the input to exactly 0, so the ramp sits on its kink;
    # the chosen convention zeroes the gradient flowing through it
    model = MlpModel(
        backbone=[
            AffineLayer(w=np.array([[1.0]]), b=np.zeros(1)),
            AffineLayer(w=np.array([[1.0]]), b=np.array([1.0])),
        ],
        norm_kind=NormKind.NONE,
        norm=None,
        head=AffineLayer(w=np.array([[2.0, -2.0]]), b=np.zeros(2)),
    )
    x = np.array([[0.0]])
    logits, caches = forward(model, x, mode="training")
    _, grad_logits = cross_entropy(logits, np.array([1]))
    grads = backward(model, caches, grad_logits)
    assert grads["backbone.0.w"] == 0.0
    assert grads["backbone.0.b"] == 0.0
    assert grads["backbone.1.b"].any()  # downstream gradient still flows


def test_named_parameters_keys_per_kind():
    rng = np.random.default_rng(3)
    base = {"backbone.0.w", "backbone.0.b", "head.w", "head.b"}
    model = init_mlp((3, 4), NormKind.NONE, 1, rng)
    assert set(named_parameters(model)) == base
    model = init_mlp((3, 4), NormKind.BATCH, 1, rng)
    assert set(named_parameters(model)) == base | {"norm.gamma", "norm.beta"}
    model = init_mlp((3, 4), NormKind.FAIR_IDENTITY, 2, rng)
    assert set(named_parameters(model)) == base | {"norm.mu", "norm.tau"}


def test_named_parameters_are_live_views():
    model = init_mlp((3, 4), NormKind.NONE, 1, np.random.default_rng(3))
    params = named_parameters(model)
    params["head.b"] += 1.0
    assert np.array_equal(model.head.b, np.ones(2))


def test_backward_cache_rules():
    model = init_mlp((3, 4), NormKind.NONE, 1, np.random.default_rng(1))
    x = np.ones((2, 3))
    logits, caches = forward(model, x, mode="training")
    _, g = cross_entropy(logits, np.array([0, 1]))
    backward(model, caches, g)
    with pytest.raises(CacheError):
        backward(model, caches, g)
    _, inf_caches = forward(model, x, mode="inference")
    with pytest.raises(CacheError):
        backward(model, inf_caches, g)
    _, caches = forward(model, x, mode="training")
    with pytest.raises(CacheError):
        backward(model, caches, np.ones((3, 2)))


@pytest.mark.parametrize(
    "kind, setting",
    [pytest.param(kind, None, id=kind.value) for kind in ALL_KINDS]
    + [
        pytest.param(kind, (field, values), id=f"{kind.value}-{field}")
        for kind, field, values in [
            (NormKind.FAIR_IDENTITY, "momentum", (0.3, 1.0, 0.0)),
            (NormKind.LEARNABLE_SHARED, "momentum", (0.0, 0.3, 0.7)),
            (NormKind.BATCH, "eps", (1e-5, 1e-3, 0.5)),
            (NormKind.BATCH, "bn_momentum", (0.1, 0.5, 1.0)),
        ]
    ],
)
def test_stacked_models_match_each_model_alone_bitwise(kind, setting):
    # 13 rows per batch, so batch-axis reductions leave the short-loop regime
    rng = np.random.default_rng(5)
    models = [init_mlp((4, 7, 6, 5), kind, 3, rng) for _ in range(3)]
    if setting is not None:  # each model keeps its own value in the stack
        field, values = setting
        for model, value in zip(models, values):
            model.norm = replace(model.norm, **{field: value})
    stack = stack_models(models)
    x = rng.standard_normal((3, 13, 4))
    attrs = rng.integers(0, 3, size=(3, 13))
    labels = rng.integers(0, 2, size=(3, 13))

    logits, caches = forward(stack, x, attrs, mode="training")
    losses, grad_logits = cross_entropy(logits, labels)
    flat = np.full(sum(p.size for p in named_parameters(stack).values()), np.nan)
    out, start = {}, 0
    for name, p in named_parameters(stack).items():  # stale values must be overwritten
        out[name] = flat[start : start + p.size].reshape(p.shape)
        start += p.size
    stacked_grads = backward(stack, caches, grad_logits, out=out)
    assert stacked_grads is out
    eval_x = rng.standard_normal((9, 4))
    eval_attrs = rng.integers(0, 3, size=9)
    eval_logits, _ = forward(stack, eval_x, eval_attrs, mode="inference")
    for s, model in enumerate(models):
        lg, c = forward(model, x[s], attrs[s], mode="training")
        loss, g = cross_entropy(lg, labels[s])
        grads = backward(model, c, g)
        assert np.array_equal(logits[s], lg)
        assert losses[s] == loss
        assert np.array_equal(grad_logits[s], g)
        for name in grads:
            assert np.array_equal(stacked_grads[name][s], grads[name]), name
            assert stacked_grads[name] is out[name]
        alone = forward(model, eval_x, eval_attrs, mode="inference")[0]
        assert np.array_equal(eval_logits[s], alone)
        one = model_slice(stack, s)
        if kind is NormKind.BATCH:  # running statistics moved per model
            assert np.array_equal(one.norm.running_mean, model.norm.running_mean)
            assert np.array_equal(one.norm.running_var, model.norm.running_var)
        if setting is not None:
            assert getattr(one.norm, field).shape == ()
            assert getattr(one.norm, field) == getattr(model.norm, field) == values[s]
        for name, p in named_parameters(one).items():
            assert np.array_equal(p, named_parameters(model)[name]), name
            assert not np.shares_memory(p, named_parameters(stack)[name])


def test_stacked_parameters_share_one_buffer():
    rng = np.random.default_rng(2)
    stack = stack_models(
        [init_mlp((3, 4), NormKind.FAIR_IDENTITY, 2, rng) for _ in range(2)]
    )
    params = named_parameters(stack)
    assert stack.models == (2,) and stack.input_dim == 3 and stack.feature_dim == 4
    assert params["norm.mu"].shape == (2, 2, 4)
    base = params["head.w"].base
    assert all(p.base is base and p.flags.c_contiguous for p in params.values())
    assert base.size == sum(p.size for p in params.values())


def test_stacked_group_ids_are_checked_before_the_model_offset():
    rng = np.random.default_rng(4)
    stack = stack_models(
        [init_mlp((3, 4), NormKind.FAIR_IDENTITY, 2, rng) for _ in range(2)]
    )
    x = rng.standard_normal((2, 5, 3))
    attrs = np.zeros((2, 5), dtype=np.int64)
    attrs[0, 3] = 2  # as a flat row it would be the second model's group 0
    with pytest.raises(ValidationError, match="position 3: attribute id 2 out of range"):
        forward(stack, x, attrs, mode="training")
    with pytest.raises(ValidationError, match="input must be"):
        forward(stack, rng.standard_normal((3, 5, 3)), attrs[0], mode="training")


def test_stack_models_refuses_differing_norm_kinds():
    rng = np.random.default_rng(6)
    model = init_mlp((3, 4), NormKind.FAIR_IDENTITY, 2, rng)
    other = init_mlp((3, 4), NormKind.NONE, 2, rng)
    with pytest.raises(ValidationError, match="different norm kinds: fair_identity and"):
        stack_models([model, other])


def kernel_rows(model, attrs, batch):
    return None if model.norm is None else model.norm.rows(attrs, batch, True)


@pytest.mark.parametrize("stacked", [False, True], ids=["2-D", "stacked"])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_public_ops_and_their_kernels_give_the_same_bits(kind, stacked):
    def build():
        rng = np.random.default_rng(12)
        models = [init_mlp((4, 7, 6, 5), kind, 3, rng) for _ in range(3)]
        return stack_models(models) if stacked else models[0]

    public, kernel = build(), build()
    rng = np.random.default_rng(13)
    lead = (3,) if stacked else ()
    x = rng.standard_normal(lead + (9, 4))
    attrs = rng.integers(0, 3, size=lead + (9,))
    labels = rng.integers(0, 2, size=lead + (9,))

    for mode in ("training", "inference"):
        logits, caches = forward(public, x, attrs, mode=mode)
        k_logits, saved = _forward(kernel, x, kernel_rows(kernel, attrs, 9), mode == "training")
        assert np.array_equal(logits, k_logits)
    if kind is NormKind.BATCH:  # training moved the running statistics alike
        assert np.array_equal(public.norm.running_mean, kernel.norm.running_mean)
        assert np.array_equal(public.norm.running_var, kernel.norm.running_var)

    logits, caches = forward(public, x, attrs, mode="training")
    k_logits, saved = _forward(kernel, x, kernel_rows(kernel, attrs, 9), True)
    loss, grad_logits = cross_entropy(logits, labels)
    k_loss, k_grad_logits = _cross_entropy(k_logits, one_hot(labels))
    assert np.array_equal(loss, k_loss) and np.array_equal(grad_logits, k_grad_logits)

    grads = backward(public, caches, grad_logits)
    out = {name: np.full(p.shape, np.nan) for name, p in named_parameters(kernel).items()}
    _backward(kernel, saved, k_grad_logits, out)
    assert grads.keys() == out.keys()
    for name in grads:
        assert np.array_equal(grads[name], out[name]), name


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_inference_saves_nothing(kind, stacked):
    rng = np.random.default_rng(5)
    models = [init_mlp((4, 7, 6, 5), kind, 3, rng) for _ in range(2)]
    model = stack_models(models) if stacked else models[0]
    x = rng.standard_normal((9, 4))
    attrs = rng.integers(0, 3, size=9)
    logits, caches = forward(model, x, attrs, mode="inference")
    assert caches.saved == ()
    with pytest.raises(CacheError) as exc:
        backward(model, caches, np.zeros_like(logits))
    assert str(exc.value) == "backward requires caches from a training-mode forward"
    if kind is not NormKind.BATCH:  # the other normalizers ignore the mode
        train_logits, _ = forward(model, x, attrs, mode="training")
        assert np.array_equal(logits, train_logits)


B = net.INFER_ROWS
EDGE_ROWS = (1, 2, B - 1, B, B + 1, 2 * B + 1)


def one_block(model, x, attrs):
    """The inference logits with every row in one block."""
    with mock.patch.object(net, "INFER_ROWS", x.shape[-2]):
        return forward(model, x, attrs, mode="inference")[0]


def scoring_model(dims, kind, stacked, rng):
    models = [init_mlp(dims, kind, 3, rng) for _ in range(3 if stacked else 1)]
    if kind is NormKind.BATCH:  # trained-looking statistics, not the defaults
        for m in models:
            m.norm.running_mean = rng.standard_normal(dims[-1])
            m.norm.running_var = np.exp(rng.standard_normal(dims[-1]))
    return stack_models(models) if stacked else models[0]


def block_sizes(model, n):
    return [block.stop - block.start for block in net._row_blocks(model, n)]


def test_row_blocks_fold_a_one_row_tail_and_keep_narrow_layers_whole():
    rng = np.random.default_rng(30)
    model = init_mlp((3, 16, 8), NormKind.NONE, 1, rng)
    assert block_sizes(model, 1) == [1]
    assert block_sizes(model, B) == [B]
    assert block_sizes(model, B + 1) == [B + 1]
    assert block_sizes(model, B + 2) == [B, 2]
    assert block_sizes(model, 2 * B + 1) == [B, B + 1]
    narrow = init_mlp((3, 12, 8), NormKind.NONE, 1, rng)
    assert block_sizes(narrow, 10 * B) == [10 * B]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    stacked=st.booleans(),
    batch_per_model=st.booleans(),
    n=st.sampled_from(EDGE_ROWS) | st.integers(1, 4 * B),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_inference_equals_one_block_bitwise(
    kind, stacked, batch_per_model, n, seed
):
    rng = np.random.default_rng(seed)
    model = scoring_model((5, 16, 8), kind, stacked, rng)
    lead = (3,) if stacked and batch_per_model else ()
    x = 3.0 * rng.standard_normal(lead + (n, 5))
    attrs = rng.integers(0, 3, size=lead + (n,))
    blocked, _ = forward(model, x, attrs, mode="inference")
    assert blocked.tobytes() == one_block(model, x, attrs).tobytes()


@pytest.mark.parametrize(
    "dims, rows",
    [((20, 32, 16), 40_000), ((20, 12), 6_000)],
    ids=["head", "narrow-layer"],
)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_blocked_inference_keeps_its_bits_where_blas_switches_kernel(kind, dims, rows):
    # the 16x2 head past 40k rows and a 20x12 layer past 6k rows each take
    # a gemm kernel whose bits differ from the one a 256-row block takes
    rng = np.random.default_rng(31)
    model = scoring_model(dims, kind, False, rng)
    x = rng.standard_normal((rows, dims[0]))
    attrs = rng.integers(0, 3, size=rows)
    blocked, _ = forward(model, x, attrs, mode="inference")
    assert blocked.tobytes() == one_block(model, x, attrs).tobytes()
