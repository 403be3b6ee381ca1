import copy
import hashlib
import importlib
import json
import re
import tempfile
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fin_equity import (
    AdamWConfig,
    Checkpoint,
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    GroupSpec,
    AdamWState,
    Dataset,
    NonFiniteError,
    NormKind,
    SynthConfig,
    TrainConfig,
    TrainingDivergedError,
    ValidationError,
    adamw_step,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    checkpoint_from_dict,
    checkpoint_to_dict,
    discrepancy,
    dumps_canonical,
    equity_scaled,
    evaluate_model,
    generate,
    load_checkpoint,
    metric_report_to_dict,
    named_parameters,
    run_seeds,
    save_checkpoint,
    sweep_momentum,
    train,
    train_config_from_dict,
    train_config_to_dict,
    write_predictions_csv,
    write_pretty_json,
)
from fin_equity.net import model_slice, stack_models
from fin_equity.train import CHECKPOINT_VERSION, MAX_PARAMETERS
from numeric_fingerprint import fingerprint
from reference_fixtures import same_predictions

# the module itself: `fin_equity.train` as an attribute is the function
TRAIN_MODULE = importlib.import_module("fin_equity.train")


def tiny_data(seed=0, n_train=24, n_eval=16):
    config = SynthConfig(
        d=4,
        seed=seed,
        groups=(
            GroupSpec("g0", n_train, n_eval, 0.5, 2.0, 1.0),
            GroupSpec("g1", n_train, n_eval, 0.5, 1.2, -1.0),
        ),
    )
    return generate(config)


def tiny_config(**kwargs):
    defaults = dict(
        layer_dims=(4, 6, 5),
        epochs=2,
        batch_size=8,
        optimizer=AdamWConfig(lr=1e-3),
        seed=0,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def params_equal(a, b):
    pa, pb = named_parameters(a.model), named_parameters(b.model)
    return set(pa) == set(pb) and all(np.array_equal(pa[k], pb[k]) for k in pa)


def canonical_bytes(ck):
    return dumps_canonical(checkpoint_to_dict(ck))


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(layer_dims=(4,))
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(norm_kind=NormKind.BATCH, batch_size=1)
    with pytest.raises(ValidationError):
        TrainConfig(fin_momentum=1.5)
    with pytest.raises(ValidationError):
        TrainConfig(threshold=2.0)
    # string kinds are coerced through the enum
    assert TrainConfig(norm_kind="batch").norm_kind is NormKind.BATCH
    # values are typed in Python as in JSON, so every checkpoint config reloads
    with pytest.raises(ValidationError, match="'shuffle' must be a boolean, got 1"):
        TrainConfig(shuffle=1)
    with pytest.raises(ValidationError, match="'epochs' must be an integer"):
        TrainConfig(epochs=2.0)
    with pytest.raises(ValidationError, match="'weight_decay' must be a number"):
        AdamWConfig(weight_decay=True)
    typed = TrainConfig(layer_dims=np.array([4, 2]), seed=np.int64(3), threshold=1)
    assert typed.layer_dims == (4, 2) and type(typed.seed) is int
    assert type(typed.threshold) is float


def test_optimizer_config_cannot_change_after_its_checks():
    config = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        config.optimizer.lr = "fast"  # a checkpoint would hold a config it refuses
    assert train_config_from_dict(train_config_to_dict(config)) == config


def test_train_config_refuses_an_optimizer_that_is_not_an_adamw_config():
    with pytest.raises(
        ValidationError, match="optimizer must be an AdamWConfig, got dict"
    ):
        TrainConfig(optimizer={"lr": 1.0})


def test_training_is_deterministic():
    train_set, eval_set = tiny_data()
    config = tiny_config(norm_kind=NormKind.FAIR_IDENTITY, seed=7)
    ck1, hist1 = train(train_set, eval_set, config)
    ck2, hist2 = train(train_set, eval_set, config)
    assert params_equal(ck1, ck2)
    assert hist1.losses == hist2.losses
    assert hist1.reports[-1] == hist2.reports[-1]
    ck3, _ = train(train_set, eval_set, tiny_config(norm_kind=NormKind.FAIR_IDENTITY, seed=8))
    assert not params_equal(ck1, ck3)


def test_training_learns_an_easy_problem():
    train_set, eval_set = tiny_data(n_train=120, n_eval=60)
    config = tiny_config(epochs=8, optimizer=AdamWConfig(lr=3e-3))
    ck, history = train(train_set, eval_set, config)
    assert history.losses[-1] < history.losses[0]
    assert len(history.losses) == 8 and len(history.reports) == 8
    assert history.reports[-1].overall["auc"] > 0.75
    assert ck.epoch == 8


@pytest.mark.parametrize(
    "kind",
    [NormKind.NONE, NormKind.BATCH, NormKind.LEARNABLE_SHARED, NormKind.FAIR_IDENTITY],
    ids=lambda k: k.value,
)
def test_all_norm_kinds_train(kind):
    train_set, eval_set = tiny_data()
    ck, history = train(train_set, eval_set, tiny_config(norm_kind=kind))
    assert np.isfinite(history.losses).all()
    assert history.reports[-1].overall["accuracy"] is not None


def test_short_final_batch_and_batch_norm_singleton():
    # 25 rows per group, batch 8: the last batch of the shuffled 50 has 2
    # rows; with batch 7 the remainder is 1 and batch norm must skip it
    train_set, eval_set = tiny_data(n_train=25, n_eval=8)
    train(train_set, eval_set, tiny_config(batch_size=8, norm_kind=NormKind.BATCH))
    train(train_set, eval_set, tiny_config(batch_size=7, norm_kind=NormKind.BATCH))
    train(train_set, eval_set, tiny_config(batch_size=7))  # kept without batch norm


def test_train_dimension_checks():
    train_set, eval_set = tiny_data()
    with pytest.raises(ValidationError):
        train(train_set, eval_set, tiny_config(layer_dims=(5, 4)))
    other_train, _ = generate(
        SynthConfig(d=3, groups=(GroupSpec("g", 8, 8, 0.5, 1.0, 0.0),))
    )
    with pytest.raises(ValidationError):
        train(train_set, other_train, tiny_config())


def test_divergence_raises_a_named_error():
    train_set, eval_set = tiny_data()
    config = tiny_config(optimizer=AdamWConfig(lr=1e300), epochs=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            train(train_set, eval_set, config)
        # in a multi-seed run the message names the seed that diverged
        with pytest.raises(NonFiniteError, match=r"for seed [12]\b"):
            run_seeds(train_set, eval_set, config, seeds=(1, 2))


def overflow_data():
    # 12 training rows in batches of 1; row 3 sits at the edge of float64,
    # so some seeds overflow on it (in the loss or in a gradient) and others
    # train through it
    train_set, eval_set = generate(
        SynthConfig(
            d=4,
            seed=0,
            groups=(
                GroupSpec("g0", 6, 8, 0.5, 2.0, 1.0),
                GroupSpec("g1", 6, 8, 0.5, 1.2, -1.0),
            ),
        )
    )
    x = train_set.x.copy()
    x[3] = 1.7e308
    big = Dataset(train_set.attribute_set, x, train_set.labels, train_set.attrs, train_set.ids)
    return big, eval_set


@pytest.mark.parametrize(
    "shuffle, seeds, error, message",
    [
        # shuffled, seed 5 reaches the row at batch 2 and seed 4 at batch 7:
        # the earliest step is named, wherever its seed sits in the list
        (True, (1, 4, 5), TrainingDivergedError, "non-finite loss for seed 5 at epoch 0, batch 2"),
        (True, (5, 4), TrainingDivergedError, "non-finite loss for seed 5 at epoch 0, batch 2"),
        # unshuffled, seeds 4 and 5 both fail at batch 3: the first of them in
        # seeds order is named, and a seed that trains through is never named
        (False, (4, 5), TrainingDivergedError, "non-finite loss for seed 4 at epoch 0, batch 3"),
        (False, (1, 5, 4), TrainingDivergedError, "non-finite loss for seed 5 at epoch 0, batch 3"),
        # seed 2 keeps a finite loss but overflows a gradient block
        (False, (1, 2), NonFiniteError,
         "non-finite gradient in parameter block 'backbone.1.w' for seed 2"),
        (True, (3, 2, 6), NonFiniteError,
         "non-finite gradient in parameter block 'backbone.1.w' for seed 2"),
        # in one step, every seed's loss is checked before any gradient
        (False, (2, 4), TrainingDivergedError, "non-finite loss for seed 4 at epoch 0, batch 3"),
    ],
)
def test_divergence_errors_name_the_first_failing_seed(shuffle, seeds, error, message):
    train_set, eval_set = overflow_data()
    config = tiny_config(
        layer_dims=(4, 6, 5),
        batch_size=1,
        norm_kind=NormKind.LEARNABLE_SHARED,
        shuffle=shuffle,
        epochs=1,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            run_seeds(train_set, eval_set, config, seeds)
    if error is NonFiniteError:
        assert not isinstance(info.value, TrainingDivergedError)


@pytest.mark.parametrize(
    "stack, message",
    [
        # one stack: seed 5's batch 2 comes before seed 4's batch 7
        (16, "non-finite loss for seed 5 at epoch 0, batch 2"),
        # stacks (1, 4) and (5,), or (1,), (4,) and (5,): the stack holding
        # seed 4 trains first, so seed 5 never takes a step
        (2, "non-finite loss for seed 4 at epoch 0, batch 7"),
        (1, "non-finite loss for seed 4 at epoch 0, batch 7"),
    ],
    ids=["one-stack", "stacks-of-2", "stacks-of-1"],
)
def test_the_first_stack_to_diverge_raises(stack, message, monkeypatch):
    monkeypatch.setattr(TRAIN_MODULE, "STACK_MODELS", stack)
    train_set, eval_set = overflow_data()
    config = tiny_config(
        batch_size=1, norm_kind=NormKind.LEARNABLE_SHARED, shuffle=True, epochs=1
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match=f"^{re.escape(message)}$"):
            run_seeds(train_set, eval_set, config, (1, 4, 5))


def test_momentum_one_training_matches_no_norm_bitwise():
    train_set, eval_set = tiny_data()
    ck_none, _ = train(train_set, eval_set, tiny_config(norm_kind=NormKind.NONE))
    ck_fin, _ = train(
        train_set,
        eval_set,
        tiny_config(norm_kind=NormKind.FAIR_IDENTITY, fin_momentum=1.0),
    )
    pa = named_parameters(ck_none.model)
    pb = named_parameters(ck_fin.model)
    for name in pa:  # backbone and head coincide exactly
        assert np.array_equal(pa[name], pb[name]), name
    preds_a, _ = evaluate_model(ck_none, eval_set)
    preds_b, _ = evaluate_model(ck_fin, eval_set)
    assert same_predictions(preds_a, preds_b)  # identical scores, bit for bit


def test_shared_normalizer_matches_single_group_fin_bitwise():
    config = SynthConfig(d=4, groups=(GroupSpec("only", 24, 12, 0.5, 1.5, 0.0),))
    train_set, eval_set = generate(config)
    ck_shared, _ = train(
        train_set, eval_set, tiny_config(norm_kind=NormKind.LEARNABLE_SHARED)
    )
    ck_fin, _ = train(
        train_set, eval_set, tiny_config(norm_kind=NormKind.FAIR_IDENTITY)
    )
    pa = named_parameters(ck_shared.model)
    pb = named_parameters(ck_fin.model)
    assert set(pa) == set(pb)
    for name in pa:
        assert np.array_equal(pa[name], pb[name]), name


def test_evaluate_model_threshold_handling():
    train_set, eval_set = tiny_data()
    ck, _ = train(train_set, eval_set, tiny_config(threshold=0.4))
    _, rep_default = evaluate_model(ck, eval_set)
    assert rep_default.threshold == 0.4  # falls back to the config threshold
    _, rep_override = evaluate_model(ck, eval_set, threshold=0.6)
    assert rep_override.threshold == 0.6
    bad, _ = generate(SynthConfig(d=3, groups=(GroupSpec("g", 8, 8, 0.5, 1.0, 0.0),)))
    with pytest.raises(ValidationError):
        evaluate_model(ck, bad)


# ---------------------------------------------------------------------------
# multi-seed aggregation


def test_run_seeds_aggregates_per_seed_values():
    train_set, eval_set = tiny_data()
    agg = run_seeds(train_set, eval_set, tiny_config(), seeds=(1, 2, 3))
    assert agg.seeds == (1, 2, 3)
    assert len(agg.reports) == 3 and len(agg.checkpoints) == 3
    for key in ("acc", "auc", "es_acc", "es_auc", "dpd", "deodds"):
        assert key in agg.metrics
    per_seed = [rep.overall["auc"] for rep in agg.reports]
    summary = agg.metrics["auc"]
    assert summary.per_seed == tuple(per_seed)
    values = np.sort(np.asarray(per_seed))
    assert summary.mean == float(values.mean())
    assert summary.std == float(values.std(ddof=1))
    # es metrics follow the per-seed-then-average rule
    per_seed_es = [rep.equity_scaled["auc"] for rep in agg.reports]
    assert agg.metrics["es_auc"].mean == float(np.sort(per_seed_es).mean())


def test_run_seeds_es_from_means_alternative():
    train_set, eval_set = tiny_data()
    agg = run_seeds(train_set, eval_set, tiny_config(), seeds=(1, 2))
    mean_auc = agg.metrics["auc"].mean
    groups = {g: agg.metrics[f"auc_group{g}"].mean for g in range(2)}
    expected = equity_scaled(mean_auc, discrepancy(mean_auc, groups))
    assert agg.es_from_means["es_auc"] == expected
    # the two aggregations disagree in general
    assert agg.es_from_means["es_auc"] != agg.metrics["es_auc"].mean


def test_run_seeds_order_invariance():
    train_set, eval_set = tiny_data()
    a = run_seeds(train_set, eval_set, tiny_config(), seeds=(1, 2, 3))
    b = run_seeds(train_set, eval_set, tiny_config(), seeds=(3, 1, 2))
    for key, summary in a.metrics.items():
        assert summary.mean == b.metrics[key].mean, key  # bitwise
        assert summary.std == b.metrics[key].std, key


def test_run_seeds_parallel_matches_sequential():
    # the seeds of one run train in lockstep; each must equal its solo run
    train_set, eval_set = tiny_data()
    config = tiny_config(norm_kind=NormKind.FAIR_IDENTITY)
    par = run_seeds(train_set, eval_set, config, seeds=(4, 5))
    for i, seed in enumerate((4, 5)):
        ck, history = train(train_set, eval_set, replace(config, seed=seed))
        assert canonical_bytes(par.checkpoints[i]) == canonical_bytes(ck), seed
        assert par.histories[i].losses == history.losses
        assert par.reports[i] == history.reports[-1]


def test_run_seeds_single_seed_std_is_zero():
    train_set, eval_set = tiny_data()
    agg = run_seeds(train_set, eval_set, tiny_config(), seeds=(9,))
    assert agg.metrics["auc"].std == 0.0
    with pytest.raises(ValidationError):
        run_seeds(train_set, eval_set, tiny_config(), seeds=())


def test_sweep_momentum(monkeypatch):
    train_set, eval_set = tiny_data()
    config = tiny_config()
    solo = {
        (m, seed): train(
            train_set,
            eval_set,
            replace(config, norm_kind=NormKind.FAIR_IDENTITY, fin_momentum=m, seed=seed),
        )
        for m in (0.0, 0.5, 1.0)
        for seed in (1, 2)
    }
    # the six (m, seed) models, grid-major, train as one stack of 6; as
    # stacks of 4 and 2, cut between the m = 0.5 and m = 1.0 blocks; and as
    # two stacks of 3, cut inside the m = 0.5 block
    for stack in (16, 4, 3):
        monkeypatch.setattr(TRAIN_MODULE, "STACK_MODELS", stack)
        results = sweep_momentum(
            train_set, eval_set, config, grid=[1.0, 0.0, 0.5], seeds=(1, 2)
        )
        assert [m for m, _ in results] == [0.0, 0.5, 1.0]  # sorted ascending
        for m, agg in results:
            assert agg.seeds == (1, 2)
            for seed, ck, history in zip(agg.seeds, agg.checkpoints, agg.histories):
                assert ck.config.norm_kind is NormKind.FAIR_IDENTITY  # forced
                assert ck.config.fin_momentum == m
                assert ck.config.seed == seed
                solo_ck, solo_history = solo[m, seed]
                assert canonical_bytes(ck) == canonical_bytes(solo_ck), (stack, m, seed)
                assert history.losses == solo_history.losses
                assert history.reports[-1] == solo_history.reports[-1]
    with pytest.raises(ValidationError):
        sweep_momentum(train_set, eval_set, tiny_config(), grid=[], seeds=(1,))
    with pytest.raises(ValidationError):
        sweep_momentum(train_set, eval_set, tiny_config(), grid=[1.2], seeds=(1,))
    # grid errors come before seed errors
    with pytest.raises(ValidationError, match="momentum grid is empty"):
        sweep_momentum(train_set, eval_set, tiny_config(), grid=[], seeds=())
    with pytest.raises(ValidationError, match="need at least one seed"):
        sweep_momentum(train_set, eval_set, tiny_config(), grid=[0.5], seeds=())


def test_repeated_seeds_and_grid_values_are_refused():
    train_set, eval_set = tiny_data()
    with pytest.raises(ValidationError, match="seed 1 is given more than once"):
        run_seeds(train_set, eval_set, tiny_config(), seeds=(1, 2, 1))
    for grid, value in (([0.5, 0.0, 0.5], "0.5"), ([0.0, -0.0], "0.0")):
        with pytest.raises(ValidationError, match=f"value {value} is given more than"):
            sweep_momentum(train_set, eval_set, tiny_config(), grid=grid, seeds=(1,))


def test_layer_dims_are_positive_and_the_parameter_count_is_capped():
    with pytest.raises(ValidationError, match=r"entries must be >= 1, got \[20, -3\]"):
        TrainConfig(layer_dims=(20, -3))
    with pytest.raises(ValidationError, match="entries must be >= 1"):
        TrainConfig(layer_dims=(0, 4))
    # (20 + 1) * 10^8 + (10^8 + 1) * 2 parameters; none is allocated
    with pytest.raises(ValidationError, match="give 2300000002 backbone and head"):
        TrainConfig(layer_dims=(20, 10**8))
    # just at the cap: (k + 1) * k + (k + 1) * 2 = (k + 1) * (k + 2)
    k = 3160
    assert (k + 1) * (k + 2) <= MAX_PARAMETERS < (k + 2) * (k + 3)
    assert TrainConfig(layer_dims=(k, k)).layer_dims == (k, k)
    with pytest.raises(ValidationError, match="MAX_PARAMETERS"):
        TrainConfig(layer_dims=(k + 1, k + 1))


def test_checkpoint_loader_refuses_oversized_layer_dims():
    train_set, eval_set = tiny_data()
    ck, _ = train(train_set, eval_set, tiny_config())
    for dims, message in (([4, -6, 5], ">= 1"), ([4, 10**8, 5], "MAX_PARAMETERS")):
        data = copy.deepcopy(checkpoint_to_dict(ck))
        data["config"]["layer_dims"] = dims
        with pytest.raises(ValidationError, match=message):
            checkpoint_from_dict(data)


# ---------------------------------------------------------------------------
# checkpoints


def roundtrip(ck, tmp_path, name="ck.json"):
    path = str(tmp_path / name)
    save_checkpoint(ck, path)
    return load_checkpoint(path), path


@pytest.mark.parametrize(
    "kind",
    [NormKind.NONE, NormKind.BATCH, NormKind.LEARNABLE_SHARED, NormKind.FAIR_IDENTITY],
    ids=lambda k: k.value,
)
def test_checkpoint_round_trip(kind, tmp_path):
    train_set, eval_set = tiny_data()
    ck, _ = train(train_set, eval_set, tiny_config(norm_kind=kind))
    loaded, path = roundtrip(ck, tmp_path)
    assert params_equal(ck, loaded)
    assert loaded.config == ck.config
    assert loaded.epoch == ck.epoch
    if kind is NormKind.BATCH:
        assert np.array_equal(loaded.model.norm.running_mean, ck.model.norm.running_mean)
        assert np.array_equal(loaded.model.norm.running_var, ck.model.norm.running_var)
        assert loaded.model.norm.eps == ck.model.norm.eps
    # save -> load -> save is byte identical
    path2 = str(tmp_path / "again.json")
    save_checkpoint(loaded, path2)
    assert (tmp_path / "ck.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def test_loaded_checkpoint_reproduces_evaluation_exactly(tmp_path):
    train_set, eval_set = tiny_data()
    ck, _ = train(train_set, eval_set, tiny_config(norm_kind=NormKind.FAIR_IDENTITY))
    preds, report = evaluate_model(ck, eval_set)
    loaded, _ = roundtrip(ck, tmp_path)
    preds2, report2 = evaluate_model(loaded, eval_set)
    assert same_predictions(preds, preds2)
    assert report == report2


def test_checkpoint_version_gate(tmp_path):
    train_set, eval_set = tiny_data()
    ck, _ = train(train_set, eval_set, tiny_config())
    data = checkpoint_to_dict(ck)
    data["version"] = 99
    with pytest.raises(CheckpointVersionError):
        checkpoint_from_dict(data)


def test_checkpoint_format_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(path))
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_dict({"version": 1})
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_dict([1, 2, 3])


def test_checkpoint_shape_errors():
    train_set, eval_set = tiny_data()
    ck, _ = train(train_set, eval_set, tiny_config(norm_kind=NormKind.FAIR_IDENTITY))
    good = checkpoint_to_dict(ck)

    data = checkpoint_from_dict(good)  # sanity: the pristine dict loads
    assert params_equal(data, ck)

    bad = checkpoint_to_dict(ck)
    bad["backbone"] = bad["backbone"][:1]
    with pytest.raises(CheckpointShapeError, match="backbone"):
        checkpoint_from_dict(bad)

    bad = checkpoint_to_dict(ck)
    bad["head"] = {"w": [[1.0, 2.0]], "b": [0.0, 0.0]}
    with pytest.raises(CheckpointShapeError, match="head.w"):
        checkpoint_from_dict(bad)

    bad = checkpoint_to_dict(ck)
    bad["norm"] = None
    with pytest.raises((CheckpointShapeError, CheckpointFormatError)):
        checkpoint_from_dict(bad)

    bad = checkpoint_to_dict(ck)
    bad["config"]["norm_kind"] = "none"
    with pytest.raises(CheckpointShapeError, match="norm must be null for the identity kind"):
        checkpoint_from_dict(bad)

    bad = checkpoint_to_dict(ck)
    bad["norm"]["mu"] = [[0.0] * 5, [0.0] * 5]
    bad["norm"]["tau"] = [[0.0] * 5]
    with pytest.raises(CheckpointShapeError, match="norm.tau"):
        checkpoint_from_dict(bad)

    # a shared normalizer must have exactly one group
    ck_shared, _ = train(
        train_set, eval_set, tiny_config(norm_kind=NormKind.LEARNABLE_SHARED)
    )
    bad = checkpoint_to_dict(ck_shared)
    bad["norm"]["mu"] = [[0.0] * 5, [0.0] * 5]
    bad["norm"]["tau"] = [[0.0] * 5, [0.0] * 5]
    with pytest.raises(CheckpointShapeError, match="1 group"):
        checkpoint_from_dict(bad)


def test_checkpoint_loader_rejects_bad_values():
    train_set, eval_set = tiny_data()
    ck_fin, _ = train(train_set, eval_set, tiny_config(norm_kind=NormKind.FAIR_IDENTITY))
    ck_bn, _ = train(train_set, eval_set, tiny_config(norm_kind=NormKind.BATCH))

    def load_with(ck, edit):
        data = copy.deepcopy(checkpoint_to_dict(ck))  # it holds the model's own arrays
        edit(data)
        return checkpoint_from_dict(data)

    nan, inf = float("nan"), float("inf")
    cases = [
        (ck_fin, lambda d: np.put(d["head"]["w"], 1, nan), "head.w: non-finite"),
        (ck_fin, lambda d: np.put(d["backbone"][0]["b"], 0, inf), "backbone.0.b: non-finite"),
        (ck_fin, lambda d: np.put(d["norm"]["mu"], 7, nan), "norm.mu: non-finite"),
        (ck_fin, lambda d: np.put(d["norm"]["tau"], 0, -inf), "norm.tau: non-finite"),
        (ck_fin, lambda d: np.put(d["norm"]["tau"], 0, -800.0), "norm.tau: sigma = softplus"),
        (ck_bn, lambda d: np.put(d["norm"]["running_var"], 3, -1.0), "running_var: must be > 0"),
        (ck_bn, lambda d: np.put(d["norm"]["running_var"], 0, 0.0), "running_var: must be > 0"),
        (ck_bn, lambda d: d["norm"].update(eps=0.0), "norm.eps: must be > 0"),
        (ck_bn, lambda d: d["norm"].update(eps=nan), "norm.eps: non-finite"),
        (ck_bn, lambda d: d["norm"].update(eps="abc"), "bad value"),
    ]
    for ck, edit, message in cases:
        with pytest.raises(CheckpointFormatError, match=message):
            load_with(ck, edit)
    load_with(ck_bn, lambda d: None)  # the untouched dicts still load
    load_with(ck_fin, lambda d: None)
    # a malformed config block is a validation error, not an AttributeError
    with pytest.raises(ValidationError, match="optimizer must be a JSON object"):
        load_with(ck_fin, lambda d: d["config"].update(optimizer="adamw"))


def test_checkpoint_loader_checks_scalars_and_the_norm_kind():
    train_set, eval_set = tiny_data()
    ck_fin, _ = train(train_set, eval_set, tiny_config(norm_kind=NormKind.FAIR_IDENTITY))
    ck_bn, _ = train(train_set, eval_set, tiny_config(norm_kind=NormKind.BATCH))
    nan = float("nan")
    typed = "bad value in checkpoint: "
    cases = [
        (ck_fin, [], "epoch", "abc", typed + "'epoch' must be an integer, got 'abc'"),
        (ck_fin, [], "epoch", 3.7, typed + "'epoch' must be an integer, got 3.7"),
        (ck_fin, [], "epoch", True, typed + "'epoch' must be an integer, got True"),
        (ck_fin, [], "epoch", "5", typed + "'epoch' must be an integer, got '5'"),
        (ck_fin, [], "epoch", -4, "epoch must be >= 0, got -4"),
        (ck_fin, [], "version", True, typed + "'version' must be an integer, got True"),
        (ck_fin, ["norm"], "m", True, typed + "'norm.m' must be a number, got True"),
        (ck_fin, ["norm"], "m", "0.5", typed + "'norm.m' must be a number, got '0.5'"),
        (ck_fin, ["norm"], "m", 1.5, "momentum must lie in [0, 1], got 1.5"),
        (ck_fin, ["norm"], "m", nan, "momentum must lie in [0, 1], got nan"),
        (ck_fin, ["norm"], "m", 0.9, "norm.m 0.9 does not match config.fin_momentum 0.3"),
        (ck_bn, ["norm"], "bn_momentum", nan, "bn_momentum must lie in [0, 1], got nan"),
        (ck_bn, ["norm"], "bn_momentum", 7.0, "bn_momentum must lie in [0, 1], got 7.0"),
        (ck_bn, ["norm"], "bn_momentum", -1.0, "bn_momentum must lie in [0, 1], got -1.0"),
        (
            ck_bn, ["norm"], "bn_momentum", True,
            typed + "'norm.bn_momentum' must be a number, got True",
        ),
        (ck_bn, ["norm"], "eps", True, typed + "'norm.eps' must be a number, got True"),
    ]
    for kind in ("batch", "learnable_shared", "bogus", None):
        message = (
            f"norm.kind {kind!r} does not match config.norm_kind 'fair_identity'"
        )
        cases.append((ck_fin, ["norm"], "kind", kind, message))
    cases.append(
        (ck_bn, ["norm"], "kind", "fair_identity",
         "norm.kind 'fair_identity' does not match config.norm_kind 'batch'")
    )
    for ck, path, key, value, message in cases:
        data = copy.deepcopy(checkpoint_to_dict(ck))
        block = data[path[0]] if path else data
        if value is None:
            del block[key]
        else:
            block[key] = value
        with pytest.raises(CheckpointFormatError, match=re.escape(message)):
            checkpoint_from_dict(data)
    version = checkpoint_to_dict(ck_fin)
    version["version"] = 2
    with pytest.raises(CheckpointVersionError):
        checkpoint_from_dict(version)


def test_train_config_from_dict_takes_the_dataclass_defaults():
    required = {"layer_dims": [4, 3], "norm_kind": "batch", "epochs": 2, "batch_size": 5}
    config = train_config_from_dict(required)
    assert config == TrainConfig(
        layer_dims=(4, 3), norm_kind=NormKind.BATCH, epochs=2, batch_size=5
    )
    assert train_config_from_dict({**required, "optimizer": {}}) == config
    for key in required:  # each of the four stays required, in this order
        missing = {k: v for k, v in required.items() if k != key}
        with pytest.raises(ValidationError, match=rf"bad train config: KeyError\('{key}'\)"):
            train_config_from_dict(missing)


def test_train_config_round_trip():
    config = TrainConfig(
        layer_dims=(8, 4),
        norm_kind=NormKind.BATCH,
        fin_momentum=0.2,
        epochs=3,
        batch_size=4,
        optimizer=AdamWConfig(lr=1e-4, weight_decay=0.01),
        seed=5,
        threshold=0.45,
        shuffle=False,
    )
    data = train_config_to_dict(config)
    again = train_config_from_dict(data)
    assert again.layer_dims == config.layer_dims
    assert again.norm_kind is config.norm_kind
    assert again.optimizer.lr == config.optimizer.lr
    assert again.optimizer.weight_decay == config.optimizer.weight_decay
    assert again.threshold == config.threshold
    assert again.shuffle is False
    with pytest.raises(ValidationError):
        train_config_from_dict({"layer_dims": [4, 2]})

    with pytest.raises(ValidationError, match="bad train config"):
        train_config_from_dict({**data, "epochs": "abc"})
    with pytest.raises(ValidationError, match="epochs must be >= 1"):
        train_config_from_dict({**data, "epochs": 0})
    # configs are strict: JSON objects only, and no unknown keys
    with pytest.raises(ValidationError, match="train config must be a JSON object"):
        train_config_from_dict([data])
    with pytest.raises(
        ValidationError,
        match="unknown key 'fin_momentm' in train config; closest valid key is 'fin_momentum'",
    ):
        train_config_from_dict({**data, "fin_momentm": 0.5})
    with pytest.raises(
        ValidationError, match="unknown key 'learning_rate' in optimizer; closest"
    ):
        train_config_from_dict({**data, "optimizer": {"learning_rate": 0.1}})
    # values are typed: no silent bool(), int() or float() coercion
    for key, value, message in [
        ("shuffle", "false", "'shuffle' must be a boolean, got 'false'"),
        ("epochs", 2.7, "'epochs' must be an integer, got 2.7"),
        ("seed", 1.9, "'seed' must be an integer, got 1.9"),
        ("batch_size", True, "'batch_size' must be an integer, got True"),
        ("fin_momentum", True, "'fin_momentum' must be a number, got True"),
        ("threshold", "0.5", "'threshold' must be a number, got '0.5'"),
        ("layer_dims", [8, 4.0], "'layer_dims' must be an integer, got 4.0"),
    ]:
        with pytest.raises(ValidationError, match=re.escape(f"bad train config: {message}")):
            train_config_from_dict({**data, key: value})
    with pytest.raises(ValidationError, match="'lr' must be a number, got False"):
        train_config_from_dict({**data, "optimizer": {"lr": False}})
    with pytest.raises(ValidationError, match="'layer_dims' must be an integer, got '8'"):
        train_config_from_dict({**data, "layer_dims": "84"})
    # JSON integers are valid numbers, and booleans valid booleans
    loose = train_config_from_dict({**data, "fin_momentum": 1, "optimizer": {"lr": 1}})
    assert loose.fin_momentum == 1.0 and type(loose.fin_momentum) is float
    assert loose.optimizer.lr == 1.0
    assert train_config_from_dict({**data, "shuffle": True}).shuffle is True


def test_train_config_round_trip_keeps_every_field():
    config = TrainConfig(
        layer_dims=(7, 5, 3),
        norm_kind=NormKind.FAIR_IDENTITY,
        fin_momentum=0.25,
        epochs=4,
        batch_size=9,
        optimizer=AdamWConfig(lr=2e-3, beta1=0.8, beta2=0.95, eps=1e-6, weight_decay=0.05),
        seed=11,
        threshold=0.4,
        shuffle=False,
    )
    default = TrainConfig()
    for f in fields(TrainConfig):
        assert getattr(config, f.name) != getattr(default, f.name), f.name
    for f in fields(AdamWConfig):
        assert getattr(config.optimizer, f.name) != getattr(default.optimizer, f.name)
    data = train_config_to_dict(config)
    assert train_config_from_dict(data) == config
    assert list(data) == [
        "layer_dims", "norm_kind", "fin_momentum", "epochs", "batch_size",
        "optimizer", "seed", "threshold", "shuffle",
    ]
    assert list(data["optimizer"]) == ["lr", "beta1", "beta2", "eps", "weight_decay"]
    assert data["layer_dims"] == [7, 5, 3] and data["norm_kind"] == "fair_identity"


# every field whose JSON type is checked, with the kind its error names
TYPED_TRAIN_FIELDS = {
    "fin_momentum": "a number",
    "epochs": "an integer",
    "batch_size": "an integer",
    "seed": "an integer",
    "threshold": "a number",
    "shuffle": "a boolean",
}
TYPED_OPTIMIZER_FIELDS = {
    name: "a number" for name in ("lr", "beta1", "beta2", "eps", "weight_decay")
}


def refusals(kind):
    """Values a field of this kind refuses, each with the end of its error:
    a string, and for a number field the non-finite values json.load reads."""
    out = [("1", f"must be {kind}, got '1'")]
    if kind == "a number":
        non_finite = json.loads("[NaN, Infinity, -Infinity]")
        out += [(v, f"must be finite, got {v!r}") for v in non_finite]
    return out


def test_every_typed_config_field_refuses_a_string():
    data = train_config_to_dict(tiny_config())
    for key, kind in TYPED_TRAIN_FIELDS.items():
        for value, refusal in refusals(kind):
            message = f"'{key}' {refusal}"
            with pytest.raises(ValidationError, match=re.escape(f"bad train config: {message}")):
                train_config_from_dict({**data, key: value})
            with pytest.raises(ValidationError, match=re.escape(message)):
                replace(tiny_config(), **{key: value})
    for key, kind in TYPED_OPTIMIZER_FIELDS.items():
        for value, refusal in refusals(kind):
            message = f"bad optimizer config: '{key}' {refusal}"
            with pytest.raises(ValidationError, match=re.escape(message)):
                train_config_from_dict({**data, "optimizer": {key: value}})
            with pytest.raises(ValidationError, match=re.escape(message)):
                AdamWConfig(**{key: value})


# The numeric environment (numeric_fingerprint) every digest pin below was
# taken on; another OpenBLAS core or numpy's AVX2 paths give other bits.
PINNED_ON = (
    "numpy 2.4.6, dispatch X86_V3+X86_V4+AVX512_ICL+AVX512_SPR, "
    "OpenBLAS core SkylakeX"
)


def pin_message(case) -> str:
    """A digest pin's failure message: the case, where it was pinned, and
    where it ran."""
    return f"{case}: pinned on {PINNED_ON}; ran on {fingerprint()}"


# SHA-256 of the canonical checkpoint JSON for tiny_data() and tiny_config(),
# one per norm kind plus a FIN run with weight decay (the only guard on the
# decay path's bytes). Any change to the training step that moves a single
# checkpoint byte fails here.
PINNED_CHECKPOINT_SHA256 = {
    "none": "3a8329fe675cc192634b026d5ee66f07a43cc7f7eb7de192e9c9c44fbb090952",
    "batch": "dc7a4480bbe3508bc259d431a7a3d00fe08e36d6aa161b8b7957887f12efe81c",
    "learnable_shared": "1bd4a3b363f9b8b783379edb28f9722dc80bad5609574eef501add3278d74241",
    "fair_identity": "5f0883831a11044205187e4c85d4b31776e502e1d956744b07c6ca623541405e",
    "fair_identity+decay": "b86e8ca475954aa5cc46bd31863e1b4b3065d18d3445bff366ff364a1c45e409",
}


@pytest.mark.parametrize("case", sorted(PINNED_CHECKPOINT_SHA256))
def test_checkpoint_bytes_are_pinned(case):
    kind, _, decay = case.partition("+")
    optimizer = AdamWConfig(lr=1e-3, weight_decay=0.1 if decay else 0.0)
    config = tiny_config(norm_kind=NormKind(kind), optimizer=optimizer)
    train_set, eval_set = tiny_data()
    ck, _ = train(train_set, eval_set, config)
    digest = hashlib.sha256(dumps_canonical(checkpoint_to_dict(ck)).encode()).hexdigest()
    assert digest == PINNED_CHECKPOINT_SHA256[case], pin_message(case)


# SHA-256 of the canonical checkpoint JSON of every seed of one run_seeds
# call: a 3-layer backbone, batch 13 on 48 rows (the last batch of each
# epoch is short) and weight decay 0.1, per norm kind. The digests were
# computed with the one-seed-at-a-time training loop, so they pin the
# lockstep multi-seed loop to it byte for byte.
PINNED_MULTI_SEED_SHA256 = {
    ("none", 3): "5531eca987833712a0fc75eefb730826e9cbe57a3927d898fc33289c38fa3a01",
    ("none", 4): "1d50b4eca7791519339522a385f4192d91053d57fc392502a5c031dd33c51a93",
    ("none", 5): "981b8a658604a16d822550c3e8adbf86b0a989c813906ce1ea1033cc046e2410",
    ("batch", 3): "0799cb053e2d95adec3591173912f5a5b8875942833513a2f6b230b6840b3114",
    ("batch", 4): "8689ea60271ae4d20eb9441c5594c792d4846255771899b7d5b6a909dacd970d",
    ("batch", 5): "dcde41e505fde21298ea12afd330d3fe1c1ef3d95102f49e369cd601bba979b4",
    ("learnable_shared", 3): "bd9cfa6b91c08cab75d35552e94a187c7c2d01d78a5cffe94c95e7e07963d1c0",
    ("learnable_shared", 4): "5e3a62ebf0ed93df3c7117546c9d3d17843cc881fe812d55fe964c6d50c3b118",
    ("learnable_shared", 5): "65134a7f2000c05c3fab1424eda8d5bd1b20adf11b3b0b88e2d7cc6b527e0de6",
    ("fair_identity", 3): "2242127dc1b7fb9b0da368c04a38829277eab173cf023e04933a10284d2b1ce3",
    ("fair_identity", 4): "e63a9eb1e30b2b78f7cd79a17f4e07183399dde0c9144eb3965b288715d517a2",
    ("fair_identity", 5): "ca03b78e9c9333e012ae1525e5b23bfb63f06f3a64843a03d08543124797ef6d",
}


def at_stack_sizes(cases):
    """pytest params: each case at STACK_MODELS 16 under its own id, then at 2.

    With 2, the seeds (3, 4, 5) of a run train as a stack of 2 and one of 1.
    """
    return [
        pytest.param(case, stack, id=case if stack == 16 else f"{case}-stack{stack}")
        for stack in (16, 2)
        for case in cases
    ]


@pytest.mark.parametrize("kind, stack", at_stack_sizes([k.value for k in NormKind]))
def test_multi_seed_checkpoint_bytes_are_pinned(kind, stack, monkeypatch):
    monkeypatch.setattr(TRAIN_MODULE, "STACK_MODELS", stack)
    config = tiny_config(
        layer_dims=(4, 7, 6, 5),
        batch_size=13,
        norm_kind=NormKind(kind),
        optimizer=AdamWConfig(lr=1e-3, weight_decay=0.1),
    )
    train_set, eval_set = tiny_data()
    assert len(train_set) % config.batch_size  # a short final batch
    agg = run_seeds(train_set, eval_set, config, seeds=(3, 4, 5))
    assert [ck.config.seed for ck in agg.checkpoints] == [3, 4, 5]  # none dropped
    for seed, ck in zip(agg.seeds, agg.checkpoints):
        digest = hashlib.sha256(canonical_bytes(ck).encode()).hexdigest()
        assert digest == PINNED_MULTI_SEED_SHA256[kind, seed], pin_message((kind, seed))


# SHA-256 of the predictions CSV and the report JSON that `evaluate` writes
# for the tiny_config() checkpoint of each norm kind, scored on tiny_data()'s
# eval split: these pin the inference forward, which the checkpoint digests
# above never run.
PINNED_INFERENCE_SHA256 = {
    "none": (
        "8cda9a43f7a07e45a61e2a6594d8751128cabd1cbd2fccb113c193f306586df4",
        "f9ed0a205e8022b31a919db66988ba64d6c022db073c5dbdc4fcac02ad28743f",
    ),
    "batch": (
        "2c2ae988ad038a2bab8ba8fc8a5a21a1886c272b03123ce05eb43c27687948d2",
        "1d4a485c1741ce391a997884308a149d4fa58b3a64222095d6d2373556c9deff",
    ),
    "learnable_shared": (
        "37d6af5f54ca1574924f72461d5a5afefa11fa53e957ac942b5d3a2b4bffd713",
        "7ce7751b07f7777b34687b613bd04157a82fe9873bc7faf276485c2e7e2acaa1",
    ),
    "fair_identity": (
        "daee1fcb6324ed02e4a32f329768236ccfe938d7ddf2444320e2e0d433638ad2",
        "2f69371659308ff3813a910156370396b87895dfbcda2d28485451e4f7d448db",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_INFERENCE_SHA256))
def test_inference_bytes_are_pinned(kind, tmp_path):
    train_set, eval_set = tiny_data()
    ck, _ = train(train_set, eval_set, tiny_config(norm_kind=NormKind(kind)))
    predictions, report = evaluate_model(ck, eval_set)
    write_predictions_csv(predictions, str(tmp_path / "preds.csv"))
    write_pretty_json(metric_report_to_dict(report), str(tmp_path / "report.json"))
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("preds.csv", "report.json")
    )
    assert digests == PINNED_INFERENCE_SHA256[kind], pin_message(kind)


# The same two files for a (4, 16, 8) model scored on 1,026 eval rows,
# which the inference forward takes in five blocks (four of 256 rows and
# one of 2); computed before the forward scored in blocks.
PINNED_BLOCKED_INFERENCE_SHA256 = {
    "none": (
        "9a443b3825170c7408c11acb72c47bca430416c8c38ce9ed9456695548025642",
        "d05cc3be0688c343fb53e81a237100f28e1b35127e5cb8a94e31508d786b8144",
    ),
    "batch": (
        "616557feedc437b269811a68872f4ef78dc696e377d2656dfe89532d387fd2d9",
        "e9f2d6fe258cb6846bb4618fbbae071085bb0b70c528b992980c6c86d12b4362",
    ),
    "learnable_shared": (
        "ec8a3c4a64a83f664bb03d44325f5b633286183bc05f54d8faf5d5dfb6ebbdcb",
        "94767b0e94e8cce099c74334cbdaf6e09bb75a121b289be101978b73897bf91e",
    ),
    "fair_identity": (
        "b5d2a0853a4f10ab2ed43648ac35f39cf9a4577f4658f1a1e0cff7dff6ec9781",
        "a14d1b88653c7216f2eefc7a3aca054b62c789c2ed883b0b8dc51dd65d0083c5",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_BLOCKED_INFERENCE_SHA256))
def test_blocked_inference_bytes_are_pinned(kind, tmp_path):
    train_set, eval_set = tiny_data(n_eval=513)
    config = tiny_config(layer_dims=(4, 16, 8), norm_kind=NormKind(kind))
    ck, _ = train(train_set, eval_set, config)
    predictions, report = evaluate_model(ck, eval_set)
    write_predictions_csv(predictions, str(tmp_path / "preds.csv"))
    write_pretty_json(metric_report_to_dict(report), str(tmp_path / "report.json"))
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("preds.csv", "report.json")
    )
    assert digests == PINNED_BLOCKED_INFERENCE_SHA256[kind], pin_message(kind)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(NormKind)),
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    groups=st.integers(1, 5),
    m=st.floats(0.0, 1.0),
    bn=st.tuples(st.floats(1e-12, 1.0), st.floats(0.0, 1.0)),
    epoch=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_checkpoint_write_read_write_is_byte_identical(
    kind, dims, groups, m, bn, epoch, seed
):
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, kind, groups, rng, fin_momentum=m)
    if kind is NormKind.BATCH:  # trained-looking statistics, not the defaults
        norm = model.norm
        norm.gamma, norm.beta, norm.running_mean = rng.standard_normal((3, dims[-1]))
        norm.running_var = np.exp(rng.standard_normal(dims[-1]))
        norm.eps, norm.bn_momentum = bn
    config = TrainConfig(layer_dims=tuple(dims), norm_kind=kind, fin_momentum=m)
    ck = Checkpoint(version=CHECKPOINT_VERSION, config=config, model=model, epoch=epoch)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        save_checkpoint(ck, str(first))
        save_checkpoint(load_checkpoint(str(first)), str(second))
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("kind, stack", at_stack_sizes(["batch", "fair_identity"]))
def test_a_seed_trains_the_same_alone_or_among_others(kind, stack, monkeypatch):
    monkeypatch.setattr(TRAIN_MODULE, "STACK_MODELS", stack)
    # 50 rows in batches of 7: batch norm skips the singleton last batch
    train_set, eval_set = tiny_data(n_train=25)
    config = tiny_config(norm_kind=NormKind(kind), batch_size=7)
    many = run_seeds(train_set, eval_set, config, seeds=(1, 2, 3))
    one = run_seeds(train_set, eval_set, config, seeds=(2,))
    solo_ck, solo_history = train(train_set, eval_set, replace(config, seed=2))
    runs = [
        (many.checkpoints[1], many.histories[1]),
        (one.checkpoints[0], one.histories[0]),
        (solo_ck, solo_history),
    ]
    for ck, history in runs:
        assert ck.config.seed == 2
        assert canonical_bytes(ck) == canonical_bytes(solo_ck)
        assert history.losses == solo_history.losses
        assert history.reports == solo_history.reports


def test_batch_norm_refuses_a_one_row_train_set():
    # every batch of it would be the singleton that training-mode batch norm
    # skips, so the run would take no step at all
    train_set, eval_set = tiny_data()
    one = Dataset(
        train_set.attribute_set, train_set.x[:1], train_set.labels[:1],
        train_set.attrs[:1], train_set.ids[:1],
    )
    with pytest.raises(ValidationError, match="needs batch size >= 2 in training mode"):
        train(one, eval_set, tiny_config(norm_kind=NormKind.BATCH))
    train(one, eval_set, tiny_config(norm_kind=NormKind.FAIR_IDENTITY))


def test_eval_group_id_beyond_the_train_groups_is_refused():
    # the eval set knows a third group the model has no parameters for; with
    # two seeds in one run that id must not reach the second seed's rows
    train_set, _ = tiny_data()
    _, eval_set = generate(
        SynthConfig(
            d=4,
            groups=(
                GroupSpec("g0", 8, 6, 0.5, 2.0, 1.0),
                GroupSpec("g1", 8, 6, 0.5, 1.2, -1.0),
                GroupSpec("g2", 8, 6, 0.5, 1.0, 0.0),
            ),
        )
    )
    config = tiny_config(norm_kind=NormKind.FAIR_IDENTITY)
    with pytest.raises(ValidationError, match="attribute id 2 out of range for 2 groups"):
        run_seeds(train_set, eval_set, config, seeds=(1, 2))
    with pytest.raises(ValidationError, match="out of range"):
        train(train_set, eval_set, config)


def reference_train_seeds(train_set, config, seeds):
    """The lockstep training loop, step by step through the public ops.

    Each step gathers its rows with x[idx], then runs the public forward,
    cross_entropy, backward (into the optimizer's gradient views) and
    adamw_step, every one of which checks its inputs. Returns each seed's
    canonical checkpoint JSON and per-epoch mean losses.
    """
    models, shuffle_rngs = [], []
    for seed in seeds:
        init_ss, shuffle_ss = np.random.SeedSequence(seed).spawn(2)
        models.append(
            init_mlp(
                config.layer_dims,
                config.norm_kind,
                train_set.attribute_set.group_count,
                np.random.default_rng(init_ss),
                fin_momentum=config.fin_momentum,
            )
        )
        shuffle_rngs.append(np.random.default_rng(shuffle_ss))
    model = stack_models(models)
    params = named_parameters(model)
    state = AdamWState.create(params)
    x, y, a = train_set.x, train_set.labels, train_set.attrs
    n = len(train_set)
    losses = [[] for _ in seeds]
    for _ in range(config.epochs):
        if config.shuffle:
            order = np.stack([rng.permutation(n) for rng in shuffle_rngs])
        else:
            order = np.broadcast_to(np.arange(n), (len(seeds), n))
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[:, start : start + config.batch_size]
            if idx.shape[1] == 1 and config.norm_kind is NormKind.BATCH:
                continue
            logits, caches = forward(model, x[idx], a[idx], mode="training")
            loss, grad_logits = cross_entropy(logits, y[idx])
            backward(model, caches, grad_logits, out=state.grad)
            adamw_step(params, state.grad, state, config.optimizer)
            batch_losses.append(loss)
        for i, seed_losses in enumerate(losses):
            seed_losses.append(float(np.mean([loss[i] for loss in batch_losses])))
    return [
        (
            canonical_bytes(
                Checkpoint(
                    version=CHECKPOINT_VERSION,
                    config=replace(config, seed=seed),
                    model=model_slice(model, i),
                    epoch=config.epochs,
                )
            ),
            losses[i],
        )
        for i, seed in enumerate(seeds)
    ]


@pytest.mark.parametrize("shuffle", [True, False], ids=["shuffled", "in-order"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1], ids=["no-decay", "decay"])
@pytest.mark.parametrize("seeds", [(2,), (3, 1, 2)], ids=["1-seed", "3-seeds"])
@pytest.mark.parametrize("kind", [k.value for k in NormKind])
def test_training_matches_the_step_by_step_reference_loop(kind, seeds, weight_decay, shuffle):
    # 50 rows in batches of 7: the last batch is a singleton, kept as a short
    # batch by every kind but batch norm, which skips it
    train_set, eval_set = tiny_data(n_train=25, n_eval=6)
    config = tiny_config(
        layer_dims=(4, 7, 6, 5),
        batch_size=7,
        norm_kind=NormKind(kind),
        optimizer=AdamWConfig(lr=1e-2, weight_decay=weight_decay),
        shuffle=shuffle,
        epochs=3,
    )
    agg = run_seeds(train_set, eval_set, config, seeds)
    expected = reference_train_seeds(train_set, config, seeds)
    for ck, history, (ck_bytes, losses) in zip(agg.checkpoints, agg.histories, expected):
        assert canonical_bytes(ck) == ck_bytes
        assert history.losses == losses
