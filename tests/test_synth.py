import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fin_equity import (
    GroupSpec,
    SynthConfig,
    ValidationError,
    auc,
    bayes_scores,
    default_benchmark,
    generate,
    synth_config_from_dict,
    synth_config_to_dict,
)


def spec(name="g", n_train=40, n_eval=20, prevalence=0.5, separation=2.0, offset=0.0):
    return GroupSpec(
        name=name,
        n_train=n_train,
        n_eval=n_eval,
        prevalence=prevalence,
        separation=separation,
        offset=offset,
    )


def two_group_config(seed=0):
    return SynthConfig(
        d=4,
        seed=seed,
        groups=(
            spec("g0", prevalence=0.474, offset=1.0),
            spec("g1", prevalence=0.614, separation=1.2, offset=-1.0),
        ),
    )


def test_exact_class_counts():
    config = two_group_config()
    train, evaluation = generate(config)
    labels = train.labels
    attrs = train.attrs
    # floor(p * n + 0.5): 0.474 * 40 = 18.96 -> 19 ; 0.614 * 40 = 24.56 -> 25
    assert int(labels[attrs == 0].sum()) == 19
    assert int(labels[attrs == 1].sum()) == 25
    ev_labels = evaluation.labels
    ev_attrs = evaluation.attrs
    # 0.474 * 20 = 9.48 -> 9 ; 0.614 * 20 = 12.28 -> 12
    assert int(ev_labels[ev_attrs == 0].sum()) == 9
    assert int(ev_labels[ev_attrs == 1].sum()) == 12


def test_half_up_rounding_of_prevalence():
    config = SynthConfig(d=2, groups=(spec(n_train=2, n_eval=2, prevalence=0.25),))
    train, _ = generate(config)
    # 0.25 * 2 = 0.5 rounds up, independent of integer parity
    assert int(train.labels.sum()) == 1


def test_sizes_and_ids():
    train, evaluation = generate(two_group_config())
    assert len(train) == 80 and len(evaluation) == 40
    ids = train.ids
    assert len(set(ids)) == len(ids)
    assert all(i.startswith("tr-g") for i in ids)
    assert all(i.startswith("ev-g") for i in evaluation.ids)
    assert train.attribute_set.names == ("g0", "g1")
    # id encodes the group: tr-g{gid}-{index}
    for sid, gid in zip(train.ids, train.attrs):
        assert sid.split("-")[1] == f"g{gid}"


def test_generation_is_deterministic():
    a_train, a_eval = generate(two_group_config(seed=3))
    b_train, b_eval = generate(two_group_config(seed=3))
    assert np.array_equal(a_train.x, b_train.x)
    assert np.array_equal(a_eval.x, b_eval.x)
    assert a_train.ids == b_train.ids
    c_train, _ = generate(two_group_config(seed=4))
    assert not np.array_equal(a_train.x, c_train.x)


def test_split_order_is_shuffled_but_canonical_under_the_ids():
    train, _ = generate(two_group_config(seed=1))
    assert list(train.ids) != sorted(train.ids)  # a shuffle happened
    # sorting by id recovers the build order: all label-0 rows of a group
    # come before its label-1 rows
    by_id = np.argsort(train.ids, kind="stable")
    for gid in (0, 1):
        labels = [int(train.labels[i]) for i in by_id if train.attrs[i] == gid]
        assert labels == sorted(labels)


def test_group_feature_structure():
    config = SynthConfig(
        d=3,
        seed=5,
        groups=(spec("a", n_train=4000, n_eval=10, offset=2.0, separation=1.5),),
    )
    train, _ = generate(config)
    x = train.x
    labels = train.labels
    # off-signal coordinates sit at the group offset
    assert np.mean(x[:, 1]) == pytest.approx(2.0, abs=0.1)
    assert np.mean(x[:, 2]) == pytest.approx(2.0, abs=0.1)
    # the first coordinate carries the class separation
    gap = np.mean(x[labels == 1, 0]) - np.mean(x[labels == 0, 0])
    assert gap == pytest.approx(1.5, abs=0.12)
    assert np.std(x[labels == 0, 0]) == pytest.approx(1.0, abs=0.08)


def test_bayes_scores_remove_the_offset():
    config = two_group_config(seed=2)
    train, _ = generate(config)
    scores = bayes_scores(train, config)
    x0 = train.x[:, 0]
    attrs = train.attrs
    offsets = np.where(attrs == 0, 1.0, -1.0)
    assert np.allclose(scores, x0 - offsets, atol=1e-15)


def test_bayes_auc_approaches_the_closed_form():
    # per-group optimal AUC is Phi(separation / sqrt(2)) for unit noise
    config = SynthConfig(
        d=2,
        seed=11,
        groups=(spec("a", n_train=2, n_eval=3000, separation=2.0, offset=0.7),),
    )
    _, evaluation = generate(config)
    scores = bayes_scores(evaluation, config)
    empirical = auc(scores, evaluation.labels)
    closed = 0.5 * (1.0 + math.erf(2.0 / 2.0))
    assert closed == pytest.approx(0.9214, abs=5e-5)
    assert empirical == pytest.approx(closed, abs=0.02)


def test_default_benchmark_shape():
    config = default_benchmark()
    assert config.d == 20 and config.seed == 42
    assert tuple(g.name for g in config.groups) == ("group0", "group1", "group2")
    assert [g.separation for g in config.groups] == [2.0, 1.2, 1.8]
    assert [g.offset for g in config.groups] == [1.0, -1.0, 0.0]
    assert [g.prevalence for g in config.groups] == [0.474, 0.614, 0.484]
    assert all(g.n_train == 1000 and g.n_eval == 300 for g in config.groups)
    assert all(g.noise_std == 1.0 for g in config.groups)


def test_config_from_dict_takes_the_dataclass_defaults():
    group = {"name": "a", "n_train": 5, "n_eval": 4, "prevalence": 0.5,
             "separation": 1.0, "offset": 0.0}
    config = synth_config_from_dict({"d": 3, "groups": [group]})
    assert config == SynthConfig(d=3, groups=(GroupSpec(**group),))
    assert config.seed == 0 and config.groups[0].noise_std == 1.0
    for key in group:  # each group's six keys stay required
        with pytest.raises(ValidationError, match=rf"bad synth config: KeyError\('{key}'\)"):
            synth_config_from_dict(
                {"d": 3, "groups": [{k: v for k, v in group.items() if k != key}]}
            )
    with pytest.raises(ValidationError, match=r"bad synth config: KeyError\('d'\)"):
        synth_config_from_dict({"groups": [group]})


def test_config_round_trip():
    config = default_benchmark(seed=9)
    again = synth_config_from_dict(synth_config_to_dict(config))
    assert again == config
    with pytest.raises(ValidationError):
        synth_config_from_dict({"groups": []})
    # configs are strict: JSON objects only, and no unknown keys
    data = synth_config_to_dict(config)
    with pytest.raises(ValidationError, match="synth config must be a JSON object"):
        synth_config_from_dict("d=20")
    with pytest.raises(
        ValidationError, match="unknown key 'sed' in synth config; closest valid key is 'seed'"
    ):
        synth_config_from_dict({**data, "sed": 3})
    data["groups"][1]["seperation"] = 1.0
    with pytest.raises(
        ValidationError,
        match="unknown key 'seperation' in synth config group 1; closest valid key is 'separation'",
    ):
        synth_config_from_dict(data)
    data["groups"][1] = ["group1"]
    with pytest.raises(ValidationError, match="group 1 must be a JSON object"):
        synth_config_from_dict(data)
    # values are typed: no silent int() or float() coercion
    data = synth_config_to_dict(config)
    with pytest.raises(ValidationError, match=r"'d' must be an integer, got 4\.5"):
        synth_config_from_dict({**data, "d": 4.5})
    with pytest.raises(ValidationError, match="'seed' must be an integer, got True"):
        synth_config_from_dict({**data, "seed": True})
    data["groups"][0]["n_train"] = 10.0
    with pytest.raises(ValidationError, match=r"'n_train' must be an integer, got 10\.0"):
        synth_config_from_dict(data)
    data["groups"][0]["n_train"] = 10
    data["groups"][0]["offset"] = False
    with pytest.raises(ValidationError, match="'offset' must be a number, got False"):
        synth_config_from_dict(data)


def test_config_round_trip_keeps_every_field():
    group = GroupSpec(
        name="only", n_train=7, n_eval=5, prevalence=0.3,
        separation=0.7, offset=-2.5, noise_std=0.25,
    )
    config = SynthConfig(d=3, groups=(group, replace(group, name="other")), seed=13)
    assert config.seed != 0 and group.noise_std != 1.0
    data = synth_config_to_dict(config)
    assert synth_config_from_dict(data) == config
    assert list(data) == ["d", "seed", "groups"]
    assert list(data["groups"][0]) == [
        "name", "n_train", "n_eval", "prevalence", "separation", "offset", "noise_std",
    ]


# every field whose JSON type is checked, with the kind its error names
TYPED_SYNTH_FIELDS = {"d": "an integer", "seed": "an integer"}
TYPED_GROUP_FIELDS = {
    "n_train": "an integer",
    "n_eval": "an integer",
    "prevalence": "a number",
    "separation": "a number",
    "offset": "a number",
    "noise_std": "a number",
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
    config = two_group_config()
    data = synth_config_to_dict(config)
    for key, kind in TYPED_SYNTH_FIELDS.items():
        for value, refusal in refusals(kind):
            message = f"bad synth config: '{key}' {refusal}"
            with pytest.raises(ValidationError, match=re.escape(message)):
                synth_config_from_dict({**data, key: value})
            with pytest.raises(ValidationError, match=re.escape(message)):
                replace(config, **{key: value})
    for key, kind in TYPED_GROUP_FIELDS.items():
        for value, refusal in refusals(kind):
            message = f"bad synth config: '{key}' {refusal}"
            groups = [{**data["groups"][0], key: value}, data["groups"][1]]
            with pytest.raises(ValidationError, match=re.escape(message)):
                synth_config_from_dict({**data, "groups": groups})
            with pytest.raises(ValidationError, match=re.escape(message)):
                replace(config.groups[0], **{key: value})


def test_group_spec_validation():
    with pytest.raises(ValidationError, match="'n_eval' must be an integer, got 2.5"):
        spec(n_eval=2.5)
    with pytest.raises(ValidationError, match="'d' must be an integer, got True"):
        SynthConfig(d=True, groups=(spec(),))
    with pytest.raises(ValidationError):
        spec(prevalence=0.0)
    with pytest.raises(ValidationError):
        spec(prevalence=1.0)
    with pytest.raises(ValidationError):
        spec(separation=-0.5)
    with pytest.raises(ValidationError):
        spec(n_train=0)
    with pytest.raises(ValidationError):
        GroupSpec("g", 2, 2, 0.5, 1.0, 0.0, noise_std=0.0)
    with pytest.raises(ValidationError):
        SynthConfig(d=1, groups=(spec(),))
    with pytest.raises(ValidationError):
        SynthConfig(d=4, groups=(spec("same"), spec("same")))
    with pytest.raises(ValidationError):
        SynthConfig(d=4, groups=())
    # the feature values are capped before anything is drawn
    two_groups = (spec("a", 4 * 10**5, 10**5), spec("b", 4 * 10**5, 10**5))
    assert SynthConfig(d=100, groups=two_groups)  # exactly MAX_CELLS
    with pytest.raises(ValidationError, match="more than MAX_CELLS = 100000000"):
        SynthConfig(d=101, groups=two_groups)
    with pytest.raises(ValidationError, match="d = 100000000 over every group"):
        SynthConfig(d=10**8, groups=(spec(),))
