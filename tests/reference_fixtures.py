"""Shared oracles and reference data for the test suite.

pairs_auc is an independent AUC implementation (all positive/negative pairs
counted directly, ties worth 1/2) used to cross-check the rank-based one.
midranks_auc is the earlier rank form, which built a per-record array of
midranks from a stable sort, and add_at_histogram the earlier histogram
tally, one np.add.at per confusion kind; add_at_fin_backward is the earlier
FIN backward, which summed each group's gradients with np.add.at into
zeros. All three are kept as references for the kernels that replaced them.

reconciliation_records builds a 600-record prediction set whose overall and
per-group AUCs are exact four-decimal values, so the equity-scaled pipeline
can be checked end to end against hand-counted pair totals:

    overall 0.8695, groups 0.8929 / 0.8166 / 0.8936
    delta 0.1004, es-auc 0.7902 (4 dp), dpd 0.495, deodds 0.7

The construction places each group's records in disjoint score bands and
lifts a controlled number of positives above everything, so every win count
is a product or sum of small integers: within-group wins 8929 + 8166 + 8936
and cross-group wins 52224 give 78255 of 90000 pairs overall.

same_predictions compares two prediction sets bit for bit: score bytes,
ids, labels and groups (never a tolerance).
"""

import numpy as np

from fin_equity import AttributeSet, Predictions


def pairs_auc(scores, labels):
    """Mann-Whitney AUC by direct pair counting; ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    sp = scores[labels == 1]
    sn = scores[labels == 0]
    if sp.size == 0 or sn.size == 0:
        raise ValueError("needs both classes")
    diff = sp[:, None] - sn[None, :]
    wins = np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)
    return wins / (sp.size * sn.size)


def midranks_auc(scores, labels):
    """AUC from the positives' sum of 1-based midranks over a stable sort."""
    x = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    order = np.argsort(x, kind="stable")
    sx = x[order]
    edges = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1], True])
    mid = 0.5 * (edges[:-1] + edges[1:] + 1)  # mean of 1-based ranks in each run
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(mid, np.diff(edges))
    n_pos = int(np.count_nonzero(pos))
    n_neg = x.size - n_pos
    rank_sum = float(np.sum(ranks[pos]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def add_at_fin_backward(grad_out, saved):
    """(grad_z, grad_mu, grad_tau) of the FIN backward, summed with np.add.at."""
    m, rows, sigma, sig_grad, centered = saved
    one_m = 1.0 - m
    sig_rows = sigma[rows]
    grad_z = grad_out * (one_m / sig_rows + m)
    per_mu = -grad_out * (one_m / sig_rows)
    per_sigma = -grad_out * one_m * centered / (sig_rows * sig_rows)
    dim = sig_grad.shape[-1]
    grad_mu = np.zeros(sig_grad.shape)
    grad_sigma = np.zeros(sig_grad.shape)
    rows = rows.ravel()
    np.add.at(grad_mu.reshape(-1, dim), rows, per_mu.reshape(-1, dim))
    np.add.at(grad_sigma.reshape(-1, dim), rows, per_sigma.reshape(-1, dim))
    return grad_z, grad_mu, grad_sigma * sig_grad


def add_at_histogram(scores, labels, threshold, bins):
    """Per-bin tp/fp/tn/fn counts, one masked np.add.at per kind."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    decisions = (scores >= threshold).astype(np.int64)
    edges = np.arange(bins + 1) / bins
    idx = np.minimum(np.searchsorted(edges, scores, side="right") - 1, bins - 1)
    kinds = np.where(
        decisions == 1,
        np.where(labels == 1, 0, 1),  # tp / fp
        np.where(labels == 1, 3, 2),  # fn / tn
    )
    counts = {}
    for k, name in enumerate(("tp", "fp", "tn", "fn")):
        counts[name] = np.zeros(bins, dtype=np.int64)
        np.add.at(counts[name], idx[kinds == k], 1)
    return counts


# (count, group, label) runs in ascending score order; slot i scores (i+1)/601
RECON_RUNS = (
    (18, 1, 1), (66, 1, 0), (1, 1, 1), (34, 1, 0),
    (10, 2, 1), (36, 2, 0), (1, 2, 1), (64, 2, 0), (28, 2, 1),
    (10, 0, 1), (24, 0, 0), (1, 2, 1), (5, 0, 0), (1, 0, 1), (71, 0, 0), (89, 0, 1),
    (81, 1, 1), (60, 2, 1),
)

RECON_OVERALL_AUC = 78255 / 90000  # == 0.8695 exactly at 4 decimals
RECON_GROUP_AUC = {0: 8929 / 10000, 1: 8166 / 10000, 2: 8936 / 10000}
RECON_ES_AUC_4DP = 0.7902
RECON_DPD = 0.495
RECON_DEODDS = 0.7


def reconciliation_records():
    ids, scores, labels, attrs = [], [], [], []
    slot = 0
    for count, group, label in RECON_RUNS:
        for _ in range(count):
            ids.append(f"x{slot:03d}")
            scores.append((slot + 1) / 601.0)
            labels.append(label)
            attrs.append(group)
            slot += 1
    assert slot == 600
    return Predictions(ids, scores, labels, attrs), AttributeSet.default(3)


def same_predictions(a, b):
    """Bitwise equality of two Predictions: score bytes, ids, labels, groups."""
    return (
        a.ids == b.ids
        and a.scores.tobytes() == b.scores.tobytes()
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.attrs, b.attrs)
    )


def numeric_grad(loss_fn, param, h=1e-5):
    """Central-difference gradient of loss_fn w.r.t. param, in place.

    loss_fn takes no arguments and must read the live param array, which is
    perturbed one entry at a time and restored.
    """
    grad = np.zeros_like(param, dtype=np.float64)
    flat = param.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = loss_fn()
        flat[i] = orig - h
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst elementwise relative error, floored to tolerate exact zeros."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0
