"""Audit a batch of scored predictions with the equity-scaled metric family.

Builds a small prediction set by hand where one group is scored noticeably
worse than the others, then walks through the report: overall accuracy and
AUC, the per-group breakdown, the discrepancy sum, and the deflated
equity-scaled figures. The point of the exercise: two models with the same
overall AUC can audit very differently once group gaps enter the picture.
"""

import numpy as np

from fin_equity import (
    AttributeSet,
    Predictions,
    discrepancy,
    equity_scaled,
    full_report,
)


def main():
    rng = np.random.default_rng(7)
    ids, scores, labels, attrs = [], [], [], []
    # higher quality -> scores separate the classes more cleanly;
    # group 1 is the under-served group
    for group, quality in enumerate((0.55, 0.20, 0.50)):
        for i in range(200):
            label = int(rng.random() < 0.5)
            score = np.clip(0.5 + (label - 0.5) * quality + 0.15 * rng.standard_normal(), 0.0, 1.0)
            ids.append(f"g{group}-{i:03d}")
            scores.append(float(score))
            labels.append(label)
            attrs.append(group)
    predictions = Predictions(ids, scores, labels, attrs)
    groups = AttributeSet.default(3)
    report = full_report(predictions, groups)

    overall = report.overall
    print("overall:  acc {:.4f}  auc {:.4f}".format(overall["accuracy"], overall["auc"]))
    for gid in sorted(report.per_group):
        by_group = report.per_group[gid]
        print(
            "  group {}: acc {:.4f}  auc {:.4f}".format(
                gid, by_group["accuracy"], by_group["auc"]
            )
        )
    print("discrepancy (auc): {:.4f}".format(report.delta["auc"]))
    print(
        "es-acc {:.4f}   es-auc {:.4f}".format(
            report.equity_scaled["accuracy"], report.equity_scaled["auc"]
        )
    )
    print("dpd {:.4f}   deodds {:.4f}".format(report.dpd, report.deodds))

    # the same overall number with no gaps audits strictly better
    auc = overall["auc"]
    flat = equity_scaled(auc, discrepancy(auc, {g: auc for g in range(3)}))
    print()
    print(
        "same overall auc with zero group gaps would score es-auc {:.4f} "
        "(vs {:.4f} here)".format(flat, report.equity_scaled["auc"])
    )


if __name__ == "__main__":
    main()
