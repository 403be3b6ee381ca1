"""Poke at the identity-aware normalizer and check its gradients by hand.

Runs the layer (a `FinParams` object: `rows`, then `forward`) on a
two-sample batch, backpropagates a unit gradient through its `backward`,
and compares every analytic derivative against central finite
differences. Finishes with the two degeneracies worth knowing: blend 1.0
passes features through untouched, and a model with the shared learnable
normalizer gives the bits of a one-group identity-aware model drawn from
the same generator.
"""

import math

import numpy as np

from fin_equity import FinParams, NormKind, forward, init_mlp, softplus


def finite_diff(f, arr, h=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        keep = arr[ix]
        arr[ix] = keep + h
        hi = f()
        arr[ix] = keep - h
        lo = f()
        arr[ix] = keep
        g[ix] = (hi - lo) / (2 * h)
    return g


def layer(params, z, attrs):
    """The layer's training forward: (output, values saved for backward)."""
    return params.forward(z, params.rows(attrs, len(z), True), True)


def main():
    mu = np.array([[1.0, 0.0], [-0.5, 0.25]])
    tau = np.array([[math.log(math.e**2 - 1), math.log(math.e - 1)], [0.3, -0.2]])
    params = FinParams(mu=mu, tau=tau, momentum=0.3)
    z = np.array([[3.0, -1.0], [0.5, 2.0]])
    attrs = np.array([0, 1])

    out, saved = layer(params, z, attrs)
    print("input:\n", z)
    print("sigma per group:\n", softplus(tau))
    print("output (blend 0.3):\n", out)

    grads = {"norm.mu": np.empty_like(mu), "norm.tau": np.empty_like(tau)}
    grad_z = params.backward(np.ones_like(out), saved, grads)
    grad_mu, grad_tau = grads["norm.mu"], grads["norm.tau"]

    def total():
        return float(layer(params, z, attrs)[0].sum())

    for name, analytic, arr in (
        ("d/d input", grad_z, z),
        ("d/d mu", grad_mu, mu),
        ("d/d tau", grad_tau, tau),
    ):
        numeric = finite_diff(total, arr)
        worst = float(np.abs(analytic - numeric).max())
        print(f"{name}: max |analytic - numeric| = {worst:.2e}")

    # blend 1.0 is a bitwise no-op
    passthrough = FinParams(mu=mu.copy(), tau=tau.copy(), momentum=1.0)
    out1, _ = layer(passthrough, z, attrs)
    print("blend 1.0 returns the input bitwise:", bool((out1 == z).all()))

    # one group == shared learnable layer, as whole models from one seed
    shared = init_mlp((2, 4, 3), NormKind.LEARNABLE_SHARED, 1, np.random.default_rng(7))
    grouped = init_mlp((2, 4, 3), NormKind.FAIR_IDENTITY, 1, np.random.default_rng(7))
    via_shared, _ = forward(shared, z, mode="inference")
    via_groups, _ = forward(grouped, z, np.zeros(2, dtype=int), mode="inference")
    print("single group matches the shared layer bitwise:", bool((via_groups == via_shared).all()))


if __name__ == "__main__":
    main()
