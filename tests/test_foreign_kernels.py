"""Training invariants under other numeric kernels.

The digest pins of test_train hold on the kernels they were pinned on
only: another OpenBLAS core, or numpy without its AVX-512 paths, gives
other training bits. What must hold on any kernels is checked here, by a
small training script run in a subprocess under each foreign setting,
one at a time: two runs give the same bytes, a seed trained alone equals
the same seed trained among others, FIN with m = 1 equals no normaliser,
the shared normaliser equals FIN over one group, and save -> load -> save
is byte-identical.
"""

import os
import platform
import subprocess
import sys
import textwrap

import pytest

FOREIGN = {
    "openblas sandybridge": ("OPENBLAS_CORETYPE", "Sandybridge"),
    "numpy avx2": ("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4"),
}
SCRIPT = textwrap.dedent(
    """
    import os, sys, tempfile
    from dataclasses import replace
    import numpy as np
    from numeric_fingerprint import fingerprint
    from fin_equity import (
        AdamWConfig, GroupSpec, NormKind, SynthConfig, TrainConfig,
        checkpoint_to_dict, dumps_canonical, evaluate_model, generate,
        load_checkpoint, named_parameters, run_seeds, save_checkpoint, train,
    )

    def data(groups):
        return generate(SynthConfig(d=20, seed=3, groups=groups))

    def blob(ck):
        return dumps_canonical(checkpoint_to_dict(ck))

    def same_run(a, b):
        return blob(a[0]) == blob(b[0]) and a[1] == b[1]

    def same_parameters(a, b):
        pa, pb = named_parameters(a.model), named_parameters(b.model)
        return all(np.array_equal(pa[name], pb[name]) for name in pa)

    train_set, eval_set = data(
        tuple(GroupSpec(f"g{i}", 60, 20, 0.5, 1.0 + i / 2, i - 1.0) for i in range(3))
    )
    config = TrainConfig(
        layer_dims=(20, 8, 8), epochs=2, batch_size=6,
        optimizer=AdamWConfig(lr=1e-2), seed=1, norm_kind=NormKind.FAIR_IDENTITY,
    )
    solo, again = (train(train_set, eval_set, config) for _ in range(2))
    checks = {"two runs give the same bytes": same_run(solo, again)}
    many = run_seeds(train_set, eval_set, config, (0, 1, 2))
    checks["a seed alone equals it among others"] = same_run(
        solo, (many.checkpoints[1], many.histories[1])
    )
    none = train(train_set, eval_set, replace(config, norm_kind=NormKind.NONE))[0]
    blend = train(train_set, eval_set, replace(config, fin_momentum=1.0))[0]
    scores = [evaluate_model(ck, eval_set)[0].scores.tobytes() for ck in (none, blend)]
    checks["m = 1 equals none"] = (
        same_parameters(none, blend) and scores[0] == scores[1]
    )
    one, one_eval = data((GroupSpec("only", 60, 20, 0.5, 1.5, 0.0),))
    shared_kind = replace(config, norm_kind=NormKind.LEARNABLE_SHARED)
    shared = train(one, one_eval, shared_kind)[0]
    fin = train(one, one_eval, config)[0]
    checks["shared equals one-group FIN"] = (
        named_parameters(shared.model).keys() == named_parameters(fin.model).keys()
        and same_parameters(shared, fin)
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (os.path.join(tmp, name) for name in ("1.json", "2.json"))
        save_checkpoint(solo[0], first)
        save_checkpoint(load_checkpoint(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            checks["save, load, save is byte-identical"] = a.read() == b.read()
    print(fingerprint())
    for name, ok in checks.items():
        print(f"{name}: {'ok' if ok else 'FAILED'}")
    """
)


@pytest.mark.parametrize("setting", sorted(FOREIGN))
def test_training_invariants_hold_under_foreign_kernels(setting):
    name, value = FOREIGN[setting]
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, **{name: value})
    env["PYTHONPATH"] = os.pathsep.join([tests, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed, *checks = proc.stdout.splitlines()
    if name == "OPENBLAS_CORETYPE":  # the switch took, where there is one
        if platform.machine() in ("x86_64", "AMD64"):
            assert printed.endswith(("core Sandybridge", "core unknown")), printed
    else:
        assert "AVX512_ICL" not in printed, printed
    assert len(checks) == 5, proc.stdout
    assert all(check.endswith(": ok") for check in checks), (printed, checks)
