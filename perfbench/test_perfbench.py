"""Tests of the benchmark itself: the reference check and the tracer.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy

import pytest

import checks
import run
import tracer as tracing
from cmlab import arithfn, cli, goldbach, models

REFERENCE = checks.load_reference()
CLOSENESS = {"args": "verify closeness --Y 100000 --h-exponent 0.3 --Q 10 --workers 1", "seeded": False}
PIPELINE = {"args": "pipeline --preset desk-small", "seeded": False}
GALLAGHER = {"args": "verify gallagher --delta 50 --trials 100 --seed {seed}", "seeded": True}


def run_task(task, seed, out):
    return cli.main(["--out", str(out), *task["args"].format(seed=seed).split()])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = {}
    for key, task, seed in (("closeness", CLOSENESS, 7), ("pipeline", PIPELINE, 7), ("gallagher-8", GALLAGHER, 8)):
        out[key] = tmp_path_factory.mktemp(key)
        assert run_task(task, seed, out[key]) == 0
    return out


def test_seed_outputs_match_reference(outputs):
    assert checks.check_task(CLOSENESS, 7, 0, outputs["closeness"], REFERENCE) == []
    assert checks.check_task(PIPELINE, 7, 0, outputs["pipeline"], REFERENCE) == []


def test_nonzero_exit_code_fails_the_task(outputs):
    assert checks.check_task(CLOSENESS, 7, 1, outputs["closeness"], REFERENCE) == ["exit code 1"]
    assert checks.check_task(CLOSENESS, 7, None, outputs["closeness"], REFERENCE) == ["exit code None"]


@pytest.mark.parametrize("task, key, field, corrupt", [
    (CLOSENESS, "closeness", "theta_primes_vs_model", lambda v: v * (1 + 1e-6)),
    (CLOSENESS, "closeness", "arcs_model_vs_sieve", lambda v: v - 1),
    (PIPELINE, "pipeline", "exceptions_step4", lambda v: v + 1),
    (PIPELINE, "pipeline", "chain", lambda v: {**v, "omega_model_conv": [x * 1.001 for x in v["omega_model_conv"]]}),
])
def test_corrupted_reference_value_fails_the_task(outputs, task, key, field, corrupt):
    reference = copy.deepcopy(REFERENCE)
    expected = reference["tasks"][task["args"]]
    expected[field] = corrupt(expected[field])
    problems = checks.check_task(task, 7, 0, outputs[key], reference)
    assert problems and all(field in line for line in problems)


def test_reordered_float_sums_pass():
    expected = REFERENCE["tasks"][PIPELINE["args"]]
    observed = copy.deepcopy(expected)
    observed["chain"]["lambda_conv"] = [x * (1 + 2e-12) + 1e-10 for x in observed["chain"]["lambda_conv"]]
    assert checks.compare(observed, expected) == []


def test_other_seed_checks_gallagher_by_ceiling(outputs, monkeypatch):
    assert checks.check_task(GALLAGHER, 8, 0, outputs["gallagher-8"], REFERENCE) == []
    monkeypatch.setattr(checks, "GALLAGHER_CEILING", 1.0)
    problems = checks.check_task(GALLAGHER, 8, 0, outputs["gallagher-8"], REFERENCE)
    assert len(problems) == 1 and "ceiling" in problems[0]


def test_install_wraps_every_binding_of_public_functions_only():
    originals = (arithfn.convolve, goldbach.convolve, models.SieveSystem.theta_window, arithfn._convolve_direct)
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert arithfn.convolve is goldbach.convolve is not originals[0]
        assert arithfn.convolve.__wrapped__ is originals[0]
        assert models.SieveSystem.theta_window is not originals[2]
        assert arithfn._convolve_direct is originals[3]
        assert cli.closeness_integral.__wrapped__.__module__ == "cmlab.closeness"
    finally:
        uninstall()
    assert (arithfn.convolve, goldbach.convolve, models.SieveSystem.theta_window) == originals[:3]


def test_self_time_is_duration_minus_child_spans():
    t = tracing.Tracer()

    def inner():
        return sum(range(20_000))

    def outer():
        t.call("b.inner", inner, None, (), {})
        return t.call("b.inner", inner, None, (), {})

    t.call("a.outer", outer, None, (), {})
    stats = tracing.summarize(t)
    assert stats["a.outer.calls"] == 1 and stats["b.inner.calls"] == 2
    assert stats["a.outer.self_s"] == pytest.approx(stats["a.outer.s"] - stats["b.inner.s"], abs=1e-12)
    assert stats["b.inner.self_s"] == stats["b.inner.s"]
    assert stats["trace.root_s"] == stats["a.outer.s"]


def test_two_traced_passes_give_identical_counts():
    run.WORK.mkdir(exist_ok=True)
    tasks = [PIPELINE, CLOSENESS, {"args": "model --which t_nu_plus --Y 10000 --Q 10", "seeded": False}]
    first, second = (run.run_pass(tasks, 7, True, 120.0, "selftest") for _ in range(2))
    (run.WORK / "spans-selftest.npz").unlink()
    assert all(not task["problems"] for result in (first, second) for task in result["tasks"])
    counts = [
        {k: v for k, v in result["layers"].items() if not k.endswith((".s", "_s"))}
        for result in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["arithfn.convolve.calls"] == 5 and counts[0]["closeness.farey_dissection.arcs"] == 20
    assert 0 < counts[0]["goldbach.run_pipeline.window_used_frac"] < 1
