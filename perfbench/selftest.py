#!/usr/bin/env python3
"""Self-tests for the benchmark's own checkers, and a smoke run of each
workload.

    python3 perfbench/selftest.py            # checkers + smoke runs (~1 min)
    python3 perfbench/selftest.py --no-smoke # checkers only (~10 s)

Each checker is fed a right result, which must pass, and a deliberately
wrong one, which must fail: an output array with one element perturbed,
a cycles value that disagrees with ``sim.estimate``, a program that
``verify()`` rejects, a compile of another program, a replayed program
that prints differently from the tuned one, and a served hit that
reports search trials.  The smoke
runs execute every workload at a small size through ``run.py`` with the
same checks, untraced and traced, and require a correct result with no
failed operation that reports exactly the metrics ``BENCHMARK.json``
lists, in its units.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import scenarios  # noqa: E402
from repro import Client, ScheduleServer  # noqa: E402
from repro.frontend import ops  # noqa: E402
from repro.schedule import Schedule  # noqa: E402


def _tuned_pass():
    """A tune_cold job at smoke size after one checked pass."""
    job = scenarios.TuneRun("tune_cold", 0, scenarios.TUNE_SMOKE, scenarios.Clock())
    results = job.tune_pass()
    job.check_pass(results, "cold pass")
    assert not job.ledger.problems, job.ledger.problems
    return job, results


def test_output_check_catches_one_perturbed_element():
    rng = np.random.default_rng(0)
    inputs = {
        "A": rng.uniform(-1, 1, size=(2, 6, 6, 16)).astype(np.float16),
        "W": rng.uniform(-1, 1, size=(3, 3, 16, 16)).astype(np.float16),
    }
    exact, magnitude, terms = checks.reference("conv2d", inputs)
    # An fp16 result accumulated in fp16, term by term, must pass.
    acc = np.zeros(exact.shape, dtype=np.float16)
    windows = np.lib.stride_tricks.sliding_window_view(inputs["A"], (3, 3), axis=(1, 2))
    for r in range(3):
        for s in range(3):
            for c in range(16):
                acc = (acc + windows[:, :, :, c, r, s][..., None] * inputs["W"][r, s, c]
                       ).astype(np.float16)
    assert checks.check_output(acc, exact, magnitude, terms) == []
    bad = acc.copy()
    bad[1, 2, 3, 4] += np.float16(1.0)
    assert checks.check_output(bad, exact, magnitude, terms)


def test_conv_reference_matches_a_direct_loop():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, size=(1, 5, 4, 3))
    w = rng.uniform(-1, 1, size=(2, 3, 3, 2))
    direct = np.zeros((1, 4, 2, 2))
    for i in range(4):
        for j in range(2):
            for f in range(2):
                direct[0, i, j, f] = np.sum(a[0, i:i + 2, j:j + 3, :] * w[:, :, :, f])
    assert np.allclose(checks.reference_conv2d(a, w), direct)


def test_cycles_check_catches_a_disagreeing_value(job, results):
    job.verified.clear()
    wrong = dataclasses.replace(results["GMM"], best_cycles=results["GMM"].best_cycles * 1.001)
    job.check_pass({"GMM": wrong}, "corrupted pass")
    assert any("GMM cycles" in p for p in job.ledger.problems), job.ledger.problems
    job.ledger.problems.clear()


def test_verify_check_catches_an_invalid_program(job, results):
    job.verified.clear()
    sch = Schedule(ops.matmul(4096, 16, 16))
    i, _, _ = sch.get_loops(sch.get_block("C"))
    sch.bind(i, "threadIdx.x")  # 4096 threads exceed the block limit
    wrong = dataclasses.replace(results["GMM"], best_func=sch.func)
    job.check_pass({"GMM": wrong}, "corrupted pass")
    assert any("GMM verify" in p for p in job.ledger.problems), job.ledger.problems
    job.ledger.problems.clear()


def test_compile_check_catches_another_program(job, results):
    from repro.runtime import compile_func

    right = compile_func(results["GMM"].best_func)
    assert checks.check_compiled(right, results["GMM"].best_func) == []
    other = compile_func(results["C2D"].best_func)
    assert checks.check_compiled(other, results["GMM"].best_func)


def test_replay_check_catches_a_different_printed_program(job, results):
    job.replay_round(results)
    assert not job.ledger.problems, job.ledger.problems
    job.baseline["DEP"] = job.baseline["DEP"].replace("16", "17", 1)
    job.replay_round(results)
    assert any("DEP replay" in p for p in job.ledger.problems), job.ledger.problems
    job.ledger.problems.clear()


class _TrialsClient(Client):
    """A client whose hits claim to have searched."""

    def compile(self, func, timeout=None):
        resp = super().compile(func, timeout=timeout)
        resp.trials = 3
        return resp


def test_serve_check_catches_a_hit_with_trials():
    with tempfile.TemporaryDirectory() as tmp:
        job = scenarios.ServeRun(0, scenarios.SERVE_SMOKE, tmp, scenarios.Clock())
        job.setup()
        shape = job.size.catalog[0]
        client = Client(ScheduleServer(job.target, job.serve_config))
        try:
            job.request(client, shape, "hit", "first_hit")
            assert not job.ledger.problems, job.ledger.problems
            job.request(_TrialsClient(client.server), shape, "hit", "hit")
            assert any("trials" in p for p in job.ledger.problems), job.ledger.problems
        finally:
            client.close()


with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCHMARK = json.load(_f)


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
    assert result["attempted"] > 0, result
    listed = _BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed), result["metrics"]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric


def main() -> int:
    job, results = _tuned_pass()
    tests = [
        test_output_check_catches_one_perturbed_element,
        test_conv_reference_matches_a_direct_loop,
        lambda: test_cycles_check_catches_a_disagreeing_value(job, results),
        lambda: test_verify_check_catches_an_invalid_program(job, results),
        lambda: test_compile_check_catches_another_program(job, results),
        lambda: test_replay_check_catches_a_different_printed_program(job, results),
        test_serve_check_catches_a_hit_with_trials,
    ]
    names = [
        "output check catches one perturbed element",
        "conv2d reference matches a direct loop",
        "cycles check catches a disagreeing value",
        "verify check catches an invalid program",
        "compile check catches another program's compile",
        "replay check catches a different printed program",
        "serve check catches a hit with trials",
    ]
    if "--no-smoke" not in sys.argv:
        for workload in ("tune_cold", "tune_warm", "serve_mix"):
            for trace in (0, 1):
                tests.append(lambda w=workload, t=trace: _smoke(w, t))
                names.append(f"smoke {workload} --trace {trace}")
    failures = 0
    for name, test in zip(names, tests):
        try:
            test()
        except AssertionError as err:
            failures += 1
            print(f"FAIL {name}: {err}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
