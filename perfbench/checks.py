"""Output checks for the benchmark, each computed apart from the program.

Every check returns a list of problem strings; an empty list means the
output passed.  References are written here from the operator
definitions (matmul, NHWC conv2d over a sliding window) or are
properties the method must have (a tuned program verifies, its cycles
re-estimate to the reported value, a replay of its stored decisions
prints the same program, a cached compile equals a fresh one).  No check compares against a stored copy of a
previous run's output.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import cache as repro_cache
from repro import verify
from repro.runtime import compile_func
from repro.sim import estimate

def reference_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[n, m] = sum_k A[n, k] * B[k, m], accumulated in float64."""
    return a.astype(np.float64) @ b.astype(np.float64)


def reference_conv2d(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1, dilation-1 conv2d over pre-padded NHWC input.

    ``a`` is (n, h, w, ci) and ``w`` is (kh, kw, ci, co); the output is
    (n, h - kh + 1, w - kw + 1, co): every output pixel is the dot
    product of its kh x kw x ci input window with the filter.
    """
    kh, kw = w.shape[0], w.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(
        a.astype(np.float64), (kh, kw), axis=(1, 2)
    )  # (n, oh, ow, ci, kh, kw)
    return np.einsum("nijcrs,rscf->nijf", windows, w.astype(np.float64))


def reference(op: str, inputs: Dict[str, np.ndarray]):
    """(exact output, bound on |output| terms, reduction length) for
    ``op`` on ``inputs`` (named as the frontend names them: A, B / A, W).

    The second array is the same reduction over |A| and |B| — the
    magnitude the rounding-error bound of :func:`check_output` scales
    with.
    """
    if op == "matmul":
        a, b = inputs["A"], inputs["B"]
        return (
            reference_matmul(a, b),
            reference_matmul(np.abs(a), np.abs(b)),
            a.shape[1],
        )
    if op == "conv2d":
        a, w = inputs["A"], inputs["W"]
        return (
            reference_conv2d(a, w),
            reference_conv2d(np.abs(a), np.abs(w)),
            w.shape[0] * w.shape[1] * w.shape[2],
        )
    raise ValueError(f"no reference for op {op!r}")


def check_output(
    got: np.ndarray, exact: np.ndarray, magnitude: np.ndarray, terms: int
) -> List[str]:
    """Compare a program's floating-point output with the exact reference.

    The tolerance is the probabilistic rounding-error bound for a
    length-K dot product evaluated in the output's dtype with unit
    roundoff u (Higham and Mary, 2019): ``lambda * sqrt(K + 1) * u *
    sum|a_i * b_i|`` with lambda = 2, plus one rounding of the stored
    result.  It follows from the dtype and the op, not from a previous
    run; the served fp16 programs stay below a tenth of it.
    """
    if got.shape != exact.shape:
        return [f"output shape {got.shape} != reference shape {exact.shape}"]
    u = float(np.finfo(got.dtype).eps) / 2
    tol = 2.0 * np.sqrt(terms + 1) * u * magnitude + u * np.abs(exact)
    bad = np.argwhere(np.abs(got.astype(np.float64) - exact) > tol)
    if len(bad) == 0:
        return []
    idx = tuple(bad[0])
    return [
        f"{len(bad)} output element(s) outside tolerance, first at {idx}: "
        f"got {float(got[idx])!r}, reference {float(exact[idx])!r} "
        f"(tolerance {float(tol[idx])!r})"
    ]


def _uncached(fn, *args):
    """Run ``fn`` with every memo cache bypassed, so a check recomputes
    instead of reading back the value the run itself stored."""
    previous = repro_cache.set_enabled(False)
    try:
        return fn(*args)
    finally:
        repro_cache.set_enabled(previous)


def check_verify(func, target) -> List[str]:
    """The program passes the §3.3 validation battery."""
    problems = _uncached(verify, func, target)
    return [f"verify(): {p}" for p in problems]


def check_cycles(func, target, reported: float) -> List[str]:
    """Re-estimating the program gives the cycles the tuner reported."""
    cycles = _uncached(estimate, func, target).cycles
    if cycles != reported:
        return [f"sim.estimate gives {cycles!r} cycles, reported {reported!r}"]
    return []


def check_compiled(compiled, func) -> List[str]:
    """The compiled program is the one a fresh compile of ``func``, made
    with every cache off, gives."""
    if compiled.source != _uncached(compile_func, func).source:
        return ["compiled source differs from a fresh compile of the program"]
    return []


def check_same_script(got: str, expected: str, what: str) -> List[str]:
    """Two printed programs are byte-identical."""
    if got == expected:
        return []
    for line_no, (a, b) in enumerate(zip(got.splitlines(), expected.splitlines()), 1):
        if a != b:
            return [f"{what} program differs at line {line_no}: {a.strip()!r} != {b.strip()!r}"]
    return [f"{what} program differs in length"]
