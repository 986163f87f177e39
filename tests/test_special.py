"""sdgflow.special against scipy.special, with mpmath deciding where they
disagree; the values at the ends of the domains; and bits that neither
glibc's FMA variant nor numpy's SIMD dispatch can move, pinned by digest."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp

import sdgflow
from sdgflow import special

SRC = str(Path(sdgflow.__file__).resolve().parents[1])
ULPS = 4


def ulp_distance(a, b) -> np.ndarray:
    """How many doubles lie between a and b (0 when equal, -0.0 == 0.0)."""
    ia, ib = (np.asarray(v, dtype=np.float64).view(np.int64) for v in (a, b))
    # map the bit patterns to a scale that counts doubles in order
    ia, ib = (np.where(i < 0, np.int64(-(2**63)) - i, i) for i in (ia, ib))
    return np.abs(ia - ib)


def true_ndtr(x: float) -> float:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return float(mpmath.ncdf(mpmath.mpf(x)))


def true_ndtri(p: float) -> float:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        target = mpmath.mpf(p)
        return float(mpmath.findroot(lambda z: mpmath.ncdf(z) - target, mpmath.mpf(float(sp.ndtri(p)))))


def check_against_scipy(ours, theirs, inputs, truth, at_most=300):
    """ours and scipy's values agree within ULPS; where they do not, ours is
    within ULPS of the true value or nearer to it than scipy's. The truth is
    taken at no more than `at_most` of those points, spread evenly."""
    apart = np.flatnonzero(ulp_distance(ours, theirs) > ULPS)
    for i in apart[:: max(1, apart.size // at_most)]:
        t = truth(float(inputs[i]))
        off, theirs_off = int(ulp_distance(ours[i], t)), int(ulp_distance(theirs[i], t))
        assert off <= ULPS or off < theirs_off, (inputs[i], ours[i], theirs[i], t)


X_GRID = np.concatenate(
    [
        np.linspace(-38.0, 9.0, 400_001),
        np.linspace(-38.5, -37.5, 10_001),  # ndtr's subnormal results
        np.linspace(8.0, 9.0, 10_001),  # ndtr rounds to 1 beyond about 8.3
        np.random.default_rng(0).standard_normal(100_000),
    ]
)
P_GRID = np.concatenate(
    [
        np.geomspace(1e-300, 0.5, 200_001),
        1.0 - np.geomspace(2.0**-53, 0.5, 100_001),
        np.linspace(0.0, 1.0, 100_001)[1:-1],
        np.geomspace(5e-324, 2.2e-308, 2_001),  # subnormal p
        [1.0 - 2.0**-53],
    ]
)


def test_ndtr_agrees_with_scipy_and_mpmath_decides():
    check_against_scipy(special.ndtr(X_GRID), sp.ndtr(X_GRID), X_GRID, true_ndtr)


def test_ndtri_agrees_with_scipy_and_mpmath_decides():
    check_against_scipy(special.ndtri(P_GRID), sp.ndtri(P_GRID), P_GRID, true_ndtri)


def test_ndtr_is_within_a_few_ulp_of_mpmath_where_scipy_is_not():
    # scipy's erfc squares x / sqrt 2 in one rounding, so it drifts by
    # hundreds of ulp in the far tail; Cody's split of x^2 does not
    x = np.array([-37.0, -30.0, -20.0, -10.0, -5.0])
    ours, theirs = special.ndtr(x), sp.ndtr(x)
    truth = [true_ndtr(v) for v in x]
    assert (ulp_distance(ours, truth) <= 2).all()
    assert (ulp_distance(theirs, truth) > 10).any()


def test_both_are_monotone_on_sorted_grids():
    x = np.sort(X_GRID)
    assert (np.diff(special.ndtr(x)) >= 0).all()
    p = np.sort(P_GRID)
    assert (np.diff(special.ndtri(p)) >= 0).all()


def test_the_values_at_the_ends_of_the_domains_are_exact():
    sub = np.array([5e-324, 1e-310, 2.2250738585072009e-308])  # subnormals
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, *sub, *-sub])
    want = [0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0, *[0.5] * 6]
    np.testing.assert_array_equal(special.ndtr(x), want)
    p = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, -1e-300, 1.0 + 2.0**-52, 0.5])
    want = [-np.inf, -np.inf, np.inf, np.nan, np.nan, np.nan, np.nan, np.nan, 0.0]
    np.testing.assert_array_equal(special.ndtri(p), want)
    # subnormal p, and x whose ndtr is subnormal, to the nearest double
    assert [int(d) for d in ulp_distance(special.ndtri(sub), [true_ndtri(v) for v in sub])] == [0, 0, 0]
    x = np.array([-38.4, -38.0, -37.6])
    assert [int(d) for d in ulp_distance(special.ndtr(x), [true_ndtr(v) for v in x])] == [0, 0, 0]


def test_expit_saturates_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = special.expit(np.array([-1000.0, -800.0, 0.0, 800.0, 1000.0]))
    np.testing.assert_array_equal(got, [0.0, 0.0, 0.5, 1.0, 1.0])
    t = np.linspace(-40.0, 40.0, 100_001)
    assert ulp_distance(special.expit(t), sp.expit(t)).max() <= ULPS


def test_a_value_does_not_depend_on_its_block_or_neighbours():
    rng = np.random.default_rng(1)
    for f, grid in ((special.ndtr, X_GRID), (special.ndtri, P_GRID)):
        values = f(grid)
        perm = rng.permutation(grid.size)
        np.testing.assert_array_equal(f(grid[perm]), values[perm])
        picks = rng.choice(grid.size, 200)
        np.testing.assert_array_equal([f(grid[i : i + 1])[0] for i in picks], values[picks])
        np.testing.assert_array_equal(f(grid.reshape(-1, 1))[:, 0], values)


def test_no_temporary_is_as_long_as_the_input():
    rng = np.random.default_rng(2)
    for f, values in ((special.ndtr, rng.standard_normal(600_000)), (special.ndtri, rng.random(600_000))):
        want = f(values)
        tracemalloc.start()
        try:
            got = f(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, want)
        # the arrays of one block beside the result, not a full-length temporary
        assert peak - got.nbytes < values.nbytes


def test_the_bits_are_pinned():
    # inputs from integers by exact scalings and correctly rounded
    # divisions: x on a 1/4096 grid down to ndtr's subnormal results, p
    # through every binade of the subnormal and normal range and its
    # mirror below 1
    x = np.arange(-158_106, 36_865) / 4096.0
    m = (np.arange(201) + 201) / 402.0
    tiny = np.ldexp(m[None, :], np.arange(-1074, 0)[:, None]).ravel()
    p = np.concatenate([tiny, 1.0 - tiny[tiny >= 2.0**-53], np.arange(100_001) / 100_000.0])
    assert hashlib.sha256(special.ndtr(x).tobytes()).hexdigest() == (
        "afb01e07c2b8d5a3603ffcd1d0df7afa232fe5128f366dc909ea16790d63b527"
    )
    assert hashlib.sha256(special.ndtri(p).tobytes()).hexdigest() == (
        "9690822b60cc7c60e8f087e4924250fbc33aefe79088d054dddae7bf100b354b"
    )


# The same fixed inputs in child processes under other libm and SIMD code
# paths. The inputs are built from +, * and ldexp alone, so the settings
# cannot move them; a probe of a function that does follow the setting
# shows that it took effect.
CHILD = """
import hashlib, json, sys
import numpy as np
import scipy.special
from sdgflow import special

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

x = np.linspace(-38.6, 9.0, 200_001)
m = np.linspace(0.5, 1.0, 201, endpoint=False)
tiny = np.ldexp(m[None, :], np.arange(-1074, 0)[:, None]).ravel()
p = np.concatenate([tiny, 1.0 - tiny[tiny >= 2.0**-53], np.linspace(0.0, 1.0, 100_001)])
print(json.dumps({
    "ndtr": digest(special.ndtr(x)),
    "ndtri": digest(special.ndtri(p)),
    "probe": digest(scipy.special.ndtr(x) if sys.argv[1] == "libm" else np.exp(-x)),
}))
"""

SETTINGS = {
    "libm": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"},
    "numpy-dispatch": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


def in_child(kind: str, extra: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for key in ("GLIBC_TUNABLES", "NPY_DISABLE_CPU_FEATURES"):
        env.pop(key, None)
    env.update(extra)
    out = subprocess.run([sys.executable, "-c", CHILD, kind], env=env, capture_output=True, text=True)
    if out.returncode:
        pytest.skip(f"{extra} is not accepted here: {out.stderr.strip().splitlines()[-1:]}")
    return json.loads(out.stdout)


@pytest.mark.parametrize("kind", SETTINGS)
def test_bits_do_not_follow_the_libm_or_numpy_dispatch(kind):
    here = in_child(kind, {})
    there = in_child(kind, SETTINGS[kind])
    if there["probe"] == here["probe"]:
        pytest.skip(f"{SETTINGS[kind]} changes nothing on this CPU, so it proves nothing")
    assert (there["ndtr"], there["ndtri"]) == (here["ndtr"], here["ndtri"])
