"""The compiled flight loop's primitives against Python's, its loader's
fallback, and the import that must not build it.

The primitives are compared bit for bit, the sign of zero included: the
closed-loop right-hand side of ``flight.c`` against
``control.closed_loop_rhs``, its square against Python's ``x ** 2`` (libm
``pow``, which differs from ``x * x``) and its ``hypot`` against CPython's
``math.hypot`` (not libm's).
"""

import ctypes
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tautuav as tu
from tautuav import sim
from tautuav.control import closed_loop, closed_loop_rhs

ROOT = Path(__file__).resolve().parents[1]


def bits(x: float) -> bytes:
    return struct.pack("d", x)


@pytest.fixture(scope="module")
def library():
    """The flight loop's library, with its primitives' prototypes."""
    lib = sim._flight_library()
    if lib is None:
        pytest.skip("no C compiler to build the flight loop")
    double_p = ctypes.POINTER(ctypes.c_double)
    lib.tautuav_rhs.argtypes = (double_p, ctypes.c_int, double_p, double_p,
                                double_p)
    lib.tautuav_rhs.restype = ctypes.c_int
    lib.tautuav_square.argtypes = (ctypes.c_double,
                                   ctypes.POINTER(ctypes.c_int))
    lib.tautuav_square.restype = ctypes.c_double
    lib.tautuav_hypot.argtypes = (ctypes.c_double, ctypes.c_double)
    lib.tautuav_hypot.restype = ctypes.c_double
    return lib


def kernel_square(library, x):
    """(x ** 2 in C, whether Python would raise on it)"""
    bad = ctypes.c_int(0)
    return library.tautuav_square(x, ctypes.byref(bad)), bool(bad.value)


def assert_square_matches(library, x):
    got, raised = kernel_square(library, x)
    try:
        want = x ** 2
    except OverflowError:
        assert raised, x
        return
    assert not raised, x
    assert bits(got) == bits(want) or (math.isnan(got) and math.isnan(want)), x


def test_square_equals_python_power_on_a_uniform_sample(library):
    """libm pow, not x * x: folding pow(x, 2.0) into one product (what a
    build without -fno-builtin does) differs on about 8 in 10,000 of these."""
    xs = np.random.default_rng(11).uniform(-5.0, 5.0, 100_000).tolist()
    squares = [kernel_square(library, x) for x in xs]
    assert [(bits(x ** 2), False) for x in xs] == [
        (bits(s), raised) for s, raised in squares]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats())
def test_square_equals_python_power(library, x):
    assert_square_matches(library, x)


SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
           1e-160, 1.0, 3.0, 1.7e308, -1.7e308, math.inf, -math.inf,
           math.nan)


def test_hypot_equals_math_hypot_on_special_values(library):
    for x in SPECIAL:
        for y in SPECIAL:
            got, want = library.tautuav_hypot(x, y), math.hypot(x, y)
            assert bits(got) == bits(want) or (
                math.isnan(got) and math.isnan(want)), (x, y)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_hypot_equals_math_hypot(library, x, y):
    assert bits(library.tautuav_hypot(x, y)) == bits(math.hypot(x, y))


def test_hypot_equals_math_hypot_on_random_pairs(library):
    """Pairs over the whole exponent range and near-equal magnitudes, where
    libm's hypot differs from CPython's."""
    rng = np.random.default_rng(12)
    scale = 10.0 ** rng.integers(-300, 300, (2, 20_000))
    pairs = (rng.standard_normal((2, 20_000)) * scale).T.tolist()
    pairs += rng.uniform(-50.0, 50.0, (20_000, 2)).tolist()
    for x, y in pairs:
        assert bits(library.tautuav_hypot(x, y)) == bits(math.hypot(x, y))


def kernel_rhs(library, y, law):
    d, o = (ctypes.c_double * 6)(), (ctypes.c_double * 7)()
    status = library.tautuav_rhs((ctypes.c_double * 17)(*law[1:]), law[0],
                                 (ctypes.c_double * 6)(*y), d, o)
    u1, u2, u3, tension, u_t, u_alpha, theta_c = o
    return status, (tuple(d), (u1, u2, u3), tension, (u_t, u_alpha, theta_c))


STATES = st.tuples(
    st.floats(0.05, 3.0), st.floats(-2.0, 2.0), st.floats(-1.0, 4.0),
    st.floats(-5.0, 5.0), st.floats(-3.0, 3.0), st.floats(-20.0, 20.0))
SETPOINTS = st.sampled_from((
    tu.Setpoint(0.5, 9.0 * math.pi / 10.0, -math.pi / 20.0),
    tu.Setpoint(1.0, math.pi / 8.0, math.pi / 10.0),
    tu.Setpoint(1.2, math.pi / 2.0, 0.0)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(STATES, SETPOINTS, st.booleans())
def test_rhs_equals_closed_loop_rhs(library, y, sp, ideal):
    law = closed_loop(sp, tu.GainConfig(), tu.PlantParams(),
                      ideal_attitude=ideal)
    status, got = kernel_rhs(library, y, law)
    want = closed_loop_rhs(y, law)
    assert status == 0
    flat = lambda out: [*out[0], *out[1], out[2], *out[3]]  # noqa: E731
    assert [bits(v) for v in flat(got)] == [bits(v) for v in flat(want)]


def test_rhs_leaves_a_slack_cable_to_python(library):
    law = closed_loop(tu.SimConfig().reference, tu.GainConfig(),
                      tu.PlantParams())
    for r in (0.0, -0.0, -1.0, math.nan):
        assert kernel_rhs(library, (r, 0.0, 1.0, 0.0, 0.0, 0.0), law)[0] != 0


def test_failed_build_warns_once_and_flies_the_python_loop(monkeypatch):
    monkeypatch.setattr(sim, "_library", None)
    monkeypatch.setattr(sim, "_compiler", lambda: ["/nonexistent/bin/cc"])
    cfg = tu.SimConfig(t_final=0.5, mode=tu.ScenarioMode.INNER_NO_RG)
    g, p = tu.GainConfig(), tu.PlantParams()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        logs = [tu.run_scenario(cfg, g, p) for _ in range(2)]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "/nonexistent/bin/cc" in str(caught[0].message)
    assert sim._library is False
    want = sim._run(cfg, g, p, None, compiled=False)
    for log in logs:
        for a, b in zip(log.columns(), want.columns()):
            assert a.tobytes() == b.tobytes()
        assert log.events == want.events


def test_import_and_parse_build_nothing():
    """Importing the CLI and parsing a config neither builds nor loads the
    flight loop, nor imports the modules its loader needs.  (numpy itself
    imports ctypes, so ctypes is not among them.)"""
    cache = ROOT / "src" / "tautuav" / "__pycache__"
    before = sorted(cache.glob("flight-*")) if cache.exists() else []
    code = (
        "import json, sys\n"
        "import tautuav.cli as cli\n"
        f"cli.parse_config(open({str(ROOT / 'configs' / 'default.cfg')!r})"
        ".read())\n"
        "from tautuav import sim\n"
        "try:\n"
        "    maps = open('/proc/self/maps').read()\n"
        "except OSError:\n"
        "    maps = ''\n"
        "print(json.dumps({'library': repr(sim._library),\n"
        "    'modules': sorted(m for m in ('subprocess', 'sysconfig', "
        "'hashlib', 'shlex') if m in sys.modules),\n"
        "    'mapped': 'flight-' in maps}))\n")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    facts = json.loads(out.stdout)
    assert facts == {"library": "None", "modules": [], "mapped": False}
    after = sorted(cache.glob("flight-*")) if cache.exists() else []
    assert after == before
