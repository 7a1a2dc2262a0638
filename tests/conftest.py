"""Shared fixtures and configuration for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

#: Marker for the fault-injection soak tests (opt-in, non-gating in CI).
STRESS_MARKER = "stress"
#: Environment override that enables the stress tests without ``-m``.
STRESS_ENV = "REPRO_RUN_STRESS"


def pytest_configure(config):  # noqa: D103 - pytest hook
    config.addinivalue_line(
        "markers",
        f"{STRESS_MARKER}: fault-injection soak tests "
        f"(opt-in: run with -m {STRESS_MARKER})")


def pytest_collection_modifyitems(config, items):
    """Skip stress-marked soaks unless they were asked for.

    The soak spawns many process pools and sleeps through injected hangs —
    minutes of wall clock that belong in the scheduled CI stress job, not
    the gating tier-1 run.  A small deterministic smoke subset of the same
    harness stays unmarked and gates every run.
    """
    markexpr = getattr(config.option, "markexpr", "") or ""
    if STRESS_MARKER in markexpr:
        return
    if os.environ.get(STRESS_ENV, "0") not in ("0", "", "false"):
        return
    skip_stress = pytest.mark.skip(
        reason=f"stress soaks run only with -m {STRESS_MARKER} "
               f"(or {STRESS_ENV}=1)")
    for item in items:
        if STRESS_MARKER in item.keywords:
            item.add_marker(skip_stress)


@pytest.fixture(params=["numpy", "native"])
def kernel_tier(request):
    """Run a test under both kernel tiers.

    Kept-set regression suites opt in with ``pytestmark =
    pytest.mark.usefixtures("kernel_tier")`` so their golden digests are
    asserted against *both* implementations — the native tier is only
    correct if it cannot be told apart from the NumPy one.  The native
    parameter skips (never fails) when the extension is not built, keeping
    source-only installs green.
    """
    from repro import _kernels

    tier = request.param
    if tier == "native" and not _kernels.native_available():
        pytest.skip("native extension not built")
    _kernels.set_native_enabled(tier == "native")
    try:
        yield tier
    finally:
        _kernels.set_native_enabled(None)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session-wide deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture()
def seasonal_series() -> np.ndarray:
    """A medium-length seasonal series with noise (period 24)."""
    rng = np.random.default_rng(7)
    t = np.arange(1200)
    return (5.0 + 2.0 * np.sin(2 * np.pi * t / 24)
            + 0.5 * np.sin(2 * np.pi * t / 168)
            + rng.normal(0.0, 0.3, t.size))


@pytest.fixture()
def short_seasonal_series() -> np.ndarray:
    """A short seasonal series for the slower algorithms (period 24)."""
    rng = np.random.default_rng(11)
    t = np.arange(400)
    return 10.0 + 3.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0.0, 0.4, t.size)


@pytest.fixture()
def noisy_walk() -> np.ndarray:
    """A random-walk series without seasonality."""
    rng = np.random.default_rng(3)
    return np.cumsum(rng.normal(0.0, 1.0, 800))


@pytest.fixture(scope="session")
def fast_codec_options():
    """Fast, valid constructor options per registered codec (by name)."""
    def options_for(name: str) -> dict:
        from repro.codecs import codec_spec

        family = codec_spec(name).family
        if family in ("cameo", "simplify"):
            return {"max_lag": 8, "epsilon": 0.05}
        if family == "model":
            return {"error_bound": 0.5} if name != "fft" else {"keep_fraction": 0.2}
        return {}

    return options_for
