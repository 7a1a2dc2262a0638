"""Fault-injection soak for the supervised batch engine (``-m stress``).

Every test here runs a *seeded* random fault plan (``repro.faultinject
.random_plan``) against every backend and asserts only the supervisor's
hard contract: the batch terminates with one outcome per series.  The
seed appears in the test id and in every assertion message, so a soak
failure replays deterministically with::

    pytest tests/engine/test_stress.py -m stress -k "seed<N>"

The soak is opt-in (skipped without ``-m stress`` / ``REPRO_RUN_STRESS=1``)
and runs as a non-gating CI job; the gating smoke subset of the same
harness lives in ``test_faults.py::TestRandomPlanSmoke``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import compress_batch
from repro.faultinject import active_plan, random_plan

#: Recorded soak seeds.  Every plan is a pure function of its seed, so this
#: list *is* the soak's reproducibility record — extend it to widen coverage.
STRESS_SEEDS = tuple(range(12))

BACKENDS = ("serial", "thread")

SERIES_COUNT = 6


def make_batch() -> list[np.ndarray]:
    return [np.round(np.sin(np.arange(100 + 17 * index) / 6.0), 3)
            for index in range(SERIES_COUNT)]


@pytest.mark.stress
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", STRESS_SEEDS, ids=lambda s: f"seed{s}")
def test_soak_random_plans_always_terminate(seed, backend):
    batch = make_batch()
    actions = random_plan(seed, SERIES_COUNT)
    with active_plan(actions) as plan:
        result = compress_batch(batch, codec="gorilla", backend=backend,
                                workers=2, timeout=1.5, retries=1)
    context = (f"seed={seed} backend={backend} "
               f"plan={[action.marker for action in plan.actions]}")
    assert len(result) == SERIES_COUNT, f"lost outcomes: {context}"
    assert sorted(outcome.index for outcome in result) \
        == list(range(SERIES_COUNT)), f"outcome indices broken: {context}"
    for outcome in result:
        assert outcome.ok or outcome.error_type, f"empty outcome: {context}"


@pytest.mark.stress
@pytest.mark.parametrize("seed", STRESS_SEEDS[:4], ids=lambda s: f"seed{s}")
def test_soak_cameo_codec_survives_plans(seed):
    """The soak contract holds for the lossy flagship codec too."""
    batch = make_batch()
    actions = random_plan(seed, SERIES_COUNT)
    with active_plan(actions):
        result = compress_batch(batch, codec="cameo", backend="thread",
                                workers=2, timeout=2.5, retries=1,
                                codec_options={"max_lag": 8, "epsilon": 0.05})
    assert len(result) == SERIES_COUNT, f"seed {seed} lost outcomes"


def test_stress_marker_keeps_soaks_opt_in(request):
    """Tier-1 guard: the soak must stay opt-in (see tests/conftest.py)."""
    import os

    markexpr = getattr(request.config.option, "markexpr", "") or ""
    if "stress" in markexpr \
            or os.environ.get("REPRO_RUN_STRESS", "0") not in ("0", "", "false"):
        pytest.skip("stress explicitly requested; the guard applies to tier-1")
    for item in request.session.items:
        if "stress" in item.keywords:
            assert item.get_closest_marker("skip") is not None, \
                f"{item.nodeid} would soak inside the gating tier-1 run"
