"""Seeded storage fault soaks (opt-in: ``-m stress`` / REPRO_RUN_STRESS=1).

Each soak derives a storage fault plan from its seed
(:func:`repro.faultinject.random_storage_plan` — crashes, torn writes,
bit flips, and raises at random syncpoints) and runs a randomized
ingest workload under it.  Whatever the plan does, three invariants must
hold:

* recovery terminates and the store reopens (or, when the store's very
  creation was interrupted, fails with a clean :class:`StorageError`);
* every readable series is a bit-exact prefix of its ingested sequence —
  corruption is surfaced as quarantine holes or truncated WAL tails,
  never as silently wrong values;
* a follow-up scan of the repaired store reports clean (fsck converges).

A failing seed replays exactly: the plan is a pure function of the seed.
"""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.faultinject import (
    InjectedCrash,
    InjectedFault,
    active_plan,
    random_storage_plan,
)
from repro.storage import DurableStore, fsck

STRESS_SEEDS = tuple(range(16))


def _workload(directory, seed):
    """Randomized ingest; returns per-series ingested values (acked only)."""
    rng = np.random.default_rng(seed)
    ingested: dict[str, list[float]] = {}
    store = DurableStore.create(directory, default_segment_size=8,
                                shards=int(rng.integers(1, 5)))
    for i in range(int(rng.integers(2, 5))):
        store.create_series(f"s{i}", codec="raw")
        ingested[f"s{i}"] = []
    names = sorted(ingested)
    for _ in range(int(rng.integers(10, 30))):
        name = names[int(rng.integers(len(names)))]
        values = np.round(rng.normal(size=int(rng.integers(1, 7))), 3)
        store.append(name, values)
        ingested[name].extend(values)
    store.flush()
    store.close()
    return ingested


@pytest.mark.stress
@pytest.mark.parametrize("seed", STRESS_SEEDS, ids=lambda s: f"seed{s}")
def test_storage_fault_soak(seed, tmp_path):
    directory = tmp_path / "store"
    ingested: dict[str, list[float]] = {}
    with active_plan(random_storage_plan(seed)):
        try:
            ingested = _workload(directory, seed)
        except (InjectedCrash, InjectedFault):
            pass  # the workload died mid-flight; recovery takes over

    try:
        store = DurableStore.open(directory)
    except StorageError:
        # Only legal when the store never finished being created.
        assert not (directory / "manifest.json").exists()
        return

    report = store.recovery
    for name in store.list_series():
        expected = np.asarray(ingested.get(name, []))
        try:
            got = store.read(name)
        except StorageError:
            # Unreadable ranges must be *declared* corruption.
            assert store.holes(name), f"{name}: read failed without a hole"
            continue
        prefix = expected[: got.size] if expected.size else got
        assert got.size <= max(expected.size, store.length(name))
        if expected.size:
            assert np.array_equal(got, prefix), (
                f"seed {seed}: recovered {name} is not a prefix of the "
                "ingested sequence")
    assert report.truncated_wal_bytes >= 0
    store.close()

    # The repaired store converges to clean.
    assert fsck(directory).clean, f"seed {seed}: fsck did not converge"


@pytest.mark.stress
@pytest.mark.parametrize("seed", STRESS_SEEDS[:8], ids=lambda s: f"seed{s}")
def test_storage_soak_with_relaxed_fsync(seed, tmp_path):
    """The interval policy must also recover (weaker durability, same safety)."""
    directory = tmp_path / "store"
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(size=60), 3)
    def workload():
        # Its own frame: a handle the fault leaves open dies with it, as in
        # a crashed process, instead of holding the store lock below.
        store = DurableStore.create(directory, fsync_policy="interval",
                                    fsync_interval=4,
                                    default_segment_size=16)
        store.create_series("x", codec="gorilla")
        for chunk in np.split(values, 12):
            store.append("x", chunk)
        store.close()

    with active_plan(random_storage_plan(seed + 1000)):
        try:
            workload()
        except (InjectedCrash, InjectedFault):
            pass

    try:
        store = DurableStore.open(directory)
    except StorageError:
        assert not (directory / "manifest.json").exists()
        return
    try:
        got = store.read("x") if "x" in store else np.empty(0)
    except StorageError:
        assert store.holes("x")
        got = None
    if got is not None and got.size:
        assert np.array_equal(got, values[: got.size])
    store.close()
    assert fsck(directory).clean
