"""Kill-at-every-syncpoint crash recovery harness.

The acceptance bar for the durable store: with ``fsync_policy="always"``,
after a crash injected at *any* registered storage fault site — at every
hit of that site the workload produces — the reopened store reads
bit-identical to the last acknowledged durable state.

The harness runs a fixed workload (creates, appends that seal segments, a
final flush that publishes them — and, with ``WAL_CHECKPOINT_BYTES``
shrunk, WAL-size checkpoints between the appends) under a plan that
crashes at the ``k``-th hit of one site, for every ``k`` until the
workload completes without crashing.  Acknowledged operations must all
survive; the one in-flight operation may additionally survive exactly
when the crash site lies past the WAL acknowledgement point.
"""

import shutil

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.faultinject import (
    STORAGE_SITES,
    InjectedCrash,
    StorageFaultAction,
    active_plan,
    inject_bit_flip,
)
from repro.storage import DurableStore

SERIES = ("s0", "s1")

#: Sites at or past which the in-flight append's WAL record is already on
#: disk, so recovery replays it.  ``wal_append`` fires *before* the record
#: is written — a crash there loses exactly the unacknowledged append.
_IN_FLIGHT_SURVIVES = tuple(site for site in STORAGE_SITES
                            if site != "wal_append")


def _batch(i):
    return np.arange(3, dtype=np.float64) + 10.0 * i


def _run_workload(directory):
    """Run the workload; returns (acked_ops, in_flight_op, crashed)."""
    acked, in_flight = [], None
    try:
        in_flight = ("create-store", None, None)
        store = DurableStore.create(directory, default_segment_size=8)
        acked.append(in_flight)
        for name in SERIES:
            in_flight = ("create", name, None)
            store.create_series(name, codec="raw")
            acked.append(in_flight)
        for i in range(12):
            name = SERIES[i % 2]
            in_flight = ("append", name, _batch(i))
            store.append(name, _batch(i))
            acked.append(in_flight)
        in_flight = ("flush", None, None)
        store.flush()
        acked.append(in_flight)
        store.close()
        return acked, None, False
    except InjectedCrash:
        return acked, in_flight, True


def _check_recovery(directory, acked, in_flight, site):
    """Reopen after the crash and diff against the acknowledged state."""
    expected = {}
    for op, name, values in acked:
        if op == "create":
            expected[name] = []
        elif op == "append":
            expected[name].extend(values)
    maybe_created = None
    if in_flight is not None:
        op, name, values = in_flight
        if op == "create":
            maybe_created = name
        elif op == "append" and site in _IN_FLIGHT_SURVIVES:
            expected[name].extend(values)

    try:
        store = DurableStore.open(directory)
    except StorageError:
        # The store itself was never acknowledged as created.
        assert all(op == "create-store" for op, *_rest in acked)
        return

    names = set(store.list_series())
    assert set(expected) <= names, (
        f"acknowledged series lost at {site}: {set(expected) - names}")
    extra = names - set(expected)
    assert extra <= ({maybe_created} if maybe_created else set()), (
        f"unexpected series after {site} crash: {extra}")
    for name, values in expected.items():
        got = store.read(name)
        assert np.array_equal(got, np.asarray(values)), (
            f"series {name} after crash at {site}: "
            f"{got.size} values, expected {len(values)}")
    assert store.recovery.quarantined == []
    store.close()

    # A second open must be clean and bit-identical again.
    second = DurableStore.open(directory)
    assert second.recovery.clean
    for name, values in expected.items():
        assert np.array_equal(second.read(name), np.asarray(values))
    second.close()


@pytest.mark.parametrize("checkpoint_bytes", [None, 100],
                         ids=["steady", "checkpointing"])
@pytest.mark.parametrize("site", STORAGE_SITES)
def test_kill_at_every_syncpoint(site, checkpoint_bytes, tmp_path,
                                 monkeypatch):
    if checkpoint_bytes is not None:
        # Sealing publishes nothing by itself, so the steady workload
        # checkpoints only at its flush: make WAL-size checkpoints land
        # between the appends too.
        monkeypatch.setattr("repro.storage.durable.WAL_CHECKPOINT_BYTES",
                            checkpoint_bytes)
    crash_points = 0
    for k in range(200):
        directory = tmp_path / f"{site}-{k}"
        with active_plan([StorageFaultAction(kind="crash", site=site,
                                             skip_hits=k)]):
            acked, in_flight, crashed = _run_workload(directory)
            if not crashed:
                break
            crash_points += 1
            _check_recovery(directory, acked, in_flight, site)
        shutil.rmtree(directory, ignore_errors=True)
    else:
        pytest.fail(f"site {site} fired more than 200 times")
    assert crash_points > 0, f"site {site} never fired during the workload"


def test_kill_between_manifest_rename_and_prev_write(tmp_path, monkeypatch):
    """Each such crash leaves ``manifest.json.prev`` one swap behind.  The
    reopened store reads the acknowledged state, and so does a fallback to
    that ``.prev`` when the live manifest is corrupted afterwards: the WAL
    generation it names was not pruned."""
    monkeypatch.setattr("repro.storage.durable.WAL_CHECKPOINT_BYTES", 100)
    crash_points = 0
    for k in range(200):
        directory = tmp_path / f"live-{k}"
        with active_plan([StorageFaultAction(
                kind="crash", site="after_rename", target="manifest.json",
                skip_hits=k)]):
            acked, in_flight, crashed = _run_workload(directory)
        if not crashed:
            break
        crash_points += 1
        fallback = shutil.copytree(directory, tmp_path / f"fallback-{k}")
        _check_recovery(directory, acked, in_flight, "after_rename")
        inject_bit_flip(fallback / "manifest.json", 400)
        _check_recovery(fallback, acked, in_flight, "after_rename")
    else:
        pytest.fail("the manifest was renamed more than 200 times")
    assert crash_points >= 8


@pytest.mark.parametrize("site", ["wal_append", "wal_compact",
                                  "segment_write", "manifest_write"])
def test_injected_torn_write_never_surfaces_bad_data(site, tmp_path):
    """A torn write at any byte-carrying site is detected, not decoded.

    The workload completes (torn writes do not crash the writer — they
    model corruption that reached the platter); recovery must terminate,
    surface the corruption (truncated WAL tail, quarantined segment, or
    previous-manifest fallback), and every readable value must match the
    ingested sequence exactly.
    """
    directory = tmp_path / "store"
    with active_plan([StorageFaultAction(kind="torn_write", site=site,
                                         at_byte=11, skip_hits=2)]):
        acked, in_flight, crashed = _run_workload(directory)
    assert not crashed
    ingested = {}
    for op, name, values in acked:
        if op == "create":
            ingested[name] = []
        elif op == "append":
            ingested[name].extend(values)

    store = DurableStore.open(directory)
    for name, values in ingested.items():
        expected = np.asarray(values)
        try:
            got = store.read(name)
        except StorageError:
            # A quarantined range: corruption surfaced, never silently read.
            assert store.holes(name), f"read failed without a hole: {name}"
            continue
        assert got.size <= expected.size
        assert np.array_equal(got, expected[: got.size]), (
            f"recovered values of {name} are not a prefix of the ingested "
            f"sequence after a torn {site} write")
    store.close()

    # Recovery converges: the second scan reports clean.
    second = DurableStore.open(directory)
    assert second.recovery.clean
    second.close()


@pytest.mark.parametrize("site", ["wal_append", "wal_compact",
                                  "segment_write", "manifest_write"])
def test_injected_bit_flip_never_surfaces_bad_data(site, tmp_path):
    directory = tmp_path / "store"
    with active_plan([StorageFaultAction(kind="bit_flip", site=site,
                                         bit=137, skip_hits=1)]):
        acked, _in_flight, crashed = _run_workload(directory)
    assert not crashed
    ingested = {}
    for op, name, values in acked:
        if op == "create":
            ingested[name] = []
        elif op == "append":
            ingested[name].extend(values)

    store = DurableStore.open(directory)
    for name, values in ingested.items():
        expected = np.asarray(values)
        try:
            got = store.read(name)
        except StorageError:
            assert store.holes(name), f"read failed without a hole: {name}"
            continue
        assert got.size <= expected.size
        assert np.array_equal(got, expected[: got.size])
    store.close()
    second = DurableStore.open(directory)
    assert second.recovery.clean
    second.close()


def test_crash_during_recovery_checkpoint_is_survivable(tmp_path):
    """A crash while recovery itself checkpoints leaves a recoverable store."""
    directory = tmp_path / "store"
    values = np.arange(20.0)
    with DurableStore.create(directory, default_segment_size=8) as store:
        store.create_series("x", codec="raw")
        store.append("x", values)
    # Corrupt the WAL tail so the next open truncates and checkpoints...
    wal = max((directory / "wal").glob("*.wal"))
    wal.write_bytes(wal.read_bytes() + b"\xde\xad\xbe\xef")
    # ...and crash that recovery checkpoint at its manifest swap.
    with active_plan([StorageFaultAction(kind="crash",
                                         site="manifest_write")]):
        with pytest.raises(InjectedCrash):
            DurableStore.open(directory)
    with DurableStore.open(directory) as recovered:
        assert np.array_equal(recovered.read("x"), values)
    with DurableStore.open(directory) as clean:
        assert clean.recovery.clean


# --------------------------------------------------------------------- #
# the ingest spool protocol
# --------------------------------------------------------------------- #
# ``MultiStreamCompressor(spool_to=...)`` layers an ordering protocol on the
# store: split boundaries and idempotency intents durable before the values
# they describe, applied flips durable before a reset invalidates their
# positions, a stream's spool cut back only after the commit that emitted
# its chunks, and cut to the undrained tail — chunks sealed while the batch
# encoded included.  The same kill-at-every-hit loop runs that protocol.

SPOOL_CHUNK = 8

#: ``(op, stream, count-or-pattern, idempotency key)``; a pattern marks
#: where NaNs (split boundaries under the policy) sit among the values.
#: ``drain`` is take → encode → commit in one op; ``take`` ... ``commit``
#: spreads them over ops, so the adds between them seal chunks while the
#: taken batch is out encoding, as they do beside the service's drainer.
_KEYED_OPS = (
    ("add", "a", 3, None), ("add", "a", 4, "k1"), ("add", "b", 5, None),
    ("add", "b", 6, "k2"), ("add", "a", 5, None), ("drain", None, 0, None),
    ("add", "a", 4, "k3"), ("add", "b", 2, None), ("drain", None, 0, None),
    ("add", "a", 3, None), ("add", "b", 7, "k4"), ("add", "a", 6, "k5"),
    # b seals a full chunk during the encode; a only buffers.
    ("take", None, 0, None), ("add", "b", 6, "k6"), ("add", "a", 3, None),
    ("commit", None, 0, None), ("add", "a", 2, "k7"),
)
_SPLIT_OPS = (
    ("add", "a", "vvv", None), ("add", "a", "vv_vv", None),
    ("add", "b", "vvvvvvvvv", None), ("drain", None, 0, None),
    ("add", "a", "v_vv", None), ("add", "b", "vvv", None),
    ("add", "a", "vvvv_v", None), ("drain", None, 0, None),
    ("add", "b", "vv_vvvvvv", None), ("add", "a", "vv", None),
    # During the encode a seals a short chunk at a split, then a full one
    # (its commit advances the watermark); b seals two full chunks (its
    # commit resets the spool to them plus the buffer).
    ("add", "a", "vvvvv", None), ("take", None, 0, None),
    ("add", "a", "vvv_vvvvvvvvvv", None), ("add", "b", "vvvvvvvvvvv", None),
    ("commit", None, 0, None), ("add", "a", "vv", None),
    ("drain", None, 0, None), ("add", "a", "v_vv", None),
)


def _spool_ops(ops):
    """Give every op its values: unique floats, NaN where the pattern says."""
    counter = 0
    for op, stream, pattern, key in ops:
        if isinstance(pattern, int):
            pattern = "v" * pattern
        values = []
        for mark in pattern:
            counter += 1
            values.append(float(counter) if mark == "v" else np.nan)
        yield op, stream, np.asarray(values), key


def _spool_compressor(directory, policy):
    from repro.streaming import MultiStreamCompressor

    return MultiStreamCompressor(SPOOL_CHUNK, "raw", policy=policy,
                                 spool_to=directory)


def _run_spool_workload(directory, ops, policy):
    """Returns (compressor, acked ops, in-flight op, values of the chunks
    the taken-but-uncommitted batch held per stream)."""
    acked, in_flight, draining = [], None, {}
    multi = batch = None
    try:
        in_flight = ("open", None, None, None)
        multi = _spool_compressor(directory, policy)
        for in_flight in _spool_ops(ops):
            op, stream, values, key = in_flight
            if op in ("drain", "take"):
                batch = multi.take()
                assert multi.pending_chunks == 0
                draining = {}
                for name, chunk in batch:
                    draining.setdefault(name, []).extend(chunk.tolist())
            if op in ("drain", "commit"):
                multi.commit(batch, multi.encode(batch))
                draining = {}
            elif op == "add" and key is None:
                multi.add(stream, values)
            elif op == "add":
                multi.add_idempotent(stream, values, key)
            acked.append(in_flight)
        in_flight = ("close", None, None, None)
        multi.close()
        in_flight = None
    except InjectedCrash:
        pass
    return multi, acked, in_flight, draining


def _check_spool_recovery(directory, policy, multi, acked, in_flight,
                          draining):
    """Reboot on the crashed spool and account for every acked value."""
    emitted, crashed_chunks = {}, []
    if multi is not None:
        for stream in multi.streams:
            emitted[stream] = multi.reconstruct(stream).tolist()
            crashed_chunks += [multi.codec.decode(result.block).tolist()
                               for result in multi.results(stream)]
        multi.spool.close()        # process death: nothing graceful runs

    fresh = _spool_compressor(directory, policy)
    fresh.replay_spool()
    # Every acknowledged key dedupes; the in-flight one lands exactly once.
    for op, stream, values, key in acked:
        if key is not None:
            assert fresh.add_idempotent(stream, values, key) == (0, True), (
                f"acknowledged key {key} was not deduplicated after reboot")
    if in_flight is not None and in_flight[3] is not None:
        fresh.add_idempotent(*in_flight[1:])
    fresh.flush()

    expected: dict[str, list[float]] = {}
    gaps = set()
    for op, stream, values, key in acked + ([in_flight] if in_flight else []):
        if op != "add":
            continue
        finite = values[~np.isnan(values)]
        expected.setdefault(stream, []).extend(finite.tolist())
        for position in np.flatnonzero(np.isnan(values)):
            gaps.add((values[position - 1], values[position + 1]))
    for stream, values in expected.items():
        combined = emitted.get(stream, []) + fresh.reconstruct(stream).tolist()
        once = list(dict.fromkeys(combined))
        twice = {value for value in once if combined.count(value) > 1}
        assert twice <= set(draining.get(stream, [])), (
            f"{stream}: values outside the interrupted drain's batch were "
            f"duplicated: {sorted(twice - set(draining.get(stream, [])))}")
        if (in_flight and in_flight[0] == "add" and in_flight[1] == stream
                and in_flight[3] is None):
            # The unacknowledged plain add may have landed, whole or up to
            # one of its split boundaries, or not at all.
            flight = in_flight[2]
            cuts = [0, *(np.flatnonzero(np.isnan(flight)) + 1), flight.size]
            unacked = np.count_nonzero(~np.isnan(flight))
            allowed = [values[: len(values) - unacked]
                       + flight[:cut][~np.isnan(flight[:cut])].tolist()
                       for cut in cuts]
            assert once in allowed, f"{stream}: {once} not in {allowed}"
        else:
            assert once == values, f"{stream}: {once} != {values}"
    for chunk in crashed_chunks + [
            fresh.codec.decode(result.block).tolist()
            for stream in fresh.streams for result in fresh.results(stream)]:
        for left, right in gaps:
            assert not (left in chunk and right in chunk), (
                f"chunk {chunk} bridges the split between {left} and {right}")
    fresh.close()

    for _again in range(2):
        with DurableStore.open(directory) as store:
            assert store.recovery.clean, store.recovery.summary()


@pytest.mark.parametrize("checkpoint_bytes", [None, 300],
                         ids=["steady", "checkpointing"])
@pytest.mark.parametrize("workload", ["keyed", "split"])
@pytest.mark.parametrize("site", STORAGE_SITES)
def test_kill_spool_protocol_at_every_syncpoint(site, workload,
                                                checkpoint_bytes, tmp_path,
                                                monkeypatch):
    from repro.sanitize import InputPolicy

    if checkpoint_bytes is not None:
        # Make WAL-size checkpoints fire inside the workload, so their
        # sites crash under log series and metadata records too.
        monkeypatch.setattr("repro.storage.durable.WAL_CHECKPOINT_BYTES",
                            checkpoint_bytes, raising=False)
    ops = _KEYED_OPS if workload == "keyed" else _SPLIT_OPS
    policy = None if workload == "keyed" else InputPolicy(on_nan="split")
    for k in range(400):
        directory = tmp_path / f"{site}-{k}"
        with active_plan([StorageFaultAction(kind="crash", site=site,
                                             skip_hits=k)]):
            multi, acked, in_flight, draining = _run_spool_workload(
                directory, ops, policy)
            if in_flight is None:
                break
            _check_spool_recovery(directory, policy, multi, acked, in_flight,
                                  draining)
        shutil.rmtree(directory, ignore_errors=True)
    else:
        pytest.fail(f"site {site} fired more than 400 times")
