"""WAL record format, CRC32C, and scan-truncation behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError
from repro.faultinject import InjectedFault, StorageFaultAction, active_plan
from repro.codecs.checksum import crc32c, crc32c_hex
from repro.storage.wal import (
    COMPACTION,
    METADATA,
    RESET,
    WalRecord,
    WriteAheadLog,
    decode_record,
    encode_record,
    scan_wal,
)


class TestCrc32c:
    def test_known_answer_vector(self):
        # The standard CRC32C (Castagnoli) check value.
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_is_zero(self):
        assert crc32c(b"") == 0

    def test_incremental_chaining(self):
        assert crc32c(b"def", crc32c(b"abc")) == crc32c(b"abcdef")

    def test_hex_form(self):
        assert crc32c_hex(b"123456789") == "e3069283"
        assert len(crc32c_hex(b"x")) == 8

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=0, max_size=512))
    def test_detects_any_single_byte_change(self, data):
        reference = crc32c(data)
        if data:
            mutated = bytearray(data)
            mutated[0] ^= 0xFF
            assert crc32c(bytes(mutated)) != reference


def _record(sequence=0, series="s", values=(1.0, 2.0)):
    return WalRecord(sequence=sequence, series=series,
                     values=np.asarray(values, dtype=np.float64))


class TestRecordRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        sequence=st.integers(min_value=0, max_value=2**63 - 1),
        series=st.text(min_size=1, max_size=40),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                  width=64), min_size=0, max_size=64),
    )
    def test_encode_decode_roundtrip(self, sequence, series, values):
        record = _record(sequence, series, values)
        decoded, consumed = decode_record(encode_record(record))
        assert consumed == len(encode_record(record))
        assert decoded.sequence == sequence
        assert decoded.series == series
        assert np.array_equal(decoded.values, record.values)

    @pytest.mark.usefixtures("kernel_tier")
    def test_decodes_in_place_from_any_buffer_at_any_offset(self):
        """The body is checksummed where it lies: no copy, on either tier."""
        first, second = _record(3, "a", [1.5, -2.25]), _record(4, "b", [7.0])
        data = b"\x00" * 5 + encode_record(first) + encode_record(second)
        for buffer in (data, bytearray(data), memoryview(data)):
            decoded, offset = decode_record(buffer, 5)
            assert (decoded.sequence, decoded.series) == (3, "a")
            assert decoded.values.tolist() == [1.5, -2.25]
            decoded, offset = decode_record(buffer, offset)
            assert (decoded.sequence, decoded.series) == (4, "b")
            assert offset == len(data)
        damaged = bytearray(data)
        damaged[30] ^= 0x10
        with pytest.raises(StorageError, match="CRC"):
            decode_record(damaged, 5)

    def test_negative_zero_and_extremes_survive(self):
        values = [-0.0, 0.0, np.finfo(np.float64).max, 5e-324]
        decoded, _ = decode_record(encode_record(_record(values=values)))
        assert np.array_equal(decoded.values, np.asarray(values),
                              equal_nan=True)
        assert np.signbit(decoded.values[0])

    def test_overlong_series_name_rejected(self):
        with pytest.raises(StorageError, match="name too long"):
            encode_record(_record(series="x" * 70_000))


class TestRecordKinds:
    @pytest.mark.parametrize("kind", [COMPACTION, RESET])
    def test_value_carrying_kinds_roundtrip(self, kind):
        record = WalRecord(sequence=3, series="s", values=[1.0, -2.5],
                           kind=kind)
        decoded, consumed = decode_record(encode_record(record))
        assert consumed == len(encode_record(record))
        assert decoded.kind == kind and decoded.metadata is None
        assert decoded.values.tolist() == [1.0, -2.5]

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.text(max_size=12),
        st.one_of(st.none(), st.integers(-2**40, 2**40), st.text(max_size=12),
                  st.lists(st.integers(0, 2**40), max_size=6)),
        max_size=6))
    def test_metadata_roundtrip(self, metadata):
        record = WalRecord(sequence=9, series="séries", kind=METADATA,
                           metadata=metadata)
        data = encode_record(record)
        decoded, consumed = decode_record(data)
        assert consumed == len(data)
        assert decoded.kind == METADATA and decoded.values.size == 0
        assert decoded.metadata == metadata

    def test_every_truncation_of_a_metadata_record_is_rejected(self):
        data = encode_record(WalRecord(
            sequence=1, series="s", kind=METADATA,
            metadata={"splits": [3, 9], "unit": None}))
        for cut in range(len(data)):
            with pytest.raises(StorageError, match="truncated|magic|CRC"):
                decode_record(data[:cut])

    def test_unknown_and_combined_kinds_are_rejected(self):
        with pytest.raises(StorageError, match="kind"):
            WalRecord(sequence=0, series="s", kind=COMPACTION | RESET)
        with pytest.raises(StorageError, match="metadata"):
            WalRecord(sequence=0, series="s", kind=METADATA)
        with pytest.raises(StorageError, match="metadata"):
            WalRecord(sequence=0, series="s", metadata={"a": 1})
        # A well-formed record whose flags byte names no kind: the CRC is
        # right, the kind is not.
        data = bytearray(encode_record(_record()))
        data[18] = 0x08
        data[-4:] = crc32c(bytes(data[:-4])).to_bytes(4, "little")
        with pytest.raises(StorageError, match="flags"):
            decode_record(bytes(data))


class TestCrcRejectsEverySingleBitFlip:
    def test_every_bit_flip_is_rejected(self):
        record = _record(sequence=7, series="sensor-1",
                         values=[1.5, -2.25, 1e300])
        data = bytearray(encode_record(record))
        for bit in range(len(data) * 8):
            data[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(StorageError):
                decode_record(bytes(data))
            data[bit // 8] ^= 1 << (bit % 8)

    def test_every_truncation_is_rejected(self):
        data = encode_record(_record(values=[3.0, 4.0, 5.0]))
        for cut in range(len(data)):
            with pytest.raises(StorageError, match="truncated|magic|CRC"):
                decode_record(data[:cut])


class TestScan:
    def _write(self, path, records):
        path.write_bytes(b"".join(encode_record(r) for r in records))

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.wal")
        assert scan.records == [] and scan.truncated_bytes == 0

    def test_clean_file_scans_fully(self, tmp_path):
        records = [_record(i, "s", [float(i)]) for i in range(5)]
        path = tmp_path / "a.wal"
        self._write(path, records)
        scan = scan_wal(path)
        assert [r.sequence for r in scan.records] == [0, 1, 2, 3, 4]
        assert scan.truncated_bytes == 0 and not scan.truncation_reason

    @pytest.mark.parametrize("cut", [1, 5, 13, 20])
    def test_torn_tail_truncates_to_last_intact_record(self, tmp_path, cut):
        records = [_record(i, "s", [float(i), 2.0]) for i in range(3)]
        path = tmp_path / "a.wal"
        self._write(path, records)
        full = path.read_bytes()
        path.write_bytes(full[: len(full) - cut])
        scan = scan_wal(path)
        assert [r.sequence for r in scan.records] == [0, 1]
        assert scan.truncated_bytes > 0
        assert scan.truncation_reason

    def test_mid_file_bit_flip_stops_the_scan(self, tmp_path):
        records = [_record(i, "s", [float(i)]) for i in range(4)]
        path = tmp_path / "a.wal"
        self._write(path, records)
        data = bytearray(path.read_bytes())
        one = len(encode_record(records[0]))
        data[one + 10] ^= 0x40  # inside record 1
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert [r.sequence for r in scan.records] == [0]
        assert scan.truncated_bytes == len(data) - one

    def test_non_monotonic_sequence_stops_the_scan(self, tmp_path):
        path = tmp_path / "a.wal"
        self._write(path, [_record(3, "s"), _record(3, "s")])
        scan = scan_wal(path)
        assert [r.sequence for r in scan.records] == [3]
        assert "non-monotonic" in scan.truncation_reason


class TestWriteAheadLog:
    def test_append_then_scan(self, tmp_path):
        path = tmp_path / "x.wal"
        with WriteAheadLog(path) as wal:
            for i in range(4):
                wal.append(_record(i, "s", [float(i)]))
        scan = scan_wal(path)
        assert [r.sequence for r in scan.records] == [0, 1, 2, 3]

    @pytest.mark.parametrize("policy", ["always", "interval", "never"])
    def test_policies_all_persist_after_close(self, tmp_path, policy):
        path = tmp_path / "x.wal"
        with WriteAheadLog(path, fsync_policy=policy,
                           fsync_interval=2) as wal:
            for i in range(5):
                wal.append(_record(i, "s", [1.0]))
        assert len(scan_wal(path).records) == 5

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="fsync_policy"):
            WriteAheadLog(tmp_path / "x.wal", fsync_policy="sometimes")


class TestFailedAppend:
    """An append that raises must leave nothing in the file: the caller was
    told it did not happen, and the next append reuses its sequence."""

    @pytest.mark.parametrize("site", ["wal_append", "wal_sync"])
    def test_injected_failure_is_cut_back_out(self, tmp_path, site):
        path = tmp_path / "x.wal"
        with WriteAheadLog(path) as wal:
            wal.append(_record(0, "s", [1.0, 2.0]))
            with active_plan([StorageFaultAction(kind="raise", site=site)]):
                with pytest.raises(InjectedFault):
                    wal.append(_record(1, "s", [3.0]))
            assert wal.size == path.stat().st_size
            wal.append(_record(1, "s", [4.0, 5.0]))
            wal.append(_record(2, "s", [6.0]))
        scan = scan_wal(path)
        assert scan.truncated_bytes == 0
        assert [r.values.tolist() for r in scan.records] == [
            [1.0, 2.0], [4.0, 5.0], [6.0]]

    def test_fsync_error_is_cut_back_out(self, tmp_path, monkeypatch):
        path = tmp_path / "x.wal"
        with WriteAheadLog(path) as wal:
            wal.append(_record(0, "s", [1.0]))
            with monkeypatch.context() as patch:
                def failing_fsync(_fd):
                    raise OSError(5, "Input/output error")
                patch.setattr("os.fsync", failing_fsync)
                with pytest.raises(OSError):
                    wal.append(_record(1, "s", [2.0]))
            wal.append(_record(1, "s", [3.0]))
        assert [r.values.tolist() for r in scan_wal(path).records] == [
            [1.0], [3.0]]

    def test_handle_fail_stops_when_the_cut_fails_too(self, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "x.wal"
        wal = WriteAheadLog(path)
        wal.append(_record(0, "s", [1.0]))

        def failing(*_args):
            raise OSError(5, "Input/output error")
        with monkeypatch.context() as patch:
            patch.setattr("os.fsync", failing)
            patch.setattr(wal._handle, "truncate", failing, raising=False)
            with pytest.raises(OSError):
                wal.append(_record(1, "s", [2.0]))
        with pytest.raises(StorageError, match="could not undo"):
            wal.append(_record(1, "s", [3.0]))

    def test_metadata_records_are_fsynced_under_every_policy(self, tmp_path,
                                                             monkeypatch):
        import os

        synced = []
        fsync = os.fsync
        monkeypatch.setattr(
            "os.fsync", lambda fd: (synced.append(fd), fsync(fd))[1])
        wal = WriteAheadLog(tmp_path / "x.wal", fsync_policy="never")
        wal.append(_record(0, "s", [1.0]))
        assert synced == []
        wal.append(WalRecord(sequence=1, series="s", kind=METADATA,
                             metadata={"k": 1}))
        assert len(synced) == 1
