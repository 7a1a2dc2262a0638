"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import re

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def sample_csv(tmp_path):
    rng = np.random.default_rng(0)
    values = 10 + 3 * np.sin(2 * np.pi * np.arange(600) / 24) + rng.normal(0, 0.3, 600)
    path = tmp_path / "readings.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "value"])
        for index, value in enumerate(values):
            writer.writerow([index, f"{value:.6f}"])
    return path, values


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ("compress", "decompress", "analyze"):
            args = parser.parse_args([command, "file.csv"]
                                     if command != "decompress" else [command, "file.json"])
            assert args.command == command

    def test_compress_defaults(self):
        args = build_parser().parse_args(["compress", "x.csv"])
        assert args.max_lag == 24
        assert args.epsilon == 0.01
        assert args.statistic == "acf"


class TestCompressDecompress:
    def test_roundtrip_json(self, sample_csv, tmp_path, capsys):
        path, values = sample_csv
        compressed_path = tmp_path / "out.cameo.json"
        code = main(["compress", str(path), "--column", "value", "--max-lag", "24",
                     "--epsilon", "0.02", "--output", str(compressed_path)])
        assert code == 0
        assert compressed_path.exists()
        output = capsys.readouterr().out
        assert "ratio" in output

        restored_path = tmp_path / "restored.csv"
        code = main(["decompress", str(compressed_path), "--output", str(restored_path)])
        assert code == 0
        with open(restored_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        restored = np.asarray([float(row[1]) for row in rows[1:]])
        assert restored.size == values.size
        # Reconstruction error is bounded by the series scale.
        assert float(np.max(np.abs(restored - values))) < float(np.ptp(values))

    def test_roundtrip_npz(self, sample_csv, tmp_path):
        path, _values = sample_csv
        compressed_path = tmp_path / "out.npz"
        assert main(["compress", str(path), "--column", "value",
                     "--output", str(compressed_path)]) == 0
        assert main(["decompress", str(compressed_path),
                     "--output", str(tmp_path / "r.csv")]) == 0

    def test_target_ratio_mode(self, sample_csv, tmp_path, capsys):
        path, _values = sample_csv
        out = tmp_path / "ratio.json"
        code = main(["compress", str(path), "--column", "value", "--target-ratio", "5",
                     "--epsilon", "1", "--output", str(out)])
        assert code == 0
        assert "5.0" in capsys.readouterr().out

    def test_missing_column_errors(self, sample_csv, tmp_path):
        path, _values = sample_csv
        code = main(["compress", str(path), "--column", "nope",
                     "--output", str(tmp_path / "x.json")])
        assert code == 2


class TestCodecSelection:
    def test_list_codecs(self, capsys):
        from repro.codecs import available_codecs

        assert main(["list-codecs"]) == 0
        output = capsys.readouterr().out
        for name in available_codecs():
            assert name in output

    @pytest.mark.parametrize("codec,extra", [
        ("gorilla", []),
        ("pmc", ["--codec-arg", "error_bound=0.5"]),
        ("vw", ["--epsilon", "0.05"]),
    ])
    def test_codec_roundtrip(self, codec, extra, sample_csv, tmp_path, capsys):
        path, values = sample_csv
        compressed = tmp_path / f"out.{codec}.json"
        code = main(["compress", str(path), "--column", "value", "--codec", codec,
                     *extra, "--output", str(compressed)])
        assert code == 0
        assert compressed.exists()
        assert "bits/value" in capsys.readouterr().out

        restored = tmp_path / "restored.csv"
        assert main(["decompress", str(compressed), "--output", str(restored)]) == 0
        with open(restored, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        restored_values = np.asarray([float(row[1]) for row in rows[1:]])
        assert restored_values.size == values.size
        if codec == "gorilla":
            np.testing.assert_allclose(restored_values, values, atol=1e-6)

    def test_unknown_codec_lists_available(self, sample_csv, tmp_path, capsys):
        path, _values = sample_csv
        code = main(["compress", str(path), "--codec", "zstd",
                     "--output", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown codec" in err and "gorilla" in err

    def test_non_cameo_codec_rejects_npz_output(self, sample_csv, tmp_path, capsys):
        path, _values = sample_csv
        code = main(["compress", str(path), "--codec", "gorilla",
                     "--output", str(tmp_path / "out.npz")])
        assert code == 2
        assert ".json" in capsys.readouterr().err

    def test_bad_codec_arg_rejected(self, sample_csv, tmp_path):
        path, _values = sample_csv
        code = main(["compress", str(path), "--codec", "pmc",
                     "--codec-arg", "error_bound", "--output", str(tmp_path / "x.json")])
        assert code == 2

    def test_codec_arg_reaches_cameo(self, sample_csv, tmp_path, capsys):
        path, _values = sample_csv
        out = tmp_path / "out.json"
        code = main(["compress", str(path), "--column", "value", "--epsilon", "1",
                     "--codec-arg", "target_ratio=5", "--output", str(out)])
        assert code == 0
        assert "5.0" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_report(self, sample_csv, capsys):
        path, _values = sample_csv
        assert main(["analyze", str(path), "--column", "value", "--max-lag", "24"]) == 0
        output = capsys.readouterr().out
        assert "ACF1" in output
        assert "Gorilla" in output
        assert "CAMEO" in output

    def test_analyze_with_aggregation(self, sample_csv, capsys):
        path, _values = sample_csv
        assert main(["analyze", str(path), "--column", "value", "--max-lag", "8",
                     "--agg-window", "12"]) == 0
        assert "windows" in capsys.readouterr().out

    def test_analyze_with_extra_codec(self, sample_csv, capsys):
        path, _values = sample_csv
        assert main(["analyze", str(path), "--column", "value", "--codec", "pmc",
                     "--codec-arg", "error_bound=0.5"]) == 0
        output = capsys.readouterr().out
        assert "pmc" in output and "Gorilla" in output and "CAMEO" in output


class TestCompressBatch:
    @pytest.fixture()
    def csv_dir(self, tmp_path):
        rng = np.random.default_rng(5)
        directory = tmp_path / "sensors"
        directory.mkdir()
        fleet = {}
        for index in range(4):
            values = np.round(
                10 + 3 * np.sin(2 * np.pi * np.arange(200) / 24)
                + rng.normal(0, 0.3, 200), 3)
            path = directory / f"sensor{index}.csv"
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["t", "value"])
                for t, value in enumerate(values):
                    writer.writerow([t, repr(float(value))])
            fleet[f"sensor{index}"] = values
        return directory, fleet

    def test_batch_roundtrip_gorilla(self, csv_dir, tmp_path, capsys):
        directory, fleet = csv_dir
        out_dir = tmp_path / "out"
        code = main(["compress-batch", str(directory), "--codec", "gorilla",
                     "--output-dir", str(out_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "compressed 4/4 series with gorilla" in output
        assert "points/s" in output
        import json

        from repro.codecs import get_codec
        from repro.codecs.serialize import block_from_document

        codec = get_codec("gorilla")
        for name, values in fleet.items():
            document = json.loads((out_dir / f"{name}.gorilla.json").read_text())
            block = block_from_document(document)
            assert np.array_equal(codec.decode(block), values)

    def test_batch_cameo_matches_single_compress(self, csv_dir, tmp_path):
        directory, fleet = csv_dir
        out_dir = tmp_path / "out-cameo"
        code = main(["compress-batch", str(directory / "*.csv"),
                     "--codec", "cameo", "--max-lag", "12",
                     "--epsilon", "0.05", "--output-dir", str(out_dir)])
        assert code == 0
        import json

        from repro.codecs import get_codec
        from repro.codecs.serialize import block_from_document

        codec = get_codec("cameo", max_lag=12, epsilon=0.05)
        for name, values in fleet.items():
            document = json.loads((out_dir / f"{name}.cameo.json").read_text())
            block = block_from_document(document)
            reference = codec.encode(values)
            assert (block.payload.indices.tolist()
                    == reference.payload.indices.tolist())

    def test_unreadable_file_is_isolated(self, csv_dir, tmp_path, capsys):
        directory, _fleet = csv_dir
        (directory / "broken.csv").write_text("a,b\n1,not-a-number\n")
        out_dir = tmp_path / "out-mixed"
        code = main(["compress-batch", str(directory), "--codec", "gorilla",
                     "--output-dir", str(out_dir)])
        assert code == 3
        output = capsys.readouterr().out
        assert "FAILED broken" in output
        assert "compressed 4/5 series" in output
        assert len(list(out_dir.glob("*.json"))) == 4

    def test_no_matches_errors(self, tmp_path, capsys):
        code = main(["compress-batch", str(tmp_path / "nothing-*.csv")])
        assert code == 2
        assert "no input files matched" in capsys.readouterr().err

    def test_same_stem_inputs_do_not_collide(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        fleets = {}
        for sub in ("east", "west"):
            directory = tmp_path / sub
            directory.mkdir()
            values = np.round(rng.normal(10, 1, 120), 3)
            with open(directory / "sensor.csv", "w", newline="",
                      encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["t", "value"])
                for t, value in enumerate(values):
                    writer.writerow([t, repr(float(value))])
            fleets[sub] = values
        out_dir = tmp_path / "out"
        code = main(["compress-batch", str(tmp_path / "east"),
                     str(tmp_path / "west"), "--codec", "gorilla",
                     "--output-dir", str(out_dir)])
        assert code == 0
        written = sorted(path.name for path in out_dir.glob("*.json"))
        assert written == ["east-sensor.gorilla.json", "west-sensor.gorilla.json"]
        import json

        from repro.codecs import get_codec
        from repro.codecs.serialize import block_from_document

        codec = get_codec("gorilla")
        for sub in ("east", "west"):
            document = json.loads(
                (out_dir / f"{sub}-sensor.gorilla.json").read_text())
            assert np.array_equal(codec.decode(block_from_document(document)),
                                  fleets[sub])


class TestBatchExitCodes:
    """compress-batch exit-code matrix: 0 all-ok, 3 partial, 4 total failure,
    including the new timeout/degradation and input-policy outcomes."""

    @staticmethod
    def _write_csv(path, values):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["value"])
            for value in values:
                writer.writerow([value])

    @pytest.fixture()
    def mixed_dir(self, tmp_path):
        directory = tmp_path / "mixed"
        directory.mkdir()
        clean = np.round(np.sin(np.arange(150) / 7.0), 3)
        self._write_csv(directory / "good.csv", clean)
        hostile = [v if not 40 <= i < 50 else "nan"
                   for i, v in enumerate(clean)]
        self._write_csv(directory / "gappy.csv", hostile)
        return directory

    def test_all_ok_exits_zero(self, mixed_dir, tmp_path):
        code = main(["compress-batch", str(mixed_dir / "good.csv"),
                     "--codec", "gorilla",
                     "--output-dir", str(tmp_path / "ok")])
        assert code == 0

    def test_partial_failure_exits_three(self, mixed_dir, tmp_path, capsys):
        code = main(["compress-batch", str(mixed_dir), "--codec", "gorilla",
                     "--output-dir", str(tmp_path / "partial")])
        assert code == 3
        assert "FAILED gappy" in capsys.readouterr().out

    def test_total_failure_exits_four(self, mixed_dir, tmp_path, capsys):
        code = main(["compress-batch", str(mixed_dir / "gappy.csv"),
                     "--codec", "gorilla",
                     "--output-dir", str(tmp_path / "total")])
        assert code == 4
        assert "compressed 0/1" in capsys.readouterr().out

    def test_nan_policy_turns_failure_into_success(self, mixed_dir, tmp_path,
                                                   capsys):
        out_dir = tmp_path / "policy"
        code = main(["compress-batch", str(mixed_dir), "--codec", "gorilla",
                     "--on-nan", "skip", "--output-dir", str(out_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "1 series sanitized" in output
        assert len(list(out_dir.glob("*.json"))) == 2

    def test_split_policy_records_metadata(self, mixed_dir, tmp_path):
        import json

        out_dir = tmp_path / "split"
        code = main(["compress-batch", str(mixed_dir / "gappy.csv"),
                     "--codec", "gorilla", "--on-nan", "split",
                     "--output-dir", str(out_dir)])
        assert code == 0
        document = json.loads((out_dir / "gappy.gorilla.json").read_text())
        record = document["metadata"]["sanitize"]
        assert record["dropped_nan"] == 10
        assert record["nan_runs"] == [[40, 10]]

    def test_injected_fault_with_on_degrade_error_exits_three(
            self, mixed_dir, tmp_path, capsys):
        from repro.faultinject import FaultAction, active_plan

        with active_plan([FaultAction(kind="raise", series=0, site="chunk",
                                      max_hits=None)]):
            code = main(["compress-batch", str(mixed_dir / "good.csv"),
                         "--codec", "gorilla", "--backend", "thread",
                         "--workers", "2", "--timeout", "10",
                         "--retries", "0", "--on-degrade", "error",
                         "--output-dir", str(tmp_path / "fault")])
        assert code == 4
        output = capsys.readouterr().out
        assert "recovery:" in output
        assert "quarantined" in output

    def test_injected_fault_with_degradation_exits_zero(
            self, mixed_dir, tmp_path, capsys):
        from repro.faultinject import FaultAction, active_plan

        # Two hits outlast the one in-tier retry; the serial rung succeeds.
        with active_plan([FaultAction(kind="raise", series=0, site="chunk",
                                      max_hits=2)]):
            code = main(["compress-batch", str(mixed_dir / "good.csv"),
                         "--codec", "gorilla", "--backend", "thread",
                         "--workers", "2", "--timeout", "10",
                         "--output-dir", str(tmp_path / "degraded")])
        assert code == 0
        output = capsys.readouterr().out
        assert "series degraded" in output

    @pytest.mark.parametrize("flag, removed", [("--backend", "process"),
                                               ("--on-degrade", "serial")])
    def test_removed_choices_are_usage_errors(self, flag, removed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["compress-batch", "x.csv", flag,
                                       removed])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{removed}'" in capsys.readouterr().err

    def test_fault_knob_defaults(self):
        args = build_parser().parse_args(
            ["compress-batch", "x.csv"])
        assert args.timeout is None
        assert args.retries == 1
        assert args.on_degrade == "degrade"
        assert args.on_nan == "raise"
        assert args.on_inf == "raise"


class TestStoreCommands:
    @pytest.fixture()
    def plain_csv(self, tmp_path):
        values = np.round(np.random.default_rng(5).normal(size=40), 3)
        path = tmp_path / "plain.csv"
        path.write_text("\n".join(f"{v}" for v in values) + "\n",
                        encoding="utf-8")
        return path, values

    def test_store_subcommands_parse(self):
        parser = build_parser()
        args = parser.parse_args(["store", "fsck", "dir"])
        assert args.store_command == "fsck" and args.fsync == "always"
        args = parser.parse_args(["store", "save", "dir", "--input", "x.csv",
                                  "--series", "s", "--codec", "raw"])
        assert args.codec == "raw" and args.segment_size is None

    def test_save_load_roundtrip(self, plain_csv, tmp_path, capsys):
        path, values = plain_csv
        directory = tmp_path / "db"
        assert main(["store", "save", str(directory), "--input", str(path),
                     "--series", "t", "--codec", "raw",
                     "--segment-size", "16"]) == 0
        assert "saved 40 values" in capsys.readouterr().out

        out_csv = tmp_path / "out.csv"
        assert main(["store", "load", str(directory), "--series", "t",
                     "--output", str(out_csv)]) == 0
        restored = np.loadtxt(out_csv, delimiter=",", skiprows=1,
                              usecols=1)
        assert np.array_equal(restored, values)

    def test_append_extends_series(self, plain_csv, tmp_path, capsys):
        path, values = plain_csv
        directory = tmp_path / "db"
        main(["store", "save", str(directory), "--input", str(path),
              "--series", "t", "--codec", "raw"])
        assert main(["store", "append", str(directory), "--input", str(path),
                     "--series", "t"]) == 0
        assert "length now 80" in capsys.readouterr().out

    def test_append_to_missing_store_errors(self, plain_csv, tmp_path):
        path, _values = plain_csv
        assert main(["store", "append", str(tmp_path / "absent"),
                     "--input", str(path), "--series", "t"]) == 2

    def test_load_summary_lists_series(self, plain_csv, tmp_path, capsys):
        path, _values = plain_csv
        directory = tmp_path / "db"
        main(["store", "save", str(directory), "--input", str(path),
              "--series", "t", "--codec", "gorilla"])
        capsys.readouterr()
        assert main(["store", "load", str(directory)]) == 0
        output = capsys.readouterr().out
        assert "1 series" in output and "codec gorilla" in output

    def test_load_summary_prints_the_disk_census(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        rng = np.random.default_rng(5)
        np.savetxt(path, np.repeat(rng.integers(0, 5, size=256), 16),
                   header="value", comments="")
        directory = tmp_path / "db"
        main(["store", "save", str(directory), "--input", str(path),
              "--series", "t", "--codec", "gorilla"])
        main(["store", "append", str(directory), "--input", str(path),
              "--series", "t"])
        capsys.readouterr()
        assert main(["store", "load", str(directory)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if "on disk:" in line]
        numbers = dict(zip(
            ("total", "segments", "wal", "manifest", "other", "ratio", "raw"),
            map(float, re.findall(r"\d+\.\d+|\d+", line))))
        on_disk = sum(file.stat().st_size for file in directory.rglob("*")
                      if file.is_file())
        assert numbers["total"] == pytest.approx(on_disk / 8192, abs=0.01)
        assert numbers["total"] == pytest.approx(
            sum(numbers[part] for part in ("segments", "wal", "manifest",
                                           "other")), abs=0.03)
        assert numbers["ratio"] == pytest.approx(8 * 8192 / on_disk, abs=0.01)
        # Runs of repeated values through gorilla, stored as the bytes the
        # encoder produced: a fraction of the 8 B/point they arrived as.
        assert 0 < numbers["segments"] < 2.0 and numbers["raw"] == 8

    def test_fsck_exit_code_matrix(self, plain_csv, tmp_path, capsys):
        """Exit 0 on a clean store, 4 after corruption, 0 once repaired."""
        from repro.faultinject import inject_bit_flip

        path, _values = plain_csv
        directory = tmp_path / "db"
        main(["store", "save", str(directory), "--input", str(path),
              "--series", "t", "--codec", "raw", "--segment-size", "8"])
        assert main(["store", "fsck", str(directory)]) == 0
        assert "store is clean" in capsys.readouterr().out

        target = sorted(directory.glob("segments/*/*/seg-*.seg"))[0]
        inject_bit_flip(target, 123)
        assert main(["store", "fsck", str(directory)]) == 4
        output = capsys.readouterr().out
        assert "quarantined 1 segment(s)" in output
        assert "checksum-mismatch" in output

        # The corruption was contained: the next scan is clean again.
        assert main(["store", "fsck", str(directory)]) == 0

        # Reads of the quarantined range fail loudly, not silently.
        assert main(["store", "load", str(directory), "--series", "t",
                     "--output", str(tmp_path / "o.csv")]) == 2

    def test_fsck_missing_store_errors(self, tmp_path):
        assert main(["store", "fsck", str(tmp_path / "absent")]) == 2


class TestServe:
    """The `repro serve` matrix: parse, boot, drain, and failure exits."""

    def test_serve_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8765
        assert args.workers == 2
        assert args.queue_depth == 64
        assert args.drain_timeout == 10.0
        assert args.store is None
        assert args.codec == "gorilla"

    def test_serve_flags_parse_explicit(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--queue-depth", "16",
             "--drain-timeout", "2.5", "--store", "/tmp/s",
             "--fsync", "never", "--chunk-size", "32"])
        assert (args.port, args.workers, args.queue_depth) == (0, 4, 16)
        assert args.drain_timeout == 2.5
        assert args.store == "/tmp/s" and args.fsync == "never"

    def _spawn(self, *extra, port):
        import os
        import subprocess
        import sys

        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", str(port), *extra],
            env=dict(os.environ), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)

    @staticmethod
    def _free_port() -> int:
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def _wait_ready(self, port: int) -> None:
        import time
        import urllib.request

        for _ in range(200):
            try:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/readyz", timeout=1)
                return
            except OSError:
                time.sleep(0.05)
        raise AssertionError("service never became ready")

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        import json
        import signal
        import urllib.request

        port = self._free_port()
        process = self._spawn("--store", str(tmp_path / "store"),
                              "--chunk-size", "8", port=port)
        try:
            self._wait_ready(port)
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/ingest",
                data=json.dumps({"stream": "s",
                                 "values": [1.0] * 20}).encode(),
                method="POST", headers={"Idempotency-Key": "cli"})
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0, output
        assert "drained" in output
        # The drained store is unlocked and fsck-clean.
        assert main(["store", "fsck", str(tmp_path / "store")]) == 0

    def test_bind_failure_exits_four(self):
        import socket

        with socket.socket() as occupier:
            occupier.bind(("127.0.0.1", 0))
            occupier.listen(1)
            busy_port = occupier.getsockname()[1]
            process = self._spawn(port=busy_port)
            output, _ = process.communicate(timeout=30)
        assert process.returncode == 4, output
        assert "cannot bind" in output

    def test_locked_store_exits_four(self, tmp_path):
        from repro.storage import DurableStore

        store_dir = tmp_path / "locked"
        with DurableStore.create(store_dir):
            process = self._spawn("--store", str(store_dir),
                                  port=self._free_port())
            output, _ = process.communicate(timeout=30)
        assert process.returncode == 4, output
        assert "cannot open store" in output
        assert "held by pid" in output

    def test_bad_flags_exit_two(self, tmp_path):
        assert main(["serve", "--port", "70000"]) == 2
        assert main(["serve", "--workers", "0"]) == 2
