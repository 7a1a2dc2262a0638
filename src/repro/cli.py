"""Command-line interface for the CAMEO reproduction library.

Six subcommands cover the typical workflow on CSV data:

``compress``
    Compress a single-column CSV (or one column of a wider CSV) with any
    registered codec (``--codec``, default CAMEO).  CAMEO writes the
    compressed representation as irregular-series JSON or ``.npz``; every
    other codec writes a portable codec-block JSON document (``.json``
    outputs only).

``compress-batch``
    Compress a whole fleet of CSVs (glob patterns and/or directories)
    through the batch engine: ``--backend serial|thread``,
    ``--workers N``, any registered ``--codec``.  Writes one codec-block
    JSON document per input into ``--output-dir`` and prints the aggregate
    throughput report; a failing series is reported and skipped, the rest
    of the batch completes.  Fault-handling knobs: ``--timeout`` (per-chunk
    seconds), ``--retries``, ``--on-degrade degrade|error``; input
    policies ``--on-nan`` / ``--on-inf`` admit hostile CSVs.  Exit code 0
    when everything compressed, 3 on partial failure, 4 when nothing did.

``decompress``
    Reconstruct the regular series from a compressed representation
    (either format) and write it back to CSV.

``analyze``
    Print the dataset summary, the ACF deviation and compression ratio a
    given bound would achieve, and the bits/value comparison against the
    Gorilla/Chimp lossless codecs — a quick "should I compress this lossily?"
    report.  ``--codec`` adds any registered codec to the comparison.

``store``
    Crash-consistent durable time series store (``save`` / ``append`` /
    ``load`` / ``fsck``): ingest CSV columns into WAL-backed, checksummed,
    codec-compressed segment files and read them back.  ``store fsck``
    runs the recovery scan and exits 0 on a clean store, 4 when corruption
    was found (quarantined segments / truncated WAL tails).

``list-codecs``
    Enumerate every registered codec with its family and description.

``scorecard``
    Regenerate the statistical-fidelity scorecard: every registered codec
    over every bundled corpus series, scored by every registered fidelity
    metric.  Fully offline and deterministic; writes ``SCORECARD.json``
    (``--output``) and optionally the rendered markdown (``--markdown``).

Example
-------
::

    python -m repro.cli compress readings.csv --column value --max-lag 24 \
        --epsilon 0.01 --output readings.cameo.json
    python -m repro.cli compress readings.csv --codec gorilla \
        --output readings.gorilla.json
    python -m repro.cli compress-batch "sensors/*.csv" --codec gorilla \
        --backend thread --workers 4 --output-dir compressed/
    python -m repro.cli compress readings.csv --codec pmc \
        --codec-arg error_bound=0.5 --output readings.pmc.json
    python -m repro.cli decompress readings.cameo.json --output restored.csv
    python -m repro.cli analyze readings.csv --column value --max-lag 24
    python -m repro.cli list-codecs
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .codecs import (
    available_codecs,
    codec_spec,
    codec_specs,
    get_codec,
)
from .codecs.serialize import BLOCK_FORMAT, block_from_document, save_block_json
from .core import CameoCompressor
from .data.timeseries import IrregularSeries
from .exceptions import ReproError
from .io import load_irregular_json, load_irregular_npz, save_irregular_json, save_irregular_npz
from .metrics import get_metric
from .stats import acf, tumbling_window_aggregate

__all__ = ["main", "build_parser"]


def _read_csv_column(path: Path, column: str | None) -> np.ndarray:
    """Read one numeric column from a CSV file (header optional)."""
    with open(path, newline="", encoding="utf-8") as handle:
        sample = handle.read(4096)
        handle.seek(0)
        has_header = False
        try:
            has_header = csv.Sniffer().has_header(sample)
        except csv.Error:
            pass
        reader = csv.reader(handle)
        rows = [row for row in reader if row]
    if not rows:
        raise ReproError(f"{path} contains no data")
    header = rows[0] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if column is None:
        index = len(rows[0]) - 1 if header is None else len(header) - 1
    elif header is not None and column in header:
        index = header.index(column)
    else:
        try:
            index = int(column)
        except ValueError as exc:
            raise ReproError(
                f"column {column!r} not found in header {header}") from exc
    try:
        return np.asarray([float(row[index]) for row in data_rows], dtype=np.float64)
    except (ValueError, IndexError) as exc:
        raise ReproError(f"cannot parse column {column!r} of {path}: {exc}") from exc


def _write_csv(path: Path, values: np.ndarray, column_name: str = "value") -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", column_name])
        for index, value in enumerate(values):
            writer.writerow([index, repr(float(value))])


def _load_compressed(path: Path) -> IrregularSeries:
    if path.suffix == ".npz":
        return load_irregular_npz(path)
    return load_irregular_json(path)


# --------------------------------------------------------------------------- #
# codec option plumbing
# --------------------------------------------------------------------------- #
def _parse_codec_args(pairs: list[str]) -> dict:
    """Parse repeated ``--codec-arg key=value`` flags into typed kwargs."""
    options: dict = {}
    for pair in pairs or []:
        key, separator, raw = pair.partition("=")
        key = key.strip()
        if not separator or not key:
            raise ReproError(
                f"--codec-arg expects key=value, got {pair!r}")
        options[key] = _parse_codec_value(raw.strip())
    return options


def _parse_codec_value(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _codec_options_from_flags(args: argparse.Namespace, family: str) -> dict:
    """Fold the common CLI flags into codec options where they apply."""
    options: dict = {}
    if family in ("cameo", "simplify"):
        options.update(max_lag=args.max_lag, epsilon=args.epsilon,
                       metric=args.metric, agg_window=args.agg_window)
    if family == "cameo":
        options.update(blocking=args.blocking,
                       statistic=getattr(args, "statistic", "acf"),
                       target_ratio=getattr(args, "target_ratio", None))
    options.update(_parse_codec_args(getattr(args, "codec_arg", [])))
    return options


# --------------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_compress(args: argparse.Namespace) -> int:
    values = _read_csv_column(Path(args.input), args.column)
    spec = codec_spec(args.codec)
    if spec.family == "cameo":
        return _compress_cameo(args, values)

    codec = get_codec(spec.name, **_codec_options_from_flags(args, spec.family))
    block = codec.encode(values)
    output = (Path(args.output) if args.output
              else Path(args.input).with_suffix(f".{spec.name}.json"))
    if output.suffix == ".npz":
        raise ReproError(
            f"codec {spec.name!r} writes codec-block JSON documents; "
            "use a .json output path (.npz is reserved for the CAMEO "
            "irregular-series format)")
    save_block_json(block, output, materialize=lambda: codec.decode(block))
    kind = "lossless" if block.lossless else "lossy"
    print(f"encoded {values.size} values with {spec.name} ({kind}): "
          f"{block.bits_per_value():.2f} bits/value, "
          f"ratio {block.compression_ratio():.2f}x")
    print(f"wrote {output}")
    return 0


def _compress_cameo(args: argparse.Namespace, values: np.ndarray) -> int:
    options = _codec_options_from_flags(args, "cameo")
    compressor = CameoCompressor(options.pop("max_lag"), options.pop("epsilon"),
                                 **options)
    result = compressor.compress(values)
    output = Path(args.output) if args.output else Path(args.input).with_suffix(".cameo.json")
    if output.suffix == ".npz":
        save_irregular_npz(result, output)
    else:
        save_irregular_json(result, output)
    from repro._kernels import describe_tiers
    print(f"compressed {values.size} -> {len(result)} points "
          f"(ratio {result.compression_ratio():.2f}x, "
          f"deviation {result.metadata.get('achieved_deviation', 0.0):.6f})")
    print(f"kernel tier: {describe_tiers()}")
    print(f"wrote {output}")
    return 0


def _expand_batch_inputs(patterns: list[str]) -> list[Path]:
    """Resolve glob patterns / directories / files into a CSV file list."""
    import glob as globlib

    paths: list[Path] = []
    seen: set[Path] = set()
    for pattern in patterns:
        candidate = Path(pattern)
        if candidate.is_dir():
            matches = sorted(candidate.glob("*.csv"))
        elif candidate.is_file():
            matches = [candidate]
        else:
            matches = sorted(Path(match) for match in globlib.glob(pattern))
        for match in matches:
            if match.is_file() and match not in seen:
                seen.add(match)
                paths.append(match)
    return paths


def _unique_series_names(paths: list[Path]) -> list[str]:
    """Collision-free series names (they become output filenames).

    Two inputs with the same stem from different directories must not
    overwrite each other's document: colliding stems are disambiguated with
    their parent directory name, and numbered as a last resort.
    """
    stems = [path.stem for path in paths]
    counts: dict[str, int] = {}
    for stem in stems:
        counts[stem] = counts.get(stem, 0) + 1
    names: list[str] = []
    used: set[str] = set()
    for path, stem in zip(paths, stems):
        name = stem if counts[stem] == 1 else f"{path.parent.name}-{stem}"
        if not name or name in used:
            base = name or stem or "series"
            suffix = 2
            while f"{base}-{suffix}" in used:
                suffix += 1
            name = f"{base}-{suffix}"
        used.add(name)
        names.append(name)
    return names


def _cmd_compress_batch(args: argparse.Namespace) -> int:
    from .engine import compress_batch
    from .sanitize import InputPolicy

    paths = _expand_batch_inputs(args.inputs)
    if not paths:
        raise ReproError(f"no input files matched {args.inputs!r}")
    spec = codec_spec(args.codec)
    options = _codec_options_from_flags(args, spec.family)

    series: list[np.ndarray] = []
    names: list[str] = []
    read_failures: list[tuple[str, str]] = []
    unique_names = _unique_series_names(paths)
    for path, name in zip(paths, unique_names):
        try:
            values = _read_csv_column(path, args.column)
        except ReproError as exc:
            read_failures.append((name, str(exc)))
            continue
        series.append(values)
        names.append(name)

    policy = None
    if args.on_nan != "raise" or args.on_inf != "raise":
        policy = InputPolicy(on_nan=args.on_nan, on_inf=args.on_inf)
    result = compress_batch(series, codec=spec.name, names=names,
                            codec_options=options, backend=args.backend,
                            workers=args.workers,
                            fastpath=not args.no_fastpath,
                            timeout=args.timeout, retries=args.retries,
                            on_degrade=args.on_degrade, policy=policy)

    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    codec = get_codec(spec.name, **options)
    failed = len(read_failures)
    for name, message in read_failures:
        print(f"  FAILED {name}: {message}")
    for outcome in result:
        if not outcome.ok:
            failed += 1
            print(f"  FAILED {outcome.name}: {outcome.error_type}: {outcome.error}")
            continue
        block = outcome.block
        destination = output_dir / f"{outcome.name}.{spec.name}.json"
        save_block_json(block, destination,
                        materialize=lambda block=block: codec.decode(block))

    report = result.report
    print(f"compressed {report.series - report.failed}/{report.series + len(read_failures)} "
          f"series with {spec.name} on the {report.backend} backend "
          f"({report.workers} worker{'s' if report.workers != 1 else ''})")
    print(f"  {report.total_points} points -> {report.bits_per_value:.2f} bits/value "
          f"(ratio {report.compression_ratio:.2f}x)")
    print(f"  wall {report.wall_seconds:.2f} s, cpu {report.cpu_seconds:.2f} s, "
          f"{report.points_per_sec:.0f} points/s, "
          f"{report.fastpath_series} series via the stacked XOR fast path")
    recovery = (report.retries or report.timeouts
                or report.quarantined_chunks or report.degraded_chunks
                or report.sanitized_series)
    if recovery:
        print(f"  recovery: {report.retries} retries, {report.timeouts} timeouts, "
              f"{report.quarantined_chunks} quarantined chunks, "
              f"{report.degraded_series} series degraded, "
              f"{report.sanitized_series} series sanitized")
    succeeded = report.series - report.failed
    print(f"wrote {succeeded} codec-block documents to {output_dir}")
    if failed == 0:
        return 0
    return 4 if succeeded == 0 else 3


def _cmd_decompress(args: argparse.Namespace) -> int:
    path = Path(args.input)
    block = None
    if path.suffix != ".npz":
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            document = None
        if isinstance(document, dict) and document.get("format") == BLOCK_FORMAT:
            block = block_from_document(document)

    if block is not None:
        reconstruction = get_codec(block.codec).decode(block)
        source = f"{block.codec} block ({block.bits_per_value():.2f} bits/value)"
    else:
        compressed = _load_compressed(path)
        reconstruction = compressed.decompress()
        source = f"{len(compressed)} retained"
    output = Path(args.output) if args.output else Path(args.input).with_suffix(".restored.csv")
    _write_csv(output, reconstruction)
    print(f"reconstructed {reconstruction.size} points from {source}")
    print(f"wrote {output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    values = _read_csv_column(Path(args.input), args.column)
    max_lag = min(args.max_lag, values.size // (2 * max(args.agg_window, 1)) or 1)
    tracked = values if args.agg_window <= 1 else tumbling_window_aggregate(
        values, args.agg_window)
    max_lag = max(1, min(max_lag, tracked.size - 2))

    print(f"points          : {values.size}")
    print(f"value range     : [{values.min():.4g}, {values.max():.4g}]")
    print(f"ACF lags tracked: {max_lag}"
          + (f" on {args.agg_window}-point windows" if args.agg_window > 1 else ""))
    acf_values = acf(tracked, max_lag)
    print(f"ACF1            : {acf_values[0]:.3f}   "
          f"strongest lag: {int(np.argmax(np.abs(acf_values))) + 1}")

    for name in ("gorilla", "chimp"):
        spec = codec_spec(name)
        codec = get_codec(name)
        print(f"{spec.label:<16}: {codec.bits_per_value(values):.2f} bits/value (lossless)")

    if args.codec and codec_spec(args.codec).family not in ("cameo", "lossless"):
        spec = codec_spec(args.codec)
        codec = get_codec(spec.name, **_codec_options_from_flags(args, spec.family))
        block = codec.encode(values)
        kind = "lossless" if block.lossless else "lossy"
        print(f"{spec.name:<16}: {block.bits_per_value():.2f} bits/value ({kind}, "
              f"ratio {block.compression_ratio():.2f}x)")

    compressor = CameoCompressor(max_lag, args.epsilon, metric=args.metric,
                                 agg_window=args.agg_window, blocking=args.blocking)
    result = compressor.compress(values)
    reconstruction = result.decompress()
    candidate = reconstruction if args.agg_window <= 1 else tumbling_window_aggregate(
        reconstruction, args.agg_window)
    deviation = float(get_metric(args.metric)(acf(tracked, max_lag), acf(candidate, max_lag)))
    print(f"CAMEO eps={args.epsilon:<7g}: {result.bits_per_value():.2f} bits/value, "
          f"ratio {result.compression_ratio():.2f}x, ACF deviation {deviation:.6f}")
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from .benchlib.scorecard import (
        build_scorecard,
        render_markdown,
        write_scorecard,
    )
    from .fidelity import available_fidelity_metrics

    document = build_scorecard(codecs=args.codec or None,
                               metrics=args.fidelity_metric or None)
    output = Path(args.output)
    write_scorecard(document, output)
    cells = len(document["results"])
    print(f"scored {len(document['codecs'])} codecs x "
          f"{len(document['corpus'])} series x "
          f"{len(document['metrics'])} fidelity metrics ({cells} cells)")
    print(f"fidelity metrics: {', '.join(available_fidelity_metrics())}")
    print(f"wrote {output}")
    if args.markdown:
        markdown = Path(args.markdown)
        markdown.write_text(render_markdown(document), encoding="utf-8")
        print(f"wrote {markdown}")
    return 0


def _cmd_store_save(args: argparse.Namespace) -> int:
    from .storage import DurableStore

    values = _read_csv_column(Path(args.input), args.column)
    store = DurableStore.open(Path(args.directory), create=True,
                              fsync_policy=args.fsync)
    try:
        if args.series not in store:
            options = _parse_codec_args(args.codec_arg)
            store.create_series(args.series, codec=args.codec,
                                segment_size=args.segment_size,
                                codec_options=options or None)
        store.append(args.series, values)
        print(f"saved {values.size} values into series {args.series!r} "
              f"of {args.directory} (length now {store.length(args.series)})")
    finally:
        store.close()
    return 0


def _cmd_store_append(args: argparse.Namespace) -> int:
    from .storage import DurableStore

    values = _read_csv_column(Path(args.input), args.column)
    store = DurableStore.open(Path(args.directory), fsync_policy=args.fsync)
    try:
        store.append(args.series, values)
        print(f"appended {values.size} values to series {args.series!r} "
              f"(length now {store.length(args.series)})")
    finally:
        store.close()
    return 0


def _disk_census(directory: Path, points: int) -> str:
    """On-disk bytes per stored point, by file class, against raw float64."""
    sizes = {"segments": 0, "wal": 0, "manifest": 0, "other": 0}
    for path in directory.rglob("*"):
        if path.is_file():
            top = path.relative_to(directory).parts[0]
            if top.startswith("manifest.json"):
                top = "manifest"
            sizes[top if top in sizes else "other"] += path.stat().st_size
    total = sum(sizes.values())
    parts = ", ".join(f"{name} {size / points:.2f}"
                      for name, size in sizes.items())
    return (f"  on disk: {total / points:.2f} B/point ({parts}); "
            f"ratio {8.0 * points / total:.2f} against 8 B/point raw")


def _cmd_store_load(args: argparse.Namespace) -> int:
    from .storage import DurableStore

    store = DurableStore.open(Path(args.directory))
    try:
        if args.series is None:
            names = store.list_series()
            print(f"{args.directory}: {len(names)} series")
            for name in names:
                info = store.info(name)
                holes = store.holes(name)
                line = (f"  {name}: {info.points} values, codec {info.codec}, "
                        f"{info.segments} segments, "
                        f"{info.bits_per_value:.2f} bits/value")
                if holes:
                    line += f", {len(holes)} quarantined hole(s)"
                print(line)
            points = sum(store.info(name).points for name in names)
            if points:
                print(_disk_census(Path(args.directory), points))
            if not store.recovery.clean:
                print("recovery notes:")
                print(store.recovery.summary())
            return 0
        values = store.read(args.series, args.start, args.stop)
        if args.output:
            _write_csv(Path(args.output), values, column_name=args.series)
            print(f"wrote {values.size} values to {args.output}")
        else:
            for value in values:
                print(value)
    finally:
        store.close()
    return 0


def _cmd_store_fsck(args: argparse.Namespace) -> int:
    from .storage import fsck

    report = fsck(Path(args.directory), fsync_policy=args.fsync)
    print(report.summary())
    return 0 if report.clean else 4


def _cmd_serve(args: argparse.Namespace) -> int:
    from .exceptions import StorageError
    from .service import (CompressionService, ServiceConfig,
                          install_signal_handlers)

    config = ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, drain_timeout=args.drain_timeout,
        codec=args.codec, chunk_size=args.chunk_size,
        default_deadline=args.default_deadline,
        store=args.store, spool_fsync=args.fsync)
    try:
        service = CompressionService(config)
    except StorageError as exc:
        print(f"error: cannot open store: {exc}", file=sys.stderr)
        return 4
    try:
        service.start()
    except OSError as exc:
        print(f"error: cannot bind {config.host}:{config.port}: {exc}",
              file=sys.stderr)
        return 4
    install_signal_handlers(service)
    print(f"serving on {config.host}:{service.port} "
          f"(store: {config.store or 'none'}, workers: {config.workers}, "
          f"queue depth: {config.queue_depth}); SIGTERM drains gracefully",
          flush=True)
    report = service.serve_forever()
    print(f"drained: reason={report.reason} clean={report.clean} "
          f"shed={report.shed_jobs} aborted={report.aborted}", flush=True)
    return 1 if report.aborted else 0


def _cmd_list_codecs(_args: argparse.Namespace) -> int:
    specs = codec_specs()
    name_width = max(len(spec.name) for spec in specs)
    family_width = max(len(spec.family) for spec in specs)
    print(f"{len(specs)} registered codecs "
          "(use with compress/analyze --codec NAME [--codec-arg k=v])")
    for spec in specs:
        print(f"  {spec.name:<{name_width}}  {spec.family:<{family_width}}  "
              f"{spec.description}")
    from repro._kernels import describe_tiers
    print(f"kernel tier: {describe_tiers()}")
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CAMEO autocorrelation-preserving compression")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, *, default_codec: str | None) -> None:
        sub.add_argument("input", help="input file")
        sub.add_argument("--column", default=None,
                         help="CSV column name or index (default: last column)")
        sub.add_argument("--codec", default=default_codec,
                         help="registered codec to use (see list-codecs; "
                              f"default {default_codec})")
        sub.add_argument("--codec-arg", action="append", default=[], metavar="K=V",
                         help="extra codec option, repeatable "
                              "(e.g. --codec-arg error_bound=0.5)")
        sub.add_argument("--max-lag", type=int, default=24,
                         help="number of ACF lags to preserve (default 24)")
        sub.add_argument("--epsilon", type=float, default=0.01,
                         help="maximum ACF deviation (default 0.01)")
        sub.add_argument("--metric", default="mae",
                         help="deviation measure: mae, cheb, rmse, ... (default mae)")
        sub.add_argument("--agg-window", type=int, default=1,
                         help="tumbling-window size for the on-aggregates variant")
        sub.add_argument("--blocking", default="5logn",
                         help="blocking neighbourhood (default 5logn)")

    compress = subparsers.add_parser("compress",
                                     help="compress a CSV column with a registered codec")
    add_common(compress, default_codec="cameo")
    compress.add_argument("--statistic", choices=("acf", "pacf"), default="acf")
    compress.add_argument("--target-ratio", type=float, default=None,
                          help="compression-centric mode: stop at this ratio")
    compress.add_argument("--output", default=None,
                          help="output path (default <input>.<codec>.json; "
                               ".npz is supported for the cameo codec only)")
    compress.set_defaults(func=_cmd_compress)

    batch = subparsers.add_parser(
        "compress-batch",
        help="compress many CSVs through the batch engine")
    batch.add_argument("inputs", nargs="+",
                       help="CSV files, glob patterns, or directories")
    batch.add_argument("--column", default=None,
                       help="CSV column name or index (default: last column)")
    batch.add_argument("--codec", default="cameo",
                       help="registered codec to use (see list-codecs)")
    batch.add_argument("--codec-arg", action="append", default=[], metavar="K=V",
                       help="extra codec option, repeatable")
    batch.add_argument("--backend", default="serial",
                       choices=("serial", "thread"),
                       help="execution backend (default serial)")
    batch.add_argument("--workers", type=int, default=None,
                       help="parallel workers (default: CPU count)")
    batch.add_argument("--no-fastpath", action="store_true",
                       help="disable the stacked XOR encode (lossless "
                            "codecs; the only cross-series fast path)")
    batch.add_argument("--timeout", type=float, default=None,
                       help="per-chunk timeout in seconds (default: none)")
    batch.add_argument("--retries", type=int, default=1,
                       help="chunk retry budget before quarantine (default 1)")
    batch.add_argument("--on-degrade", default="degrade",
                       choices=("degrade", "error"),
                       help="what happens to a quarantined thread-backend "
                            "chunk: re-encode it serially, or record errors "
                            "(default degrade)")
    batch.add_argument("--on-nan", default="raise",
                       choices=("raise", "skip", "split"),
                       help="input policy for NaN values (default raise)")
    batch.add_argument("--on-inf", default="raise",
                       choices=("raise", "skip"),
                       help="input policy for non-finite values (default raise)")
    batch.add_argument("--output-dir", default="compressed",
                       help="directory for the codec-block documents "
                            "(default ./compressed)")
    batch.add_argument("--max-lag", type=int, default=24)
    batch.add_argument("--epsilon", type=float, default=0.01)
    batch.add_argument("--metric", default="mae")
    batch.add_argument("--agg-window", type=int, default=1)
    batch.add_argument("--blocking", default="5logn")
    batch.add_argument("--statistic", choices=("acf", "pacf"), default="acf")
    batch.add_argument("--target-ratio", type=float, default=None)
    batch.set_defaults(func=_cmd_compress_batch)

    decompress = subparsers.add_parser("decompress",
                                       help="reconstruct a compressed representation")
    decompress.add_argument("input", help="compressed .json or .npz file")
    decompress.add_argument("--output", default=None, help="output CSV path")
    decompress.set_defaults(func=_cmd_decompress)

    analyze = subparsers.add_parser("analyze",
                                    help="report compressibility of a CSV column")
    add_common(analyze, default_codec=None)
    analyze.set_defaults(func=_cmd_analyze)

    list_codecs = subparsers.add_parser("list-codecs",
                                        help="list every registered codec")
    list_codecs.set_defaults(func=_cmd_list_codecs)

    store = subparsers.add_parser(
        "store",
        help="crash-consistent durable time series store (WAL + checksums)")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def add_store_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("directory", help="durable store directory")
        sub.add_argument("--fsync", default="always",
                         choices=("always", "interval", "never"),
                         help="WAL fsync policy (default always)")

    store_save = store_sub.add_parser(
        "save", help="ingest a CSV column into a series (store and series "
                     "are created when missing)")
    add_store_dir(store_save)
    store_save.add_argument("--input", required=True, help="CSV file to ingest")
    store_save.add_argument("--series", required=True, help="target series name")
    store_save.add_argument("--column", default=None,
                            help="CSV column name or index (default: last)")
    store_save.add_argument("--codec", default="cameo",
                            help="codec for a newly created series "
                                 "(default cameo)")
    store_save.add_argument("--codec-arg", action="append", default=[],
                            metavar="K=V", help="codec option, repeatable")
    store_save.add_argument("--segment-size", type=int, default=None,
                            help="values per sealed segment for a new series")
    store_save.set_defaults(func=_cmd_store_save)

    store_append = store_sub.add_parser(
        "append", help="append a CSV column to an existing series")
    add_store_dir(store_append)
    store_append.add_argument("--input", required=True, help="CSV file")
    store_append.add_argument("--series", required=True, help="series name")
    store_append.add_argument("--column", default=None,
                              help="CSV column name or index (default: last)")
    store_append.set_defaults(func=_cmd_store_append)

    store_load = store_sub.add_parser(
        "load", help="read a series back out (or summarize the store)")
    add_store_dir(store_load)
    store_load.add_argument("--series", default=None,
                            help="series to read (default: summarize all)")
    store_load.add_argument("--output", default=None,
                            help="CSV output path (default: print values)")
    store_load.add_argument("--start", type=int, default=0,
                            help="first position to read (default 0)")
    store_load.add_argument("--stop", type=int, default=None,
                            help="one past the last position (default: end)")
    store_load.set_defaults(func=_cmd_store_load)

    store_fsck = store_sub.add_parser(
        "fsck", help="recovery scan: verify checksums, quarantine corrupt "
                     "segments, replay the WAL (exit 0 clean, 4 corruption)")
    add_store_dir(store_fsck)
    store_fsck.set_defaults(func=_cmd_store_fsck)

    serve = subparsers.add_parser(
        "serve",
        help="run the crash-tolerant compression service (exit 0 after a "
             "clean drain, 4 when the bind or store open fails)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks a free one (default 8765)")
    serve.add_argument("--workers", type=int, default=2,
                       help="job-executor threads (default 2)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission queue cap (default 64)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds queued jobs get to finish on SIGTERM "
                            "before the rest is shed (default 10)")
    serve.add_argument("--store", default=None,
                       help="durable store directory enabling /ingest "
                            "spooling and idempotency (default: none)")
    serve.add_argument("--fsync", default="always",
                       choices=("always", "interval", "never"),
                       help="spool WAL fsync policy (default always)")
    serve.add_argument("--codec", default="gorilla",
                       help="default codec for requests (default gorilla)")
    serve.add_argument("--chunk-size", type=int, default=256,
                       help="values per sealed ingest chunk (default 256)")
    serve.add_argument("--default-deadline", type=float, default=30.0,
                       help="request budget in seconds when the client "
                            "sends no X-Deadline-Ms (default 30)")
    serve.set_defaults(func=_cmd_serve)

    scorecard = subparsers.add_parser(
        "scorecard",
        help="regenerate the statistical-fidelity scorecard (offline)")
    scorecard.add_argument("--output", default="SCORECARD.json",
                           help="scorecard JSON path (default SCORECARD.json)")
    scorecard.add_argument("--codec", action="append", default=[],
                           help="restrict to this codec, repeatable "
                                "(default: every registered codec)")
    scorecard.add_argument("--fidelity-metric", action="append", default=[],
                           help="restrict to this fidelity metric, repeatable "
                                "(default: every registered metric)")
    scorecard.add_argument("--markdown", default=None, metavar="PATH",
                           help="also write the rendered markdown tables")
    scorecard.set_defaults(func=_cmd_scorecard)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
