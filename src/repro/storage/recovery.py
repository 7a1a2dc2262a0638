"""Recovery reporting and fsck for the durable store.

Opening a :class:`repro.storage.durable.DurableStore` is always a recovery
scan: the manifest is verified (falling back to the previous manifest when
the current one is corrupt), every referenced segment file is checksummed,
corrupt segments are *quarantined* — moved into ``quarantine/`` with a
machine-readable reason file, never silently dropped and never decoded —
and the shard WALs are replayed up to their last intact record.  The
outcome of all of that is a :class:`RecoveryReport`.

:func:`fsck` is the standalone check: run a full recovery, close the
store, and summarise what was found.  Its exit-code contract (via the CLI
``store fsck`` subcommand) is ``0`` for a clean store and ``4`` when
corruption was found and quarantined/truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["QuarantinedSegment", "RecoveryReport", "fsck", "recover"]


@dataclass(frozen=True)
class QuarantinedSegment:
    """One corrupt segment moved to ``quarantine/`` during recovery."""

    #: Series the segment belonged to.
    series: str
    #: Manifest-relative path the segment lived at.
    file: str
    #: Machine-readable reason code (``checksum-mismatch`` |
    #: ``truncated-header`` | ``truncated-footer`` | ``parse-error`` |
    #: ``manifest-mismatch`` | ``missing-file`` | ``invalid-geometry``).
    reason: str
    #: Human-readable detail for the reason.
    detail: str
    #: Global start position the segment covered.
    start: int
    #: Number of values the segment covered.
    length: int


@dataclass
class RecoveryReport:
    """What a durable-store recovery scan found and did."""

    #: Intact WAL value records (appends and rotation compactions)
    #: replayed into series buffers/segments.
    replayed_records: int = 0
    #: Values carried by the replayed value records.
    replayed_values: int = 0
    #: Metadata records merged into series metadata, in sequence order.
    replayed_metadata_records: int = 0
    #: Reset records replayed (each replaced one series' whole content).
    replayed_reset_records: int = 0
    #: Segments sealed (re-sealed) while replaying the WAL.
    resealed_segments: int = 0
    #: Bytes of corrupt/torn WAL tail discarded across all shards.
    truncated_wal_bytes: int = 0
    #: WAL files whose tail had to be truncated.
    truncated_wal_files: int = 0
    #: Reasons the WAL scans stopped early (one per truncated file).
    truncation_reasons: list[str] = field(default_factory=list)
    #: Referenced segment files that passed checksum verification.
    segments_verified: int = 0
    #: Corrupt segments moved to ``quarantine/`` by this recovery.
    quarantined: list[QuarantinedSegment] = field(default_factory=list)
    #: Quarantine holes carried over from earlier recoveries (per manifest).
    prior_holes: int = 0
    #: True when the store was read from a version-1 (monolithic) manifest.
    migrated_from_v1: bool = False
    #: Version-2 JSON segment files re-published as ``.seg`` by this open.
    migrated_segments: int = 0
    #: True when ``manifest.json`` was corrupt and ``manifest.json.prev``
    #: was used instead (the corrupt manifest is quarantined).
    used_prev_manifest: bool = False
    #: WAL records naming a series the manifest does not know (only
    #: possible after a ``manifest.json.prev`` fallback); counted, skipped.
    orphan_records: int = 0
    #: WAL generations newer than the manifest's that were replayed —
    #: acknowledged appends that landed after the recovered manifest was
    #: published (``manifest.json.prev`` fallback, or a crash between a
    #: WAL rotation and its manifest swap).
    extra_wal_generations: int = 0
    #: Leftover ``*.tmp`` files from interrupted atomic writes, removed.
    removed_tmp_files: int = 0
    #: Stale (unreferenced) WAL generations removed.
    removed_stale_wals: int = 0

    @property
    def corruption_found(self) -> bool:
        """True when this scan hit any corruption (quarantine/truncation)."""
        return bool(self.quarantined or self.truncated_wal_bytes
                    or self.used_prev_manifest)

    @property
    def clean(self) -> bool:
        """True when the scan found nothing to repair or quarantine."""
        return not self.corruption_found

    def summary(self) -> str:
        """One-paragraph human summary (the CLI's fsck output)."""
        lines = [
            f"replayed {self.replayed_records} WAL value records "
            f"({self.replayed_values} values, "
            f"{self.resealed_segments} segments re-sealed), "
            f"{self.replayed_metadata_records} metadata and "
            f"{self.replayed_reset_records} reset records",
            f"verified {self.segments_verified} segment checksums",
        ]
        if self.truncated_wal_bytes:
            lines.append(
                f"truncated {self.truncated_wal_bytes} corrupt WAL bytes "
                f"in {self.truncated_wal_files} file(s)")
        if self.quarantined:
            lines.append(f"quarantined {len(self.quarantined)} segment(s):")
            for entry in self.quarantined:
                lines.append(f"  {entry.series}: {entry.file} "
                             f"[{entry.reason}] {entry.detail}")
        if self.prior_holes:
            lines.append(f"{self.prior_holes} quarantine hole(s) recorded "
                         "by earlier recoveries")
        if self.used_prev_manifest:
            lines.append("manifest.json was corrupt; "
                         "recovered from manifest.json.prev")
        if self.orphan_records:
            lines.append(f"skipped {self.orphan_records} WAL record(s) for "
                         "series unknown to the recovered manifest")
        if self.extra_wal_generations:
            lines.append(f"replayed {self.extra_wal_generations} WAL "
                         "generation(s) newer than the recovered manifest")
        if self.migrated_from_v1:
            lines.append("migrated from a version-1 manifest")
        if self.migrated_segments:
            lines.append(f"re-published {self.migrated_segments} version-2 "
                         "JSON segment(s) as .seg")
        lines.append("store is clean" if self.clean
                     else "corruption was found and contained")
        return "\n".join(lines)


def recover(directory, **options):
    """Open ``directory`` with a full recovery scan.

    Returns ``(store, report)``.  Equivalent to
    ``DurableStore.open(directory, **options)`` followed by reading
    ``store.recovery`` — provided as a function for symmetry with
    :func:`fsck`.
    """
    from .durable import DurableStore

    store = DurableStore.open(directory, **options)
    return store, store.recovery


def fsck(directory, **options) -> RecoveryReport:
    """Run a recovery scan on ``directory`` and return its report.

    The scan repairs what it can (quarantines corrupt segments, truncates
    torn WAL tails, checkpoints the repaired state), so a second fsck of
    the same directory reports clean unless new corruption appeared.
    """
    store, report = recover(directory, **options)
    store.close()
    return report
