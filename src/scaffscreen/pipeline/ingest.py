"""Assay CSV ingestion with quarantine of unusable rows.

Input files carry the exact header ``id,smiles,label``. Rows whose SMILES
fail to parse, or whose label is not 0/1, are diverted to a quarantine
sidecar CSV with the failure reason instead of aborting the run.
Duplicate ids are a hard error. An active fraction above one percent is
unusual for screening data and triggers a warning, nothing more.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass
from pathlib import Path

from ..chem.graph import MolGraph
from ..chem.smiles import ParseError, SmilesFeatureWarning, parse_smiles

__all__ = ["Assay", "AssayRecord", "HeaderError", "QuarantinedRow", "ingest"]

logger = logging.getLogger(__name__)

EXPECTED_HEADER = ["id", "smiles", "label"]
ACTIVE_FRACTION_WARN = 0.01


class HeaderError(ValueError):
    """Malformed header or duplicate record id."""


@dataclass(frozen=True)
class AssayRecord:
    record_id: str
    smiles: str
    label: int
    mol: MolGraph


@dataclass(frozen=True)
class QuarantinedRow:
    record_id: str
    smiles: str
    reason: str


@dataclass(frozen=True)
class Assay:
    name: str
    records: tuple[AssayRecord, ...]
    quarantined: tuple[QuarantinedRow, ...]

    @property
    def size(self) -> int:
        return len(self.records)

    @property
    def n_actives(self) -> int:
        return sum(r.label for r in self.records)

    @property
    def active_fraction(self) -> float:
        return self.n_actives / self.size if self.size else 0.0


def ingest(path: str | Path, quarantine_path: str | Path | None = None) -> Assay:
    """Read an assay CSV; optionally write the quarantine sidecar."""
    path = Path(path)
    records: list[AssayRecord] = []
    quarantined: list[QuarantinedRow] = []
    seen_ids: set[str] = set()

    # Features the reader drops (stereo, isotopes) are expected in assay files.
    with open(path, "r", encoding="utf-8", newline="") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", SmilesFeatureWarning)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise HeaderError(f"{path}: empty file") from None
        if [h.strip() for h in header] != EXPECTED_HEADER:
            raise HeaderError(
                f"{path}: expected header {','.join(EXPECTED_HEADER)!r}, got {','.join(header)!r}"
            )
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise HeaderError(f"{path}:{row_number}: expected 3 columns, got {len(row)}")
            record_id, smiles, label_text = (cell.strip() for cell in row)
            if record_id in seen_ids:
                raise HeaderError(f"{path}:{row_number}: duplicate id {record_id!r}")
            seen_ids.add(record_id)
            if label_text not in ("0", "1"):
                quarantined.append(
                    QuarantinedRow(record_id, smiles, f"label must be 0 or 1, got {label_text!r}")
                )
                continue
            try:
                mol = parse_smiles(smiles)
            except ParseError as exc:
                quarantined.append(QuarantinedRow(record_id, smiles, str(exc)))
                continue
            records.append(AssayRecord(record_id, smiles, int(label_text), mol))

    if not records:
        raise HeaderError(f"{path}: no usable rows")

    assay = Assay(
        name=path.stem, records=tuple(records), quarantined=tuple(quarantined)
    )
    if quarantined:
        logger.info("%s: quarantined %d of %d rows", path, len(quarantined), len(quarantined) + len(records))
    if assay.active_fraction > ACTIVE_FRACTION_WARN:
        warnings.warn(
            f"{path}: active fraction {assay.active_fraction:.3f} exceeds "
            f"{ACTIVE_FRACTION_WARN:.0%}; screening data is usually sparser",
            stacklevel=2,
        )
    if quarantine_path is not None:
        write_quarantine_csv(quarantine_path, assay.quarantined)
    return assay


def write_quarantine_csv(path: str | Path, rows: tuple[QuarantinedRow, ...]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "smiles", "reason"])
        for row in rows:
            writer.writerow([row.record_id, row.smiles, row.reason])
