"""The text format of every run file.

CSV files are UTF-8 with one header row and ``\\n`` row ends; a reader
names the header it expects and rejects any other, an empty file
included, and any row whose width is not the header's. JSON files are
UTF-8 with a two-space indent, sorted keys and a final newline. Report
figures are rounded to ``DECIMALS`` places; scores and training history
keep full float precision.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, Sequence

__all__ = ["DECIMALS", "read_csv", "read_json", "write_csv", "write_json"]

DECIMALS = 6


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header: Sequence[str], kind: str) -> list[list[str]]:
    """The rows under ``header``; a ``ValueError`` names a ``kind`` file headed
    otherwise, or the file and line of a row whose width is not the header's."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != list(header):
            raise ValueError(f"{path}: unexpected {kind} header {found!r}")
        rows = []
        for row in reader:
            if len(row) != len(found):
                raise ValueError(
                    f"{path}:{reader.line_num}: {kind} row has {len(row)} fields,"
                    f" its header {len(found)}"
                )
            rows.append(row)
        return rows


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
