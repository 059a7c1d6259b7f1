"""The run-file codec, and the rule that run files go through it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import scaffscreen
from scaffscreen.artifacts import read_csv, read_json, write_csv, write_json

# Modules that may import csv or json besides the codec, each for a text
# that is not a run file in the codec's format.
OWN_FORMATS = {
    "artifacts.py": "the codec itself",
    "pipeline/ingest.py": "reads the input assay, with its own header and row checks",
    "diffusion/denoisers.py": "the external denoiser's line-delimited JSON wire protocol",
    "pipeline/cli.py": "prints summaries to standard output",
    "selftrain.py": "writes model.json compact and in insertion order",
}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_the_codec_and_the_named_formats_import_csv_or_json():
    src = Path(scaffscreen.__file__).parent
    importers = {
        path.relative_to(src).as_posix()
        for path in sorted(src.rglob("*.py"))
        if _imported_roots(path) & {"csv", "json"}
    }
    assert importers == set(OWN_FORMATS), (
        "read and write run files through scaffscreen.artifacts; "
        f"unexpected importers {sorted(importers - set(OWN_FORMATS))}, "
        f"stale exceptions {sorted(set(OWN_FORMATS) - importers)}"
    )


def test_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["id", "text"], [(1, "a,b"), ("é", ""), ("q", 'say "hi"')])
    assert path.read_bytes() == 'id,text\n1,"a,b"\né,\nq,"say ""hi"""\n'.encode("utf-8")
    assert read_csv(path, ["id", "text"], "test") == [
        ["1", "a,b"],
        ["é", ""],
        ["q", 'say "hi"'],
    ]


def test_csv_with_only_a_header_reads_no_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [])
    assert path.read_bytes() == b"a\n"
    assert read_csv(path, ["a"], "test") == []


@pytest.mark.parametrize(
    "text, found",
    [("b,a\n1,2\n", "['b', 'a']"), ("a\n", "['a']"), ("", "None")],
    ids=["other", "short", "empty"],
)
def test_read_csv_rejects_another_header(tmp_path, text, found):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_csv(path, ["a", "b"], "test")
    assert str(excinfo.value) == f"{path}: unexpected test header {found}"


@pytest.mark.parametrize(
    "text, line, width",
    [("a,b\n1,2\n3\n", 3, 1), ("a,b\n1,2,3\n", 2, 3), ("a,b\n\n1,2\n", 2, 0),
     ('a,b\n"x\ny",1\n1\n', 4, 1)],
    ids=["short", "long", "blank", "after-a-quoted-newline"],
)
def test_read_csv_rejects_a_row_of_another_width(tmp_path, text, line, width):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_csv(path, ["a", "b"], "test")
    assert str(excinfo.value) == f"{path}:{line}: test row has {width} fields, its header 2"


def test_json_bytes(tmp_path):
    path = tmp_path / "t.json"
    payload = {"b": [1, 0.5], "a": {"y": None, "x": "é"}}
    write_json(path, payload)
    expected = (
        '{\n  "a": {\n    "x": "\\u00e9",\n    "y": null\n  },\n'
        '  "b": [\n    1,\n    0.5\n  ]\n}\n'
    )
    assert path.read_bytes() == expected.encode("ascii")
    assert read_json(path) == payload
