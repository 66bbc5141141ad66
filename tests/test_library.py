"""The README's "Library use" snippet runs, the package exports only what it
documents, and the README's rule-column table is ``rules.COLUMNS``."""

from __future__ import annotations

import itertools
import re
import shutil
from pathlib import Path

from conftest import DATA_DIR

import zeeklabel
from zeeklabel.rules import COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"
ERRORS = {"ConfigError", "LogFormatError", "UsageError", "ZeekLabelError"}


def _library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs_and_matches_all(tmp_path, monkeypatch, capsys):
    snippet = _library_snippet()
    imported = re.search(r"^from zeeklabel import (.+)$", snippet, re.M).group(1)
    names = {name.strip() for name in imported.split(",")}
    assert sorted(zeeklabel.__all__) == sorted(names | ERRORS)

    shutil.copytree(DATA_DIR / "proplogs", tmp_path / "zeek-logs")
    shutil.copy(DATA_DIR / "proplogs" / "labeling.conf", tmp_path / "labeling.conf")
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, str(README), "exec"), {})

    out = capsys.readouterr().out
    assert "http.log uid" in out
    assert "x509.log x509" in out
    labeled = sorted(p.name for p in (tmp_path / "zeek-logs").glob("*.labeled.log"))
    assert labeled == [f"{name}.labeled.log" for name in ("dns", "files", "http", "ssl", "x509")]


def test_readme_rule_column_table_is_rules_columns():
    section = README.read_text(encoding="utf-8").split("### Rule columns and their conn.log sources", 1)[1]
    table = list(itertools.takewhile(lambda line: line.startswith("|"), section.strip().splitlines()))
    documented = []
    for line in table[2:]:  # below the heading and the --- row
        columns, sources = (cell.replace("`", "").strip().split(" / ") for cell in line.split("|")[1:3])
        documented += [(column, tuple(source.split(" + "))) for column, source in zip(columns, sources, strict=True)]
    assert documented == [(name, column.fields) for name, column in COLUMNS.items()]
