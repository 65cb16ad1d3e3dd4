"""Every CSV file is read by ingest's one reader: no other module of the
package imports ``csv``, and no header of a table names two of its fields,
where the first field would take the column and the second read "" or fail
without a word about the header."""

import ast
from pathlib import Path

import fareaudit
from fareaudit.ingest import OPTIONAL_FIELDS, RPI_FIELDS, TABLES

SRC = Path(fareaudit.__file__).parent


def test_only_ingest_imports_csv():
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "csv" for m in modules):
                importers.add(path.name)
    assert importers == {"ingest.py"}


def test_no_header_names_two_fields():
    tables = [*TABLES.values(), RPI_FIELDS]
    for fields in tables:
        headers = [name for names in fields for name in names]
        assert len(headers) == len(set(headers)), fields
    # one optional set serves every table because no two tables share a field
    own = [names[0] for fields in tables for names in fields]
    assert len(own) == len(set(own))
    assert OPTIONAL_FIELDS <= set(own)
