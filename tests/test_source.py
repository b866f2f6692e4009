"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "findiag"


def test_package_has_no_assert_statements():
    """Invariants raise typed errors: an `assert` vanishes under `python -O`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_starts_no_process_pools():
    """Every computation runs in the calling process; `--workers` is ignored."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}"
                for module in modules
                if module.split(".")[0] in ("concurrent", "multiprocessing")
            ]
    assert found == []


def test_only_decide_and_cli_import_the_statistics_table():
    """The shared statistics table stays private to decide and the CLI that
    opens its blocks; every other module reads what it needs directly."""
    private = {"_sharing_stats", "_stats_table", "_StatsTable"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("decide.py", "cli.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and private & {alias.name for alias in node.names}
    ]
    assert found == []
