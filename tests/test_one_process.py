"""Every sweep runs in the calling process.

The package has no process pool, so nothing in it needs to serialize
work across processes or read such payloads back.  This audit walks the
syntax tree of every module under ``src/repro`` and fails on any import
of ``pickle``, ``multiprocessing`` or ``concurrent.futures`` (or one of
their submodules), at module level or inside a function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

FORBIDDEN = ("pickle", "multiprocessing", "concurrent.futures")


def _forbidden(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in FORBIDDEN)


def _imported_modules(tree: ast.AST):
    """``(lineno, module)`` for every absolute import in *tree*;
    ``from concurrent import futures`` yields ``concurrent.futures``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_audit_sees_every_spelling():
    source = (
        "import pickle\n"
        "import multiprocessing.pool as mp\n"
        "from concurrent import futures\n"
        "def f():\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "import concurrency_tools\n"
    )
    found = sorted(
        {lineno for lineno, module in _imported_modules(ast.parse(source)) if _forbidden(module)}
    )
    assert found == [1, 2, 3, 5]


def test_no_module_imports_pickle_or_a_process_pool():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = path.relative_to(SRC_ROOT).as_posix()
        offenders.extend(
            f"{rel}:{lineno}: {module}"
            for lineno, module in _imported_modules(tree)
            if _forbidden(module)
        )
    assert not offenders, "forbidden imports:\n" + "\n".join(offenders)
