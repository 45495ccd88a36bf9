"""The public surface stays lean: every name `operadics` exports is read by
the library's own code or by the benchmark, or is on a short allowlist that
says why it is public anyway.  A second implementation that nothing calls
shows up here as an unused export.
"""

import ast
import re
import types
from pathlib import Path

import operadics

ROOT = Path(__file__).resolve().parents[1]

# Exported names that neither the library nor the benchmark needs to read,
# each with the reason it is public.
ALLOWED_UNUSED = {
    "bundled_path": "the documented entry point for the files shipped in operadics/data",
}


def _names_read(path: Path) -> set[str]:
    """Names and attributes a module reads, outside the top-level statement
    that defines them: a function's recursion or a constant's own assignment
    is no use."""
    out = set()
    for stmt in ast.parse(path.read_text()).body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        own = {getattr(stmt, "name", None)}
        own |= {getattr(target, "id", None) for target in targets}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in own:
                out.add(name)
    return out


def test_every_export_is_read_or_allowed():
    library = set()
    for path in (ROOT / "src" / "operadics").glob("*.py"):
        if path.name != "__init__.py":
            library |= _names_read(path)
    # the benchmark's tracer also finds functions by their names as strings
    bench = "\n".join(path.read_text() for path in (ROOT / "perfbench").glob("*.py"))
    unused = sorted(
        name
        for name in operadics.__all__
        if not isinstance(getattr(operadics, name), types.ModuleType)
        and name not in library
        and not re.search(rf"\b{re.escape(name)}\b", bench)
        and name not in ALLOWED_UNUSED
    )
    assert unused == []
    assert set(ALLOWED_UNUSED) <= set(operadics.__all__)

