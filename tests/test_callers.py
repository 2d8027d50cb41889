"""The library holds what runs: every public module-level function, class
and method in src/rsor/ is referenced from code other than its own
definition, in src/, demos/ or benchmarks/.  A name only tests use
belongs in a tests helper; a docstring mention is not a reference.  No
module in src/rsor/ or demos/ imports a name it never uses, save the
package's re-exports in __init__.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names with no caller yet, each with the reason it stays.
ALLOWED = {
    "packet.form_reply": "the paper's one-shot FormReply: the tests' reference and a tracer target",
    "kem.kem_game_run": "the KEM game, which ROADMAP items 1 and 8 give a caller",
    "kem.WhiteBoxKemAdversary": "the KEM game's positive control (ROADMAP items 1 and 8)",
    "kem.KemGameOracles.decap": "the KEM game's decapsulation oracle (ROADMAP items 1 and 8)",
    "kem.KemGameOracles.h_b": "the KEM game's h_b oracle (ROADMAP items 1 and 8)",
    "ideal.RsorIdeal.bypass_reply": "the ideal reply bypass, which ROADMAP item 3's simulator calls",
    "packet.build_padding": "the paper's Phi, whose depth check a python -O test pins",
}


def _public_definitions(path):
    """(qualified name, node) for each public function, class and method."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield "%s.%s" % (module, node.name), node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield "%s.%s.%s" % (module, node.name, sub.name), sub


def _references(path):
    """(name, line) of every name and attribute in path's code."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_library_name_has_a_caller():
    library = sorted((ROOT / "src" / "rsor").glob("*.py"))
    scanned = library + sorted((ROOT / "demos").glob("*.py")) + sorted(
        (ROOT / "benchmarks").glob("*.py"))
    references = {path: list(_references(path)) for path in scanned}
    uncalled = [
        qualified
        for path in library
        for qualified, node in _public_definitions(path)
        if not any(name == node.name
                   and (where != path or not node.lineno <= line <= node.end_lineno)
                   for where, refs in references.items() for name, line in refs)
    ]
    # Exactly the allowed names: an entry that gains a caller leaves the list.
    assert sorted(uncalled) == sorted(ALLOWED)


def _unused_imports(path):
    """(name, line) of each name path imports but never reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield name, node.lineno


def test_no_module_imports_a_name_it_never_uses():
    scanned = [path for path in sorted((ROOT / "src" / "rsor").glob("*.py"))
               if path.name != "__init__.py"] + sorted((ROOT / "demos").glob("*.py"))
    unused = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
              for path in scanned for name, line in _unused_imports(path)]
    assert unused == []
