import ast
import re
from pathlib import Path

import haarq
from haarq import haar, quantizer, report_io, spectral

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    """The README's `## Library` section, up to the next `## ` heading."""
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_public_name_resolves():
    for name in haarq.__all__:
        assert hasattr(haarq, name), name


def test_public_names_are_the_submodules():
    # A name that a submodule no longer exports must leave the package too.
    names = set()
    for module in (haar, quantizer, report_io, spectral):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        names.update(module.__all__)
    assert len(haarq.__all__) == len(set(haarq.__all__))
    assert set(haarq.__all__) == names


def test_readme_library_example_runs():
    # The documented API is the one the package exports.
    example = re.match(r"\s*```python\n(.*?)^```", library_section(), re.S | re.M)
    assert example is not None
    exec(compile(example[1], f"{README}:Library", "exec"), {})


def test_readme_documents_every_public_name():
    # A public name that the Library section does not mention is either
    # undocumented or has no reason to be public.
    library = library_section()
    assert [name for name in haarq.__all__ if not re.search(rf"\b{name}\b", library)] == []


def private_names(node) -> list[str]:
    """The private names that a module-level statement defines: a
    function's, or each name an assignment binds, tuple targets included."""
    if isinstance(node, ast.FunctionDef):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_helper_is_used():
    # A helper or constant that a change replaced goes with it.
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(haarq.__file__).parent.glob("*.py")]
    helpers = {name for tree in trees for node in tree.body for name in private_names(node)}
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert sorted(helpers - used) == []


def test_every_import_is_read():
    # A name imported only so that another module can take it from here
    # is taken from the module that defines it instead.  Star imports, and
    # the names that a module's __all__ lists, re-export and are exempt.
    unread = []
    for path in Path(haarq.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for a in node.names if a.name != "*"}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                    for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)}
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read - exported)]
    assert unread == []
