import argparse
import ast
import re
from pathlib import Path

import haarq
from haarq import haar, quantizer, report_io, spectral
from haarq.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title: str) -> str:
    """The README's `## title` section, up to the next `## ` heading."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


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
    example = re.match(r"\s*```python\n(.*?)^```", readme_section("Library"), re.S | re.M)
    assert example is not None
    exec(compile(example[1], f"{README}:Library", "exec"), {})


def test_readme_documents_every_public_name():
    # A public name that the Library section does not mention is either
    # undocumented or has no reason to be public.
    library = readme_section("Library")
    assert [name for name in haarq.__all__ if not re.search(rf"\b{name}\b", library)] == []


def test_readme_documents_every_long_option():
    # An option that the CLI section does not mention is undocumented.
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {option for parser in commands.values() for action in parser._actions
               for option in action.option_strings if option.startswith("--")}
    options.discard("--help")
    cli = readme_section("CLI")
    assert {"--input", "--quantized", "--output", "--fourier"} <= options
    assert sorted(o for o in options if not re.search(rf"{o}(?![\w-])", cli)) == []


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


# The mode argument of each call that opens a file, and the mode when it is
# not given: open's is text, the temporary files' binary.
OPENERS = {"open": (1, "r"), "tempfile.TemporaryFile": (0, "w+b"),
           "tempfile.NamedTemporaryFile": (0, "w+b"),
           "tempfile.SpooledTemporaryFile": (1, "w+b")}


def called_name(call) -> str:
    """A call's function as `name` or `module.name`, else ''."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return ""


def mode_texts(node) -> list[str]:
    """The texts a mode expression may take: a constant's, or each branch
    of a conditional's; '' for any other expression, which is not known."""
    if isinstance(node, ast.IfExp):
        return mode_texts(node.body) + mode_texts(node.orelse)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return [""]


def test_every_output_is_bytes():
    # A text stream's encoding and newline would make an output's bytes
    # depend on the streams Python was given: every file is opened binary,
    # stdout is written through its buffer, and print goes to stderr only.
    found = []
    for path in Path(haarq.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            where = f"{path.stem}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and called_name(node) in OPENERS:
                at, default = OPENERS[called_name(node)]
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            node.args[at] if len(node.args) > at else ast.Constant(default))
                if not all("b" in text for text in mode_texts(mode)):
                    found.append(f"{where}: {called_name(node)} in text mode")
            elif isinstance(node, ast.Call) and called_name(node) == "print":
                file = next((k.value for k in node.keywords if k.arg == "file"), None)
                if not (file is not None and ast.unparse(file) == "sys.stderr"):
                    found.append(f"{where}: print to stdout")
            elif isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout":
                parent = parents[node]
                if not (isinstance(parent, ast.Attribute) and parent.attr == "buffer"):
                    found.append(f"{where}: sys.stdout without .buffer")
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                found += [f"{where}: sys.stdout imported" for a in node.names
                          if a.name == "stdout"]
    assert found == []
