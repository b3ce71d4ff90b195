"""Guard: no code in src/namefix assigns to a term node's fields.

`term.Const`, `Name` and `Compound` are slotted classes with plain
constructors, so nothing stops an assignment like `n.text = "y"` at run
time. Nodes are immutable by convention instead: subterms are shared
between a term and its renamings (`fold`, `LabelIndex.rename`), and nodes
are hashed. This test parses `src/namefix/*.py` with `ast` and fails on any
assignment, augmented assignment, deletion or `setattr` of an attribute
named like a node field. The package writes no attribute of those names on
any other object either, so the check needs no types.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "namefix"
FIELDS = {"text", "label", "children", "value"}


def targets(node: ast.AST) -> list[ast.AST]:
    """The expressions node stores to or deletes, unpacked from tuples."""
    if isinstance(node, ast.Assign):
        found = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor, ast.comprehension)):
        found = [node.target]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        found = [item.optional_vars for item in node.items if item.optional_vars is not None]
    elif isinstance(node, ast.Delete):
        found = list(node.targets)
    else:
        return []
    out = []
    while found:
        t = found.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            found.extend(t.elts)
        elif isinstance(t, ast.Starred):
            found.append(t.value)
        else:
            out.append(t)
    return out


def sets_field(call: ast.Call) -> bool:
    """Whether call is a setattr or delattr of a node field by name."""
    fn = call.func
    name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
    return name in ("setattr", "__setattr__", "delattr", "__delattr__") and any(
        isinstance(a, ast.Constant) and a.value in FIELDS for a in call.args
    )


def field_writes(src: Path = SRC) -> list[tuple[str, int]]:
    """Each write of a node field in the modules of src, as (file, line)."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if any(isinstance(t, ast.Attribute) and t.attr in FIELDS for t in targets(node)) or (
                isinstance(node, ast.Call) and sets_field(node)
            ):
                found.append((path.name, node.lineno))
    return sorted(found)


def test_no_code_writes_a_node_field():
    assert not field_writes(), "term nodes are immutable; build a new node instead"


def test_guard_sees_each_kind_of_write(tmp_path):
    writes = [
        "n.text = 'y'",
        "a, (b, c.label) = t",
        "c.children += (x,)",
        "k.value: int = 1",
        "del n.label",
        "for n.text in xs: pass",
        "object.__setattr__(n, 'text', 'y')",
        "setattr(k, 'value', 2)",
    ]
    (tmp_path / "m.py").write_text("\n".join(writes) + "\nn.spelling = 'y'\nprint(n.text)\n")
    assert field_writes(tmp_path) == [("m.py", i) for i in range(1, len(writes) + 1)]
