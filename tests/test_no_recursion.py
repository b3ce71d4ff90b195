"""Guard: no function in src/namefix calls itself by name.

Tree walks go through `term.descend` and `term.fold`, which keep their own
stack; a recursive walk would overflow the Python stack on deep programs
(a 5,000-state machine compiles to a 5,000-deep if-chain). Mutual recursion
is not detected.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "namefix"

ALLOWED = {
    # Parser rules: Scanner.parse turns nesting too deep for them into a
    # located ParseError.
    "simpl._Parser.parse_exp": "recursive descent over nested expressions",
    "simpl._Parser.parse_unary": "recursive descent over stacked `!`",
    "lam._Parser.parse_exp": "recursive descent over lambda bodies",
    # The evaluator recurses on operands and calls only (if/let/letfun loop
    # in place); eval_simpl reports running out of stack as OutOfFuel.
    "simpl.eval_simpl.ev": "evaluation of operands and of called functions",
}


def self_calls() -> set[str]:
    found: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualified = f"{scope}.{child.name}"
                    for call in ast.walk(child):
                        if not isinstance(call, ast.Call):
                            continue
                        fn = call.func
                        if isinstance(fn, ast.Name) and fn.id == child.name:
                            found.add(qualified)
                        elif (
                            isinstance(fn, ast.Attribute)
                            and fn.attr == child.name
                            and isinstance(fn.value, ast.Name)
                            and fn.value.id in ("self", "cls")
                        ):
                            found.add(qualified)
                    visit(child, qualified)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{scope}.{child.name}")
                else:
                    visit(child, scope)

        visit(tree, path.stem)
    return found


def test_no_function_calls_itself():
    unexpected = self_calls() - ALLOWED.keys()
    assert not unexpected, f"self-recursive functions; walk with term.descend or term.fold: {sorted(unexpected)}"


def test_allow_list_holds_only_recursive_functions():
    assert ALLOWED.keys() <= self_calls()
