"""Guard: no function in src/namefix reaches itself through calls.

Tree walks go through `term.descend` and `term.fold`, which keep their own
stack, or are explicit-stack loops of their own, as the printers
`simpl.pretty_simpl` and `lam.pretty_lambda` are; so are the expression
parsers `simpl._Parser.parse_exp` and `lam._Parser.parse_exp`. A recursive
walk would overflow the Python stack on deep programs (a 5,000-state
machine compiles to a 5,000-deep if-chain), and a recursive parser on
deeply parenthesised input. Only the evaluator recurses.

A function is recursive when it calls itself, or calls functions of its
own module that call it back: by bare name, resolved as Python's scoping
does, or as a `self.`/`cls.` method of its class. A call inside a nested
function counts for the functions around it too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "namefix"

ALLOWED = {
    # The evaluator recurses on operands and calls only (if/let/letfun loop
    # in place); eval_simpl reports running out of stack as OutOfFuel.
    "simpl.eval_simpl.ev": "evaluation of operands and of called functions",
    "simpl.eval_simpl.apply": "a call evaluates the function's body",
}


def module_calls(tree: ast.Module, module: str) -> dict[str, set[str]]:
    """Each function of one module, by qualified name, mapped to the
    functions of that module it calls."""
    defined: set[str] = set()
    # (the enclosing functions, innermost last; the innermost class; call)
    sites: list[tuple[list[str], str | None, ast.Call]] = []

    def visit(node: ast.AST, scope: str, functions: list[str], cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = f"{scope}.{child.name}"
                defined.add(qualified)
                visit(child, qualified, functions + [qualified], cls)
            elif isinstance(child, ast.ClassDef):
                qualified = f"{scope}.{child.name}"
                visit(child, qualified, functions, qualified)
            else:
                if isinstance(child, ast.Call) and functions:
                    sites.append((functions, cls, child))
                visit(child, scope, functions, cls)

    visit(tree, module, [], None)
    calls: dict[str, set[str]] = {f: set() for f in defined}
    for functions, cls, call in sites:
        fn = call.func
        if isinstance(fn, ast.Name):
            # Function scopes, innermost first, then the module; a class
            # body is no scope for the names of its methods.
            candidates = [f"{f}.{fn.id}" for f in reversed(functions)] + [f"{module}.{fn.id}"]
        elif isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            is_method = fn.value.id in ("self", "cls") and cls is not None
            candidates = [f"{cls}.{fn.attr}"] if is_method else []
        else:
            candidates = []
        callee = next((c for c in candidates if c in defined), None)
        if callee is not None:
            for f in functions:
                calls[f].add(callee)
    return calls


def recursive_functions() -> set[str]:
    """The functions of src/namefix that reach themselves through calls."""
    found: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        calls = module_calls(ast.parse(path.read_text(), filename=str(path)), path.stem)
        for f in calls:
            seen: set[str] = set()
            todo = list(calls[f])
            while todo:
                g = todo.pop()
                if g not in seen:
                    seen.add(g)
                    todo.extend(calls[g])
            if f in seen:
                found.add(f)
    return found


def test_no_function_calls_itself():
    unexpected = recursive_functions() - ALLOWED.keys()
    assert not unexpected, f"recursive functions; walk with term.descend or term.fold: {sorted(unexpected)}"


def test_allow_list_holds_only_recursive_functions():
    assert ALLOWED.keys() <= recursive_functions()
