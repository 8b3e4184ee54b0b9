"""Every parameter of a function in capitula is read by its body.

No linter ships with the toolchain, so this walks the syntax trees of the
package's modules: a parameter (other than self and cls) that no name in
the function's body, nested functions included, loads is reported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "capitula"


def _parameters(fn):
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    extra = [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in named + extra if a.arg not in ("self", "cls")]


def unused_parameters(source, filename="<source>"):
    """(function name, parameter) for each parameter its body never reads."""
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        found += [(name, a) for a in _parameters(fn) if a not in read]
    return found


def test_the_check_sees_an_unused_parameter():
    source = ("def f(a, b, *args, c, **kw):\n"
              "    def g(self):\n"
              "        return a + c\n"
              "    return g, kw\n")
    assert unused_parameters(source) == [("f", "b"), ("f", "args")]


def test_no_unused_parameters():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}: {name}({param})"
             for path in paths
             for name, param in unused_parameters(
                 path.read_text(encoding="utf-8"), str(path))]
    assert found == []
