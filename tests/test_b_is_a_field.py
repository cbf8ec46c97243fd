"""No public function of the package takes ``None`` for the magnetic field b.

"No magnetic field" is a zero b, which every function that reads b handles
by one rule: a zero field is never sampled and adds 0.0.  A parameter ``b``
that defaults to ``None`` or whose annotation admits ``None`` would bring a
second spelling back, and with it a branch in every caller.  The stepper's
private helpers, which take b's coefficient array and keep ``None`` as their
measured no-b path, are not public and stay out of the guard.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torusmhd"


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _admits_none(annotation) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    return any(
        (isinstance(n, ast.Constant) and n.value is None)
        or (isinstance(n, ast.Name) and n.id == "Optional")
        or (isinstance(n, ast.Attribute) and n.attr == "Optional")
        for n in ast.walk(annotation)
    )


def _defaults(args: ast.arguments) -> dict[str, ast.expr]:
    positional = args.posonlyargs + args.args
    paired = zip(positional[len(positional) - len(args.defaults):], args.defaults)
    keyword = zip(args.kwonlyargs, args.kw_defaults)
    return {a.arg: d for a, d in [*paired, *keyword] if d is not None}


def optional_b(source: str) -> list[str]:
    """Qualified names of the public functions in ``source`` whose parameter
    ``b`` defaults to ``None`` or is annotated to admit ``None``."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = path + [child.name]
                if not isinstance(child, ast.ClassDef) and all(map(_public, inner)):
                    args = child.args
                    params = {a.arg: a for a in args.posonlyargs + args.args + args.kwonlyargs}
                    default = _defaults(args).get("b")
                    if "b" in params and (
                        _admits_none(params["b"].annotation)
                        or (isinstance(default, ast.Constant) and default.value is None)
                    ):
                        found.append(".".join(inner))
                visit(child, inner)

    visit(ast.parse(source), [])
    return found


def test_no_public_function_takes_none_for_b():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in optional_b(path.read_text())
    ]
    assert found == [], "public functions taking None for b"


def test_the_guard_sees_defaults_and_annotations():
    source = (
        "def energy(u, b=None): ...\n"
        "def wxyz(u, b: SpectralField | None, plane=(0, 1)): ...\n"
        "def rhs(u, *, b: 'Optional[SpectralField]' = zero): ...\n"
        "class Solver:\n"
        "    def solve(self, u, b: Union[SpectralField, None]): ...\n"
        "def fine(u, b: SpectralField, pi: SpectralField | None = None): ...\n"
        "def _private(u, b: np.ndarray | None): ...\n"
    )
    assert optional_b(source) == ["energy", "wxyz", "rhs", "Solver.solve"]
