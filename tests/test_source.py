"""Conventions of the package source itself."""

import ast
import inspect
from pathlib import Path

import involsvd

MAX_LINE = 99
PACKAGE = Path(involsvd.__file__).parent


def test_no_line_longer_than_limit():
    # line counts (wc -l) measure the size of the package; a cap on line
    # length keeps denser expressions from passing for less code
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_conjugation_decided_only_by_the_class():
    # A*, V* and Q* are read through StructureClass.star and star_h; outside structures.py
    # only the CLI reads is_con, to report a phase or a sign
    readers = sorted(path.name for path in PACKAGE.glob("*.py") if "is_con" in path.read_text())
    assert readers == ["cli.py", "structures.py"]


def test_gate_refuses_in_one_place():
    # structures._admit owns the gate's refusal; outside structures.py only the
    # CLI calls class_gate, to report a residual or a closure check, never to raise
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "structures.py":
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            nodes = list(ast.walk(func))
            if any(isinstance(node, ast.Name) and node.id == "class_gate" for node in nodes):
                raises = any(isinstance(node, ast.Raise) for node in nodes)
                callers.append((path.name, "raises" if raises else "reports"))
    assert callers and set(callers) == {("cli.py", "reports")}


def test_cluster_resolved_in_one_place():
    # structured_svd._resolve owns the sigma = 1 cluster of all four classes: no
    # other function of the package calls the kernels that factor its matrix M
    kernels = {"hermitian_eig", "takagi_symmetric_unitary", "skew_pair_unitary"}
    callers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in kernels:
                    callers.setdefault(node.func.id, set()).add((path.name, func.name))
    assert callers == {name: {("structured_svd.py", "_resolve")} for name in kernels}


def test_star_conjugate_transpose_has_one_spelling():
    # (X*)^H is StructureClass.star_h; no .conj() or .T is applied to a star() call
    spelled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("conj", "T")
                    and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "attr", None) == "star"):
                spelled.append(f"{path.name}:{node.lineno}")
    assert spelled == []


def test_cluster_kernels_take_m_as_built():
    # structured_svd._resolve builds M from checked arrays and checks its
    # structure, so the kernels that factor it read no input check
    kernels = {"hermitian_eig", "takagi_symmetric_unitary", "skew_pair_unitary"}
    checks = {"as_matrix", "as_square_matrix"}
    tree = ast.parse((PACKAGE / "kernel.py").read_text(encoding="utf-8"))
    found = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)}
    checked = sorted(
        func.name for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in kernels
        and any(getattr(node.func, "id", None) in checks
                for node in ast.walk(func) if isinstance(node, ast.Call))
    )
    assert kernels <= found and checked == []


def test_no_unused_imports():
    # a name counts as used where the module reads it; __init__.py's imports
    # are the public re-exports, and a __future__ import is a compiler switch
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert unused == []


def test_all_lists_every_public_name():
    # what the package imports for its users, leaving out its submodules (involsvd.cli, ...)
    public = [name for name, x in vars(involsvd).items()
              if not name.startswith("_") and not inspect.ismodule(x)]
    assert sorted(involsvd.__all__) == sorted(public)


def test_memory_order_decided_in_kernel():
    # kernel.py decides the one memory layout, C order, of the arrays the library works in
    # and returns, and mmio.py lays out the matrix it reads; no other module names an order
    named = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("kernel.py", "mmio.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.keyword) and node.arg == "order"
    ]
    assert named == []
