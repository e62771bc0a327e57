"""Conventions of the package source itself."""

import ast
import inspect
from pathlib import Path

import involsvd

MAX_LINE = 99
PACKAGE = Path(involsvd.__file__).parent
# the kernels that factor structured_svd._resolve's restricted cluster matrix M
CLUSTER_KERNELS = {"hermitian_eig", "takagi_symmetric_unitary", "skew_pair_unitary"}


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
    # A*, V* and Q* are read through StructureClass.star and star_h; the CLI reports a
    # single's phase or sign by its class, so nothing outside structures.py reads is_con
    readers = sorted(path.name for path in PACKAGE.glob("*.py") if "is_con" in path.read_text())
    assert readers == ["structures.py"]


def _reads_t_entries(node) -> bool:
    """A subscript or attribute of ``x.t`` (``x.t[i, i]``, ``x.t.diagonal()``), or
    ``np.diag(x.t)``."""
    def is_t(x):
        return isinstance(x, ast.Attribute) and x.attr == "t"

    if isinstance(node, (ast.Subscript, ast.Attribute)) and is_t(node.value):
        return True
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("diag", "diagonal")
            and any(map(is_t, node.args)))


def test_t_entries_read_by_singles_and_as_eigenvalues():
    # StructuredSvd.singles decodes each single's sign or phase from T's diagonal; the one
    # other reader of T's entries is eigendecompose, whose eigenvalues are T's entries as
    # they are; everywhere else T is used whole (products, comparisons, files)
    readers = {
        (path.name, func.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef) and any(map(_reads_t_entries, ast.walk(func)))
    }
    assert readers == {("structured_svd.py", "singles"), ("canonical.py", "eigendecompose")}


def test_relative_residual_scale_has_one_owner():
    # n max(1, ||a||) max(1, factor) is kernel._relative_residual's; every relative
    # residual of the library and the CLI divides by it there
    spelled = sorted(path.name for path in PACKAGE.glob("*.py")
                     if "max(1.0, _frobenius(a))" in path.read_text())
    assert spelled == ["kernel.py"]


def test_frobenius_norm_has_one_spelling():
    # ||x||_F is kernel._frobenius everywhere, so the gate's scale, the relative residuals
    # and a report's frobenius_norm read a norm to the same bits
    spelled = sorted(path.name for path in PACKAGE.glob("*.py")
                     if "np.linalg.norm" in path.read_text())
    assert spelled == []


def test_one_svd_path_and_no_hidden_tolerance():
    # a report reads cond S and cond Z as max(1, sigma_1) and compares T exactly, so the
    # package calls no np.linalg.cond and no np.allclose (whose rtol and atol are hidden);
    # LAPACK's SVD runs in kernel.svd and, as project's reference, in cli.cmd_project
    hidden = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in ("np.linalg.cond", "np.allclose") if name in path.read_text()]
    svd_callers = {
        (path.name, func.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        and any(ast.unparse(node) == "np.linalg.svd" for node in ast.walk(func))
    }
    spelled = sum(path.read_text().count("np.linalg.svd") for path in PACKAGE.glob("*.py"))
    assert hidden == []
    assert svd_callers == {("kernel.py", "svd"), ("cli.py", "cmd_project")} and spelled == 2


def test_data_line_rule_has_one_spelling():
    # after the header, a Matrix Market line that is neither blank nor a comment is data:
    # the size-line search and the entry loop of mmio.read_matrix ask one function
    assert (PACKAGE / "mmio.py").read_text(encoding="utf-8").count('startswith("%")') == 1


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
    callers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                name = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
                if name in CLUSTER_KERNELS:
                    callers.setdefault(node.func.id, set()).add((path.name, func.name))
    assert callers == {name: {("structured_svd.py", "_resolve")} for name in CLUSTER_KERNELS}


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
    checks = {"as_matrix", "as_square_matrix"}
    tree = ast.parse((PACKAGE / "kernel.py").read_text(encoding="utf-8"))
    found = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)}
    checked = sorted(
        func.name for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in CLUSTER_KERNELS
        and any(getattr(node.func, "id", None) in checks
                for node in ast.walk(func) if isinstance(node, ast.Call))
    )
    assert CLUSTER_KERNELS <= found and checked == []


def test_cluster_kernels_do_not_project_m():
    # structured_svd._resolve projects M onto its class once; no cluster kernel adds a
    # matrix to, or subtracts it from, its own transpose or conjugate transpose
    tree = ast.parse((PACKAGE / "kernel.py").read_text(encoding="utf-8"))
    projecting = sorted(
        f"{func.name}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in CLUSTER_KERNELS
        for node in ast.walk(func)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        and any(isinstance(side, ast.Attribute) and side.attr == "T"
                for side in (node.left, node.right))
    )
    assert projecting == []


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


def test_default_tol_is_spelled_once():
    # every tol default (classify, restructure, extract_T, projector, the oracle, the CLI's
    # --tol and generate's echo) reads structures.DEFAULT_TOL; a docstring may name its value
    literals = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-10
    ]
    owner = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "DEFAULT_TOL"
    ]
    assert literals == owner and [name for name, _ in owner] == ["structures.py"]


def _is_projector_formula(node) -> bool:
    """``(I +- x) / c`` or ``(x +- I) / c`` with I an ``np.eye`` call."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, (ast.Add, ast.Sub))
            and any(isinstance(side, ast.Call) and ast.unparse(side.func) == "np.eye"
                    for side in (node.left.left, node.left.right)))


def test_projector_has_one_builder():
    # B = (I + sign A)/2 is projector._projector's; projector(), the Householder oracle and
    # cli.cmd_project call it after their gate
    builders = {
        (path.name, func.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef) and any(map(_is_projector_formula, ast.walk(func)))
    }
    assert builders == {("projector.py", "_projector")}


def test_refusal_texts_have_one_owner():
    # as_matrix refuses an empty matrix for every reader, the square ones and the writer;
    # _residual_scale refuses an overflowing ||A||_F^2 for the relative residuals and the class
    # gate; the gate's refusal and gen_consim read one string for an odd skew-coninvolutory n
    counts = {text: sum(path.read_text(encoding="utf-8").count(text)
                        for path in PACKAGE.glob("*.py"))
              for text in ("matrix must be at least 1x1", "||A||_F^2 overflows",
                           "exist only for even dimension")}
    assert counts == dict.fromkeys(counts, 1)


def test_phase_angles_read_only_by_the_cli():
    # the library normalizes a single's coneigenvector by sqrt(phase) in one helper; only the
    # CLI reads a phase as an angle, to report it
    readers = sorted(path.name for path in PACKAGE.glob("*.py") if "np.angle" in path.read_text())
    assert readers == ["cli.py"]


def test_reader_line_refusal_has_one_spelling():
    # every refusal of mmio.read_matrix that names a line is built by one helper, so the
    # text "line N: <reason>" and the error's .line agree for each of them
    spelled = sum(path.read_text(encoding="utf-8").count("line {lineno}: ")
                  for path in PACKAGE.glob("*.py"))
    assert spelled == 1


def test_report_sorts_sigma_and_lays_out_blocks_once():
    # a report sorts the record's sigma once, for the pairing residual and the oracle, and
    # one helper gives a record's counts, sigma and blocks to both the report and generate
    calls = [ast.unparse(node.func)
             for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    assert calls.count("np.sort") == 1 and calls.count("_blocks_json") == 1
