"""Rules that hold for the library source as a whole."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edrkit"


def test_library_has_no_bare_assert():
    # python -O strips assert statements, so no check in the library may be one
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_never_imports_dataclasses():
    # dataclasses imports inspect and builds each class with exec, which a
    # CLI verb paid on every start; rings.value_class does the same job
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_verifier_imports_only_matrices_and_rings():
    # the verifier shares no code with the producer: it may use the matrix
    # and ring layers, never reduction or finite_lab
    path = SRC / "verification.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    local = {name for name in imported if name.startswith(".") or name.startswith("edrkit")}
    assert local <= {".matrices", ".rings"}


def test_producer_never_calls_the_verifiers_kernels():
    # the verifier checks with the ring's own determinant and rank profile
    # (and their Bareiss row kernel), matrix-product kernel and
    # normalization predicate, so its independence rests on the reducer
    # never calling them
    path = SRC / "reduction.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    kernels = {"_det", "_rank_profile", "_bareiss_rows", "_matmul", "_is_normalized"}
    found = [
        f"reduction.py:{node.lineno} {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in kernels
    ]
    assert found == []


def test_verifier_never_calls_the_producers_kernels():
    # the reducer's tableau (every operation of it) and its normalizer live
    # in the ring layer beside the verifier's kernels, so the verifier must
    # never reach for them
    from edrkit.rings import Tableau

    path = SRC / "verification.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    producer = {"_tableau", "_normalizer", *Tableau.__abstractmethods__}
    found = [
        f"verification.py:{node.lineno} {node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in producer
    ]
    assert found == []


def test_producer_divides_only_through_the_row_kernel():
    # size reduction is the tableau's reduce_row, which over GF(p)[x] finds
    # a whole row's quotients in one product; a per-entry _divmod in the
    # reducer would be that loop again beside the kernel
    path = SRC / "reduction.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    attrs = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    found = [f"reduction.py:{node.lineno} {node.attr}" for node in attrs if node.attr == "_divmod"]
    assert found == []
    assert any(node.attr == "reduce_row" for node in attrs)


def test_producer_reads_the_tableau_only_through_its_operations():
    # the ring lays the tableau out (a list of rows on Z, packed columns on
    # GF(p)[x]), so the reducer reads an entry only through the tableau's
    # entry and is_zero: it subscripts no grid twice (a[j][i]) and reaches
    # no attribute of the tableau but its operations
    from edrkit.rings import Tableau

    path = SRC / "reduction.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript):
            found.append(f"reduction.py:{node.lineno} {ast.unparse(node)}")
        elif isinstance(node, ast.Attribute):
            owner = node.value
            on_tableau = (isinstance(owner, ast.Name) and owner.id == "tab") or (
                isinstance(owner, ast.Attribute) and owner.attr == "tab"
            )
            if node.attr == "a" or (on_tableau and node.attr not in Tableau.__abstractmethods__):
                found.append(f"reduction.py:{node.lineno} .{node.attr}")
    assert found == []


def test_producer_uses_every_tableau_operation():
    # the tableau's contract is what the reducer needs and no more: an
    # operation that reduction.py never reaches on its tableau would be
    # code that every carrier and the loop oracle keep for nothing
    from edrkit.rings import Tableau

    path = SRC / "reduction.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "tab"
    }
    assert sorted(Tableau.__abstractmethods__ - used) == []


def test_tableaux_define_only_the_contracts_operations():
    # an operation dropped from rings.Tableau must leave both carriers and
    # the loop oracle as well, so none of them keeps a public method the
    # contract does not name
    from edrkit.polynomials import _PackedTableau
    from edrkit.rings import RowTableau, Tableau

    from oracles import LoopTableau

    found = [
        f"{cls.__name__}.{name}"
        for cls in (RowTableau, _PackedTableau, LoopTableau)
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_") and name not in Tableau.__abstractmethods__
    ]
    assert found == []


def test_producer_and_verifier_stay_on_the_payload_grid():
    # the verifier reads payload grids, never boxed entries, and the reducer
    # builds matrices from payload grids only, so neither pays for a
    # RingElement per entry on the certificate round trip
    def tree(name):
        path = SRC / name
        return ast.parse(path.read_text(encoding="utf-8"), str(path))

    found = [
        f"verification.py:{node.lineno} .entries"
        for node in ast.walk(tree("verification.py"))
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    ]
    for node in ast.walk(tree("reduction.py")):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "Matrix":
            found.append(f"reduction.py:{node.lineno} Matrix(...)")
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "Matrix"
        ):
            found.append(f"reduction.py:{node.lineno} Matrix.{func.attr}(...)")
    assert found == []


def test_ring_kernels_have_one_path_per_carrier():
    # GF(p)[x]'s packed kernels and tableau take slots of any width, so none
    # falls back to an inherited per-entry loop or to Z's list of rows, and
    # Ring and EuclideanRing hold no such loop to fall back to: the loops are
    # test oracles (tests/oracles.py).  Each carrier has one tableau.
    from edrkit.rings import Tableau

    kernels = {"_matmul", "_tableau", "_bareiss_rows", "_ext_gcd"}

    def tree(name):
        path = SRC / name
        return ast.parse(path.read_text(encoding="utf-8"), str(path))

    found = [
        f"polynomials.py:{node.lineno} super().{node.attr}"
        for node in ast.walk(tree("polynomials.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "super"
        and node.attr in kernels | Tableau.__abstractmethods__
    ]
    found += [
        f"polynomials.py:{node.lineno} RowTableau"
        for node in ast.walk(tree("polynomials.py"))
        if isinstance(node, ast.Name) and node.id == "RowTableau"
    ]
    classes = {node.name: node for node in tree("rings.py").body if isinstance(node, ast.ClassDef)}
    for cls in ("Ring", "EuclideanRing"):
        for node in classes[cls].body:
            if not isinstance(node, ast.FunctionDef) or node.name not in kernels:
                continue
            abstract = any(isinstance(d, ast.Name) and d.id == "abstractmethod" for d in node.decorator_list)
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            empty = all(isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant) for s in body)
            if not (abstract and empty):
                found.append(f"rings.py:{node.lineno} {cls}.{node.name}")
    tableaux = {
        f"{name}:{cls.name}"
        for name in ("rings.py", "polynomials.py")
        for cls in tree(name).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "_tableau" and cls.name != "EuclideanRing"
    }
    assert found == []
    assert tableaux == {"rings.py:IntegerRing", "polynomials.py:PolynomialRing"}
