import ast
import builtins
from graphlib import TopologicalSorter
from pathlib import Path

import tailmoments

PACKAGE = Path(tailmoments.__file__).parent


def _package_imports(path: Path) -> dict[str, list[str]]:
    """The package modules a module imports from, with the names it takes from each."""
    imports: dict[str, list[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            imports.setdefault(node.module, []).extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imports.setdefault(alias.name, [])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tailmoments."):
            imports.setdefault(node.module.split(".")[1], []).extend(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tailmoments."):
                    imports.setdefault(alias.name.split(".")[1], [])
    return imports


def test_modules_are_layered():
    graph = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {"core", "variance", "oracle", "weights"} <= set(graph)

    private = [(module, source, name) for module, imports in graph.items()
               for source, names in imports.items() for name in names if name.startswith("_")]
    assert private == []

    # the population oracle and the variance formulas know nothing of samples
    assert set(graph["variance"]) == {"core"}
    assert set(graph["oracle"]) == {"core", "variance"}

    # the package modules form a DAG once the re-exporting __init__ is left out;
    # prepare() raises CycleError otherwise
    del graph["__init__"]
    TopologicalSorter({module: set(imports) for module, imports in graph.items()}).prepare()


QP_NAMES = {"simplex_minimizers", "minimize_quadratic_on_simplex"}


def _reads_the_qp(path: Path) -> bool:
    """Whether a module imports a simplex QP name or reads one as an attribute."""
    tree = ast.parse(path.read_text())
    return any(set(names) & QP_NAMES for names in _package_imports(path).values()) or any(
        isinstance(node, ast.Attribute) and node.attr in QP_NAMES for node in ast.walk(tree))


def test_only_the_optimal_weights_read_the_simplex_qp():
    # the CLI and the harness take optimal weights from weights and oracle, never from the QP
    readers = {path.stem for path in sorted(PACKAGE.glob("*.py")) if _reads_the_qp(path)}
    assert readers == {"weights", "oracle", "__init__"}


def _reads_perturbation(path: Path) -> bool:
    """Whether a module imports ``Perturbation`` or reads it as an attribute."""
    return any("Perturbation" in names for names in _package_imports(path).values()) or any(
        isinstance(node, ast.Attribute) and node.attr == "Perturbation"
        for node in ast.walk(ast.parse(path.read_text())))


def test_only_the_known_sample_and_its_estimators_read_a_perturbation():
    # the oracle takes its scales in one form, a vector, and its power as a number;
    # core defines Perturbation and __init__ re-exports it
    readers = {path.stem for path in sorted(PACKAGE.glob("*.py")) if _reads_perturbation(path)}
    assert readers == {"samples", "estimators", "__init__"}


def _writes_through_zero_based(tree: ast.AST) -> list[int]:
    """Lines that assign into a subscript indexed by a ``.zero_based()`` call."""
    def indexes_by_zero_based(target) -> bool:
        return isinstance(target, ast.Subscript) and any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "zero_based" for node in ast.walk(target.slice))

    lines = []
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        lines += [node.lineno for t in targets for sub in ast.walk(t)
                  if indexes_by_zero_based(sub)]
    return lines


def test_only_core_lays_out_vectors_on_an_index_set():
    # a length-d vector is written from |I| values by core.embed alone
    writers = {path.stem: _writes_through_zero_based(ast.parse(path.read_text()))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in writers.items()
            if lines and module != "core"} == {}
    assert writers["core"]  # the guard sees core.embed


ROW_AXES = {1, 2, -1}  # the column axis of an (n, m) array or of an (R, n, m) block


def _constant(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _picks_a_column(node) -> bool:
    """``a[..., j]`` or ``a[:, j]``: one column of the last axis."""
    index = node.slice if isinstance(node, ast.Subscript) else None
    return (isinstance(index, ast.Tuple) and len(index.elts) == 2
            and (isinstance(index.elts[0], ast.Slice) or _constant(index.elts[0]) is Ellipsis))


def _row_maxima(tree: ast.AST) -> list[int]:
    """Lines that take row maxima: ``max``/``amax``/``nanmax`` (a builtin, a function or a
    method) along axis 1, 2 or -1, a ``maximum.reduce``, or a ``maximum`` of single columns."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", None) or getattr(func, "id", None)
        if name == "reduce" and getattr(getattr(func, "value", None), "attr", None) == "maximum":
            lines.append(node.lineno)
        elif name == "maximum" and any(_picks_a_column(arg) for arg in node.args):
            lines.append(node.lineno)
        elif name in ("max", "amax", "nanmax"):
            # a method's first positional argument is its axis, numpy's function's second
            function = isinstance(func, ast.Name) or getattr(func.value, "id", None) in ("np",
                                                                                        "numpy")
            axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
            if not isinstance(func, ast.Name):
                axes += node.args[1 if function else 0:][:1]
            if any(_constant(axis) in ROW_AXES for axis in axes):
                lines.append(node.lineno)
    return lines


def test_only_core_takes_row_maxima():
    # the exceedance step (row max, threshold, divide by the max) is core.exceedances,
    # for one matrix and for a block of replications alike
    calls = {path.stem: _row_maxima(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in calls.items() if lines and module != "core"} == {}
    assert calls["core"]  # the guard sees core.exceedances
    flagged = ["x.max(axis=1)", "np.max(x, axis=-1)", "x.max(2)", "np.amax(x, 1)",
               "np.maximum.reduce(x, axis=2)", "np.maximum.reduce(x)", "max(x, axis=1)",
               "np.maximum(x[:, 0], x[:, 1])", "np.maximum(ell, x[..., j], out=ell)"]
    passed = ["x.max(axis=0)", "np.max(x, 0)", "max(count, 1)", "np.max(x, axis=(-2, -1))",
              "np.maximum(variance, 0.0)", "np.maximum(x, np.multiply.outer(z[..., i], c))"]
    assert [bool(_row_maxima(ast.parse(code))) for code in flagged + passed] == \
        [True] * len(flagged) + [False] * len(passed)


def _finiteness_checks(tree: ast.AST) -> list[int]:
    """Lines that call ``isfinite`` (``np.isfinite``, ``math.isfinite`` or a bare name)."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "isfinite" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


def test_only_core_checks_finiteness():
    # a real parameter passes core.check_finite: finite and positive (or non-negative)
    calls = {path.stem: _finiteness_checks(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in calls.items() if lines and module != "core"} == {}
    assert _finiteness_checks(ast.parse("ok = np.all(np.isfinite(x))")) == [1]


def _thresholds_partial_max(tree: ast.AST) -> list[int]:
    """Lines that compare, or divide by, a name bound from a ``partial_max(...)`` call."""
    def calls_partial_max(node) -> bool:
        return isinstance(node, ast.Call) and "partial_max" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    names = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and calls_partial_max(node.value) for t in node.targets if isinstance(t, ast.Name)}

    def reads_one(node) -> bool:
        return any(isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(node))

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and reads_one(node):
            lines.append(node.lineno)
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, (ast.Div, ast.FloorDiv))
              and reads_one(node.right if isinstance(node, ast.BinOp) else node.value)):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_core_thresholds_or_divides_by_a_partial_max():
    # renormalizing by a partial max is core.exceedances, also at level 0
    found = {path.stem: _thresholds_partial_max(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "core"}
    assert {module: lines for module, lines in found.items() if lines} == {}
    # the guard sees a renormalization written by hand
    by_hand = ("peaks = partial_max(atoms, index_set)\n"
               "keep = peaks > 0.0\n"
               "theta = atoms[keep] / peaks[keep, None]\n"
               "probs = probs[keep] * peaks[keep]\n")
    assert _thresholds_partial_max(ast.parse(by_hand)) == [2, 3]


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """The calls of ``name``, as a bare name or an attribute (``tm.name(...)``)."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_simulate_hands_data_over_uncopied():
    # DataMatrix copies what it is handed; maxlinear.simulate alone passes an array that
    # nothing else holds, with copy=False
    uncopied = {path.stem for path in sorted(PACKAGE.glob("*.py"))
                for call in _calls(ast.parse(path.read_text()), "DataMatrix")
                if any(kw.arg == "copy" for kw in call.keywords)}
    assert uncopied == {"maxlinear"}


def test_estimators_reach_tail_samples_through_the_reuse_rule():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    builders = {module for module, tree in trees.items()
                if _calls(tree, "KnownSample") or _calls(tree, "RankSample")}
    # the CLI and the harness build one sample per command or block and pass it on
    assert builders == {"cli", "harness"}
    assert all(_calls(trees[module], "tail_sample")
               for module in ("estimators", "weights", "margins"))
    assert len(_calls(ast.parse("tm.KnownSample(x, u, s)\nRankSample(x, k, s)"),
                      "KnownSample")) == 1


BUILTIN_ERRORS = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}


def _exception_classes(tree: ast.AST, known: set[str]) -> list[str]:
    """The classes a module defines on an exception class: a builtin one, one of ``known``, or
    one the module defines on those.  A base is read by its name, ``core.NoExceedances`` too."""
    known, found = set(known), []
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    while True:
        new = [node.name for node in classes if node.name not in found and any(
            getattr(base, "id", getattr(base, "attr", None)) in known for base in node.bases)]
        if not new:
            return sorted(found)
        found += new
        known |= set(new)


def test_only_core_defines_exception_classes():
    # one error type per kind of fault: a module raises ValueError or a class of core's
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    errors = _exception_classes(trees.pop("core"), BUILTIN_ERRORS)
    assert errors == ["EpsOutOfRange", "EstimationError", "KOutOfRange", "NoExceedances",
                      "ParamOutOfRange", "SupportViolation"]
    found = {module: _exception_classes(tree, BUILTIN_ERRORS | set(errors))
             for module, tree in trees.items()}
    assert {module: names for module, names in found.items() if names} == {}
    # the guard sees a class on a builtin error, on core's and on one defined before it
    code = ("class A(ValueError): pass\nclass B(core.NoExceedances): pass\n"
            "class C(B): pass\nclass D: pass\nclass E(D): pass\n")
    assert _exception_classes(ast.parse(code), BUILTIN_ERRORS | set(errors)) == ["A", "B", "C"]
