"""Module boundaries: no module uses another adaptnets module's private
names, no module branches on a tuple-shaped network state, only
Subspace.agent_basis reads an agent basis by strides, only Graph.spectrum
decomposes a Laplacian, only check_feasibility takes eigenvalues of
A - P_U, only theory.py calls the closed-form predictors, every name a
module's __all__ lists exists, and every module stays below the parser's
token limit."""

import ast
import importlib
from pathlib import Path
import tokenize

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adaptnets"


def _private_uses(path: Path) -> list[str]:
    """`from .x import _name`, and `mod._name` where mod names an adaptnets
    module, in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "adaptnets":
                    modules.add(alias.asname or "adaptnets")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "adaptnets":
                continue
            # `from . import x` and `from adaptnets import x` can bind modules
            binds_modules = node.module in (None, "adaptnets")
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif binds_modules:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(f"{path.name}:{node.lineno} uses "
                             f"{ast.unparse(node)}")
    return found


def test_no_private_names_cross_module_boundaries():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 8
    found = [use for path in files for use in _private_uses(path)]
    assert found == [], "private names used across modules:\n" + "\n".join(found)


def test_private_use_detection(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .config import resolve, _strategy_payload\n"
        "from . import theory as theory_mod\n"
        "import adaptnets.graphs\n"
        "theory_mod._helper(1)\n"
        "theory_mod.msd_projection\n"
        "adaptnets.graphs._connected([])\n"
        "self._own = 1\n"
    )
    assert _private_uses(source) == [
        "sample.py:1 imports _strategy_payload",
        "sample.py:4 uses theory_mod._helper",
        "sample.py:6 uses adaptnets.graphs._connected",
    ]


def _tuple_checks(path: Path) -> list[str]:
    """`isinstance(x, tuple)` and `isinstance(x, (..., tuple, ...))` in one
    source file: the network state is one (N, M_max) array, so no code
    should need to tell a tuple of per-agent blocks apart from it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        if any(isinstance(k, ast.Name) and k.id == "tuple" for k in names):
            found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_tuple_state_checks():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 8
    found = [use for path in files for use in _tuple_checks(path)]
    assert found == [], "isinstance(..., tuple) in src:\n" + "\n".join(found)


def test_tuple_check_detection(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "if isinstance(w, tuple):\n"
        "    pass\n"
        "ok = isinstance(w, (list, tuple))\n"
        "fine = isinstance(w, np.ndarray)\n"
        "also_fine = isinstance(w, (str, Mapping))\n"
        "tuple(w)\n"
    )
    assert _tuple_checks(source) == [
        "sample.py:1 isinstance(w, tuple)",
        "sample.py:3 isinstance(w, (list, tuple))",
    ]


def _strided_slices(path: Path) -> list[str]:
    """Subscripts x[::a, ::b], strided on two axes, outside
    Subspace.agent_basis: reading U_N off a basis by strides is right only
    where agent_basis has checked that the basis is U_N x I_M."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Subspace":
            for fn in cls.body:
                if getattr(fn, "name", None) == "agent_basis":
                    exempt.update(id(node) for node in ast.walk(fn))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and id(node) not in exempt
                and isinstance(node.slice, ast.Tuple)
                and sum(isinstance(axis, ast.Slice) and axis.step is not None
                        for axis in node.slice.elts) >= 2):
            found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_strided_agent_basis_outside_subspace():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 8
    found = [use for path in files for use in _strided_slices(path)]
    assert found == [], "doubly strided slices in src:\n" + "\n".join(found)


def test_strided_slice_detection(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "a = basis[::m, ::m]\n"
        "b = basis[1::2, :, ::3]\n"
        "c = basis[::-1]\n"
        "d = basis[:, ::2]\n"
        "class Subspace:\n"
        "    def agent_basis(self):\n"
        "        return self.basis[::m, ::m]\n"
        "def agent_basis(basis):\n"
        "    return basis[::2, ::2]\n"
    )
    assert _strided_slices(source) == [
        "sample.py:1 basis[::m, ::m]",
        "sample.py:2 basis[1::2, :, ::3]",
        "sample.py:9 basis[::2, ::2]",
    ]


def test_every_name_in_all_exists():
    # a stale __all__ entry would otherwise fail only a star import
    modules = [importlib.import_module(f"adaptnets.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))
               if not path.stem.startswith("__")]
    assert sum(hasattr(module, "__all__") for module in modules) >= 7
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == [], "stale names in __all__: " + ", ".join(missing)


# CPython's parser doubles its token array at 8192 tokens, so a module that
# reaches it compiles with a peak about 0.5 MB higher in every interpreter
# that compiles the package from source
_PARSER_TOKEN_LIMIT = 8192


def _parser_tokens(path: Path) -> int:
    """The tokens of a source file that reach the parser: all but comments,
    non-logical newlines and the encoding marker."""
    with path.open("rb") as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL,
                                    tokenize.ENCODING)
                   for tok in tokenize.tokenize(fh.readline))


def test_every_module_stays_below_the_parser_token_limit():
    counts = {path.name: _parser_tokens(path)
              for path in sorted(PACKAGE.glob("*.py"))}
    assert len(counts) >= 8
    over = [f"{name}: {count} tokens" for name, count in counts.items()
            if count >= _PARSER_TOKEN_LIMIT]
    assert over == [], (f"modules at or past {_PARSER_TOKEN_LIMIT} parser "
                        "tokens:\n" + "\n".join(over))


def test_parser_token_count_leaves_out_comments_and_blank_lines(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("# a comment\n\nx = f(1)  # another\n\n")
    # x, =, f, (, 1, ), NEWLINE and ENDMARKER
    assert _parser_tokens(source) == 8


def _laplacian_builds(path: Path) -> list[str]:
    """Calls of build_laplacian outside Graph.spectrum: the Laplacian is
    decomposed once per graph, on the first read of its spectrum, and only
    where something reads it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Graph":
            for fn in cls.body:
                if getattr(fn, "name", None) == "spectrum":
                    exempt.update(id(node) for node in ast.walk(fn))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name == "build_laplacian":
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


def test_only_graph_spectrum_builds_the_laplacian():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 8
    found = [use for path in files for use in _laplacian_builds(path)]
    assert found == [], "build_laplacian called in src:\n" + "\n".join(found)


def test_laplacian_build_detection(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "spectrum = build_laplacian(graph)\n"
        "other = graphs.build_laplacian(graph)\n"
        "name = build_laplacian\n"
        "class Graph:\n"
        "    def spectrum(self):\n"
        "        return build_laplacian(self)\n"
        "    def other(self):\n"
        "        return build_laplacian(self)\n"
    )
    assert _laplacian_builds(source) == [
        "sample.py:1 build_laplacian(graph)",
        "sample.py:2 graphs.build_laplacian(graph)",
        "sample.py:8 build_laplacian(self)",
    ]


# where each eigenvalue call of the package may stand, by function: rho(A -
# P_U) in check_feasibility, which only Strategy.feasibility calls, the
# R_u spectrum of the closed forms, and the spectral radius of clustered's
# composed quadratic step in its stability row
EIGENVALUE_HOMES = {
    "eigvals": {"check_feasibility", "_clustered_conditions"},
    "eigvalsh": {"check_feasibility", "r_u_eigenvalues"},
    "check_feasibility": {"feasibility"},
}


def _eigenvalue_calls(path: Path) -> list[str]:
    """Calls of eigvals, eigvalsh or check_feasibility outside the functions
    EIGENVALUE_HOMES names for them, in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    home = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                home.setdefault(id(node), set()).add(fn.name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if (name in EIGENVALUE_HOMES
                    and not home.get(id(node), set()) & EIGENVALUE_HOMES[name]):
                found.append((node.lineno, ast.unparse(func)))
    return [f"{path.name}:{line} {call}" for line, call in sorted(found)]


def test_only_check_feasibility_takes_the_mixing_rate():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 8
    found = [use for path in files for use in _eigenvalue_calls(path)]
    assert found == [], "eigenvalues taken in src:\n" + "\n".join(found)


def test_eigenvalue_call_detection(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "rho = np.linalg.eigvals(a - p)\n"
        "def mixing_rho(a, p):\n"
        "    return np.linalg.eigvalsh(a - p)\n"
        "def check_feasibility(a, p):\n"
        "    return eigvals(a - p), np.linalg.eigvalsh(a - p)\n"
        "def r_u_eigenvalues(r):\n"
        "    return np.linalg.eigvalsh(r), np.linalg.eigvals(r)\n"
        "report = check_feasibility(a, p)\n"
        "class Strategy:\n"
        "    def feasibility(self):\n"
        "        return check_feasibility(self.a, self.p)\n"
    )
    assert _eigenvalue_calls(source) == [
        "sample.py:1 np.linalg.eigvals",
        "sample.py:3 np.linalg.eigvalsh",
        "sample.py:7 np.linalg.eigvals",
        "sample.py:8 check_feasibility",
    ]


# TheoryInputs and the predictors that read it
THEORY_CALLS = {"TheoryInputs", "msd_noncooperative", "variance_smoothness",
                "bias_smoothness", "msd_projection", "filter_bound"}


def _theory_calls(path: Path) -> list[str]:
    """Calls of a closed-form predictor or of TheoryInputs in one source
    file: theory.closed_forms decides which predictions a strategy gets, so
    only theory.py calls them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in THEORY_CALLS:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(func)}")
    return found


def test_only_theory_calls_the_predictors():
    files = sorted(path for path in PACKAGE.glob("*.py")
                   if path.name != "theory.py")
    assert len(files) >= 8
    found = [use for path in files for use in _theory_calls(path)]
    assert found == [], "theory predictors called in src:\n" + "\n".join(found)


def test_theory_call_detection(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "inputs = theory_mod.TheoryInputs(mu=0.01)\n"
        "msd = msd_projection(inputs)\n"
        "predict = filter_bound\n"
        "theory, w_star = closed_forms(strategy, model)\n"
    )
    assert _theory_calls(source) == [
        "sample.py:1 theory_mod.TheoryInputs",
        "sample.py:2 msd_projection",
    ]
