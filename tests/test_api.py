"""Every name the package exports, and every public function, class and
method it defines, is reached by the package itself or by the benchmark: a
definition that only its own tests use is dead API (the dense oracles that
only tests use live in `tests/oracles.py`). The global matrix
keeps its sparse LU, off the banded path of the box matrices, and every
local factor is a banded Cholesky. Matrices are written from the Q1 stencil
and sliced by position maps, not through COO triplets or scipy's fancy
indexing."""

import ast
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from msras import bench, decomp, grid, linalg, schwarz, spectral
from tests.conftest import make_system
from tests.test_bench import small_cfg

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "msras"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def public_definitions():
    """Qualified name -> name of the public functions and classes of the
    package's modules and of the public methods of those classes."""
    names = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        names[f"{node.name}.{item.name}"] = item.name
    return {q: name for q, name in names.items() if not name.startswith("_")}


def referenced_names(paths):
    """Names read as a variable, an attribute or an import, and the dotted
    parts of string constants (the benchmark's wrapper sites)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_export_is_reached():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += list((ROOT / "perfbench").glob("*.py"))
    reached = referenced_names(users)
    unreached = exported_names() - reached
    unreached |= {q for q, name in public_definitions().items() if name not in reached}
    assert not unreached, f"public but reached by no module or benchmark: {sorted(unreached)}"


def test_sparse_lu_only_in_grid():
    """SuperLU serves the global reference solve alone: no other module of
    the package or the benchmark names `splu`."""
    users = [p for p in PACKAGE.glob("*.py") if p.name != "grid.py"]
    users += list((ROOT / "perfbench").glob("*.py"))
    named = [p.name for p in users if "splu" in referenced_names([p])]
    assert not named, f"splu named outside grid.py: {named}"


def test_one_usable_core_count():
    """`schwarz.usable_cores` is the one reader of the cores this process
    may use: no other module of the package names `sched_getaffinity`,
    which some platforms lack."""
    users = [p for p in PACKAGE.glob("*.py") if p.name != "schwarz.py"]
    named = [p.name for p in users if "sched_getaffinity" in referenced_names([p])]
    assert not named, f"sched_getaffinity named outside schwarz.py: {named}"


def test_no_dense_cholesky_in_package():
    """Every local factor goes through `linalg.factorize` and every factor
    solves through `linalg.SparseFactor`: no module of the package names a
    dense `cho_factor` or `cho_solve`."""
    named = [(p.name, name) for p in PACKAGE.glob("*.py")
             for name in ("cho_factor", "cho_solve") if name in referenced_names([p])]
    assert not named, f"dense Cholesky named in: {named}"


def test_no_kernel_eigvalsh_in_package():
    """The pencil solve counts the kernel from its own shifted pairs: no
    module of the package names `eigvalsh`."""
    named = [p.name for p in PACKAGE.glob("*.py") if "eigvalsh" in referenced_names([p])]
    assert not named, f"eigvalsh named in: {named}"


def test_no_coo_assembly_or_fancy_slicing_in_package(monkeypatch):
    """Matrices are written from the stencil and sliced by
    `linalg.submatrix`: no module of the package names `coo_matrix`, and a
    comparison of all five schemes on 2x2 subdomains indexes no scipy csr
    matrix with an index array."""
    named = [p.name for p in PACKAGE.glob("*.py") if "coo_matrix" in referenced_names([p])]
    assert not named, f"coo_matrix named in: {named}"
    keys = []
    getitem = sparse.csr_matrix.__getitem__
    monkeypatch.setattr(sparse.csr_matrix, "__getitem__",
                        lambda self, key: keys.append(key) or getitem(self, key))
    records = bench.run_comparison(small_cfg(), list(schwarz.SCHEMES))
    assert all(r["converged"] for r in records.values())
    fancy = [k for k in keys
             if any(np.ndim(part) > 0 for part in (k if isinstance(k, tuple) else (k,)))]
    assert not fancy, f"{len(fancy)} csr matrices indexed with an index array"


def test_one_eigh_per_pencil(monkeypatch):
    """A comparison of the harmonic and GenEO schemes on 2x2 subdomains
    solves 8 pencils with one `scipy.linalg.eigh` each, and no other dense
    symmetric eigensolve."""
    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (scipy.linalg, np.linalg):
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(module, name,
                                counted(f"{module.__name__}.{name}", getattr(module, name)))
    monkeypatch.setattr(spectral, "dense_generalized_sym_eig",
                        counted("pencil", spectral.dense_generalized_sym_eig))
    records = bench.run_comparison(small_cfg(), ["hybrid_RAS_msgfem", "AS2_geneo"])
    assert all(r["converged"] for r in records.values())
    assert calls == {"scipy.linalg.eigh": 8, "pencil": 8}


def test_solve_direct_does_not_reach_factorize(monkeypatch):
    def banned(A):
        raise AssertionError("the global matrix reached linalg.factorize")

    for module in (bench, decomp, grid, linalg, schwarz, spectral):
        if hasattr(module, "factorize"):  # the name as each module binds it
            monkeypatch.setattr(module, "factorize", banned)
    system = make_system(24, contrast=1e3)
    u = system.solve_direct()
    r = system.f_free - system.A_free.mat @ u
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(system.f_free)
