"""Design invariants read from the source: only ``kinspace`` knows how a
KinOperator is stored or builds an exponential, no module imports scipy or
names a library's matrix exponential, no module takes a dense
eigendecomposition or a numerical rank or gathers through a meshgrid, only
``kinspace`` writes the 1e-9 of the zero and lattice tests, only the
two dense reads check the dense budget, no module reads a dense form,
a state's values come from the two walks of ``AlgebraicState`` without
acting on a bra, ``ncalg`` imports only the standard library and
``.errors`` (sympy lazily, at its boundary), every exact product, each
step of the Weyl recurrence included, is summed by ``ncalg._expand``, the
one caller of ``normal_order_word``, a commutator is never the difference
of two products, no module enumerates orderings (no
``permutations``), no option sets a product degree limit
other than ``ncalg.DEGREE_CAP``, every read of an operator's unit columns
takes its identity blocks from ``kinspace._unit_blocks``, the one offset
``np.eye``, only the operator algebra (``@``, ``+``, ``exp`` and the
G-twirl) builds a composed form, and the adjoint is an operator, never a
flag of a ``kinspace`` function."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qrfkit"
# the fields that hold a KinOperator's stored form (the public ``diag`` and
# ``factor`` also name a form, but other modules read them as values)
STORED_FORM = {"_matrix", "local", "operands", "classes", "scalar"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "kinspace.py"),
                         ids=lambda p: p.name)
def test_only_kinspace_reads_the_stored_form(path):
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in STORED_FORM]
    assert not reads, reads


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_calls_eigh(path):
    # every constraint, G_S and Pi is diagonal: no D x D eigh is needed
    # (the small Gram matrix in algstates takes eigvalsh, which is allowed)
    calls = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "eigh"]
    assert not calls, calls


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_takes_a_numerical_rank(path):
    # every rank the algebra layer needs is exact (algstates._rank)
    calls = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in {"matrix_rank", "svd"}]
    assert not calls, calls


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_kinspace_builds_exponentials(path):
    # KinOperator.exp is the one exponential action, and it sums its own
    # Taylor series: no module names a library's matrix exponential
    names = [f"{path.name}:{node.lineno} {name}"
             for node in ast.walk(ast.parse(path.read_text()))
             for name in (getattr(node, "id", None),
                          getattr(node, "attr", None),
                          getattr(node, "name", None))
             if name in {"expm", "expm_multiply", "LinearOperator"}]
    assert not names, names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # scipy is a test oracle only, not a runtime dependency
    imports = [f"{path.name}:{node.lineno} {name}"
               for node in ast.walk(ast.parse(path.read_text()))
               for name in _imported(node)
               if name.partition(".")[0] == "scipy"]
    assert not imports, imports


def _imported(node):
    """The modules an import statement names, a relative one with its
    leading dots; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_calls_meshgrid(path):
    # a model state multiplies 1-d profiles broadcast along their axes
    calls = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "meshgrid"]
    assert not calls, calls


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "kinspace.py"),
                         ids=lambda p: p.name)
def test_only_kinspace_writes_the_1e9_tolerance(path):
    # the zero test and the lattice test live in kinspace (_is_zero,
    # _off_lattice); no other module spells their bound
    found = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and node.value == 1e-9]
    assert not found, found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_a_dense_form(path):
    # ``matrix`` is built only when a caller outside the package asks
    reads = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "matrix"]
    assert not reads, reads


def _callers(tree, name, accept=lambda call: True):
    """Qualified names of the functions and methods that call ``name`` in a
    call that ``accept`` takes."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and accept(child) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == name:
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_dense_reads_check_the_dense_budget():
    # DenseBudgetExceeded comes from a .matrix read or embed_matrix only
    callers = {f"{path.stem}.{caller}" for path in SRC.glob("*.py")
               for caller in _callers(ast.parse(path.read_text()),
                                      "_check_dense")}
    assert callers == {"kinspace.KinOperator.matrix",
                       "kinspace.LatticeSpace.embed_matrix"}


def test_only_the_state_walks_call_the_prefix_walk():
    # a Hilbert-backed state values vdot(bra, y^w ket) on the full space or
    # its reduced form on the space without the frame; algstates never
    # moves a letter onto the bra
    callers = {f"{path.stem}.{caller}" for path in SRC.glob("*.py")
               for caller in _callers(ast.parse(path.read_text()),
                                      "_prefix_walk")}
    assert callers == {"algstates.AlgebraicState._fill_cache",
                       "algstates.AlgebraicState._fill_reduced"}
    assert not _callers(ast.parse((SRC / "algstates.py").read_text()),
                        "apply_adjoint")


def test_ncalg_imports_only_the_standard_library_and_errors():
    # the exact algebra holds no vectors: importing it loads neither numpy
    # nor kinspace, and sympy is imported only inside its boundary functions
    tree = ast.parse((SRC / "ncalg.py").read_text())
    top = {name for node in tree.body for name in _imported(node)}
    inner = {name for node in ast.walk(tree)
             for name in _imported(node)} - top
    assert {name for name in top
            if name.partition(".")[0] not in sys.stdlib_module_names
            } == {".errors"}
    assert inner == {"sympy"}


def test_only_the_kernel_normal_orders_a_word():
    # multiply, adjoint, the product tables and every Weyl average all sum
    # through ncalg._expand
    callers = {f"{path.stem}.{caller}" for path in SRC.glob("*.py")
               for caller in _callers(ast.parse(path.read_text()),
                                      "normal_order_word")}
    assert callers == {"ncalg._expand"}


def test_a_commutator_is_not_the_difference_of_two_products():
    # ncalg.commutator sums only the term pairs that do not commute, in one
    # _expand call; a commuting pair cancels exactly and is never formed
    tree = ast.parse((SRC / "ncalg.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "commutator")
    names = {getattr(node, "id", getattr(node, "attr", None))
             for node in ast.walk(body)}
    assert "multiply" not in names and "_expand" in names


def test_only_coefficient_arithmetic_multiplies_hbar_pairs():
    # _mul_into multiplies two coefficients; a product of two elements, each
    # step of the Weyl recurrence included, goes through _expand
    callers = {f"{path.stem}.{caller}" for path in SRC.glob("*.py")
               for caller in _callers(ast.parse(path.read_text()),
                                      "_mul_into")}
    assert callers == {"ncalg.Coef.__mul__", "ncalg.Structure.jacobi_failure",
                       "ncalg._expand", "ncalg._mul_free_into",
                       "ncalg.from_weyl_basis"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_enumerates_orderings(path):
    # a Weyl average is summed by its first-letter recurrence, never over
    # the distinct orderings of a word, which grow factorially
    found = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             for name in (getattr(node, "id", None),
                          getattr(node, "attr", None),
                          *(alias.name for alias in getattr(node, "names",
                                                            ())))
             if name == "permutations"]
    assert not found, found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_degree_cap_option(path):
    # ncalg.DEGREE_CAP is the one product degree limit: no argument,
    # keyword or attribute sets another
    found = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             for name in (getattr(node, "arg", None),
                          getattr(node, "attr", None))
             if name == "degree_cap"]
    assert not found, found


def test_only_unit_blocks_builds_offset_identity_columns():
    # matrix, a composed diagonal() and verify_assignment's Lie check read
    # the unit columns from kinspace._unit_blocks; np.eye(n, m, k) with an
    # offset k (third argument or keyword) appears nowhere else
    def offset(call):
        return len(call.args) >= 3 or any(kw.arg == "k"
                                          for kw in call.keywords)

    callers = {f"{path.stem}.{caller}" for path in SRC.glob("*.py")
               for caller in _callers(ast.parse(path.read_text()), "eye",
                                      offset)}
    assert callers == {"kinspace._unit_blocks"}


def test_only_the_operator_algebra_builds_a_composed_form():
    # each caller passes a valid kind and operands on one space; the
    # closed relational observable is a product of five operands
    callers = {f"{path.stem}.{caller}" for path in SRC.glob("*.py")
               for caller in _callers(ast.parse(path.read_text()),
                                      "_composed")}
    assert callers == {"kinspace.KinOperator.exp",
                       "kinspace.KinOperator.__add__",
                       "kinspace.KinOperator.__matmul__", "relobs.g_twirl"}


def test_no_kinspace_function_takes_an_adjoint_flag():
    # ``apply_adjoint`` is ``adjoint.apply``: every form and composed kind
    # has one apply path, with its buffers, in both directions
    tree = ast.parse((SRC / "kinspace.py").read_text())
    params = [f"{node.name}:{node.lineno} {arg.arg}"
              for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for arg in node.args.posonlyargs + node.args.args
              + node.args.kwonlyargs
              if arg.arg in {"adjoint", "act"}]
    assert not params, params
