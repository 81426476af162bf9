"""One integer rule, ``errors._integer``, behind every integer a public function reads.

The probes are inputs that ``int()`` would truncate (2.7), read as 1 (True) or
that a float comparison would round (1.000001): each is refused with
``DomainError`` and no numpy warning.  The guard parses each package module
with ``ast`` (the files are only read) and fails on a function that passes
one of its own parameters to a bare ``int()``; ``errors._integer`` is the one
function allowed to.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from jacobiweil import DomainError, kronecker_symbol, principal_pow_half, theta_multiplier
from jacobiweil.automorphy import epsilon_d
from jacobiweil.fock import FockState

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jacobiweil"

PROBES = {
    "kronecker c float": (lambda: kronecker_symbol(2.7, 5), "c must be an integer, got 2.7"),
    "kronecker c bool": (lambda: kronecker_symbol(True, 3), "c must be an integer, got True"),
    "kronecker d float": (lambda: kronecker_symbol(2, 5.0), "d must be an integer, got 5.0"),
    "epsilon_d float": (lambda: epsilon_d(3.9), "d must be an integer, got 3.9"),
    "half-power exponent": (lambda: principal_pow_half(-4, 1.5),
                            "kappa must be an integer, got 1.5"),
    "fock float entry": (lambda: FockState((1, 1), {(1.7,): 1}),
                         "multi-index entry must be an integer >= 0, got 1.7"),
    "fock negative entry": (lambda: FockState((1, 1), {(-1,): 1}),
                            "multi-index entry must be an integer >= 0, got -1"),
    "gamma near integer": (lambda: theta_multiplier([[1.000001, 0], [0, 1]], 1j),
                           "gamma must be an integer matrix"),
    "gamma infinite": (lambda: theta_multiplier([[np.inf, 0], [0, 1]], 1j),
                       "gamma must be an integer matrix"),
    "gamma bool": (lambda: theta_multiplier(np.eye(2, dtype=bool), 1j),
                   "gamma must be an integer matrix"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_integer_probes_are_refused(probe):
    call, message = PROBES[probe]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_integers_keep_their_values():
    assert kronecker_symbol(np.int64(2), np.int64(5)) == kronecker_symbol(2, 5) == -1
    assert epsilon_d(np.int64(3)) == 1j
    assert principal_pow_half(-4, np.int64(3)) == principal_pow_half(-4, 3)
    assert FockState((1, 1), {(np.int64(1),): 1}).coeffs == {(1,): 1}
    tau = 0.3 + 1.1j
    ints = np.array([[1, 1], [4, 5]])
    assert theta_multiplier(ints.astype(float), tau) == theta_multiplier(ints, tau)
    # a float entry past 2**63 is an exact integer, worked on as a Python int
    assert theta_multiplier([[1, 2e19], [0, 1]], tau) == 1


def _int_of_a_parameter(tree) -> list[tuple[str, str, int]]:
    """Each bare ``int(p)`` call with p a parameter of its enclosing function,
    as (function, parameter, line)."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = func.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            params |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "int"):
                    found += [(func.name, arg.id, node.lineno) for arg in node.args
                              if isinstance(arg, ast.Name) and arg.id in params]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_bare_int_of_a_parameter(module):
    found = _int_of_a_parameter(ast.parse((PACKAGE / module).read_text(), filename=module))
    if module == "errors.py":
        found = [f for f in found if f[0] != "_integer"]
    assert not found, f"{module}: int() of a parameter, not errors._integer: {found}"


def test_finds_int_of_a_parameter():
    tree = ast.parse("def f(a, *, b):\n    return int(a) + int(b) + int(len(a))\n"
                     "def g(x):\n    y = x\n    return int(y)\n")
    assert _int_of_a_parameter(tree) == [("f", "a", 2), ("f", "b", 2)]
