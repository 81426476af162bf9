import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacobiweil import (AsymmetryError, DomainError, EigenSolverError,
                        Signature, complex_sym, holo_sqrt_det,
                        is_positive_definite, principal_pow_half, real_sym,
                        signature)
from jacobiweil.linalg import SYM_DEFECT_TOL, _inertia


def test_signature_identity():
    assert tuple(signature(np.eye(2))) == (2, 0, 0)


def test_signature_indefinite():
    assert tuple(signature(np.diag([1.0, -1.0]))) == (1, 1, 0)


def test_signature_trace_form():
    # Q(a,b,c) = ab - bc - ca as a Gram matrix; eigendecomposition oracle
    gram = 0.5 * np.array([[0, 1, -1], [1, 0, -1], [-1, -1, 0]], dtype=float)
    w = np.linalg.eigvalsh(gram)
    oracle = (int((w > 1e-12).sum()), int((w < -1e-12).sum()))
    assert oracle == (1, 2)
    sig = signature(gram)
    assert tuple(sig) == (1, 2, 0)
    assert sig.net == -1


def test_signature_sylvester_congruence(rng):
    for _ in range(50):
        k = rng.integers(2, 6)
        q = rng.normal(size=(k, k))
        q = q + q.T
        p = rng.normal(size=(k, k))
        while abs(np.linalg.det(p)) < 0.1:
            p = rng.normal(size=(k, k))
        assert tuple(signature(q)) == tuple(signature(p.T @ q @ p))


def test_real_sym_defect():
    with pytest.raises(AsymmetryError):
        real_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_principal_pow_half_examples():
    assert principal_pow_half(1.0, 1) == 1.0
    assert principal_pow_half(-1.0, 1) == pytest.approx(1j)
    # (-i)^{1/2} = e^{-i pi/4}; squared gives -i
    assert principal_pow_half(-1j, 2) == pytest.approx(-1j)


def test_principal_pow_half_zero():
    assert principal_pow_half(0.0, 3) == 0.0
    assert principal_pow_half(0.0, 0) == 1.0
    with pytest.raises(DomainError):
        principal_pow_half(0.0, -1)


@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False))
def test_principal_pow_half_square(z):
    assert abs(principal_pow_half(z, 2) - z) <= 1e-14 * abs(z)


@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False))
def test_principal_pow_half_branch_range(z):
    root = principal_pow_half(z, 1)
    arg = math.atan2(root.imag, root.real)
    assert -math.pi / 2 - 1e-12 < arg <= math.pi / 2 + 1e-12


def test_holo_sqrt_det_real_cases():
    assert holo_sqrt_det(np.eye(3)) == pytest.approx(1.0)
    assert holo_sqrt_det(np.diag([4.0, 1.0])) == pytest.approx(2.0)


def _path_continuation_oracle(s, steps=400):
    """Track det^{1/2} continuously along the segment from I to S."""
    n = s.shape[0]
    val = 1.0 + 0j
    prev_det = 1.0 + 0j
    for k in range(1, steps + 1):
        sk = np.eye(n) + (s - np.eye(n)) * (k / steps)
        det = np.linalg.det(sk)
        ratio = det / prev_det
        val *= np.sqrt(ratio)  # |arg ratio| < pi for small steps
        prev_det = det
    return val


def test_holo_sqrt_det_path_oracle():
    s = (1 + 1j) * np.eye(2)
    oracle = _path_continuation_oracle(s)
    assert holo_sqrt_det(s) == pytest.approx(oracle, abs=1e-8)
    # product of principal roots of eigenvalues, explicitly
    assert holo_sqrt_det(s) == pytest.approx((np.sqrt(1 + 1j)) ** 2)


def test_holo_sqrt_det_square_property(rng):
    for _ in range(60):
        n = rng.integers(1, 4)
        a = rng.normal(size=(n, n))
        re = a @ a.T + 0.3 * np.eye(n)
        im = rng.normal(size=(n, n))
        s = re + 1j * (im + im.T)
        d = holo_sqrt_det(s)
        assert abs(d * d - np.linalg.det(s)) <= 1e-10 * max(1.0, abs(np.linalg.det(s)))


def test_holo_sqrt_det_path_continuity(rng):
    # phase steps along a sampled path stay below pi/2
    n = 2
    a = rng.normal(size=(n, n))
    s0 = a @ a.T + np.eye(n)
    s1 = s0 + 1j * np.array([[0.9, 0.2], [0.2, -0.7]])
    prev = holo_sqrt_det(s0)
    for k in range(1, 121):
        sk = s0 + (s1 - s0) * (k / 120)
        cur = holo_sqrt_det(sk)
        assert abs(np.angle(cur / prev)) < math.pi / 2
        prev = cur


def test_holo_sqrt_det_domain():
    with pytest.raises(DomainError):
        holo_sqrt_det(np.diag([-1.0 + 0j, 1.0]))


def test_is_positive_definite():
    assert is_positive_definite(np.eye(2))
    assert not is_positive_definite(np.diag([1.0, -1.0]))
    assert is_positive_definite(np.array([[2.0, 1.0], [1.0, 2.0]]))


# --- the validators against their first versions ---------------------------
# Reference copies of the validators as first written (two reductions with
# np.max(..., initial=0.0), vectorised counting and np.min), kept to pin the
# cheaper versions to the same return values and exceptions.


def _ref_sym(a, dtype, defect_tol):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    defect = np.max(np.abs(a - a.T), initial=0.0)
    scale = max(1.0, np.max(np.abs(a), initial=0.0))
    if defect > defect_tol * scale:
        raise AsymmetryError(f"asymmetry defect {defect:.3e} exceeds {defect_tol:.1e}")
    return 0.5 * (a + a.T)


def _ref_signature(q):
    q = _ref_sym(q, float, SYM_DEFECT_TOL)
    try:
        w = np.linalg.eigvalsh(q)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigvalsh did not converge: {exc}", q) from exc
    zero_tol = 1e-9 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    pos = int(np.sum(w > zero_tol))
    neg = int(np.sum(w < -zero_tol))
    return Signature(pos, neg, q.shape[0] - pos - neg)


def _ref_is_positive_definite(y):
    y = _ref_sym(y, float, SYM_DEFECT_TOL)
    try:
        w = np.linalg.eigvalsh(y)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigvalsh did not converge: {exc}", y) from exc
    return bool(np.min(w) > 1e-12)


def _outcome(fn, *args):
    """(True, value) or (False, exception type, message)."""
    with np.errstate(all="ignore"):
        try:
            return True, fn(*args)
        except (ValueError, RuntimeError) as exc:
            return False, type(exc), str(exc)


def _same(new, ref):
    assert new[0] == ref[0], (new, ref)
    if not ref[0]:
        assert new[1] is ref[1]
        # numpy's own messages may name the solver's internals; ours must match
        if ref[1] is not EigenSolverError:
            assert new[2] == ref[2]
        return
    got, want = new[1], ref[1]
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, list):
        assert [type(v) for v in got] == [type(v) for v in want] and got == want
    else:
        assert type(got) is type(want) and got == want


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300])
_ENTRY = st.one_of(st.floats(-100, 100), st.integers(-3, 3).map(float),
                   st.floats(-100, 100), _SPECIAL)


@st.composite
def _square_matrices(draw):
    """Square real matrices of size 0..9: symmetric, low rank (exact zero
    eigenvalues), asymmetric at 0.5x and 2x the defect tolerance, or raw."""
    k = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["symmetric", "low-rank", "asym-0.5", "asym-2", "raw"]))
    entries = [draw(_ENTRY) for _ in range(k * k)]
    a = np.array(entries, dtype=float).reshape(k, k)
    if kind == "raw":
        return a
    if kind == "low-rank":
        rank = draw(st.integers(0, k))
        v = a[:, :rank]
        with np.errstate(all="ignore"):
            return v @ np.diag(np.sign(np.arange(rank) % 2 - 0.5)) @ v.T
    a = np.triu(a) + np.triu(a, 1).T
    if kind.startswith("asym") and k >= 2:
        i, j = draw(st.sampled_from([(r, c) for r in range(k) for c in range(k) if r != c]))
        factor = 0.5 if kind == "asym-0.5" else 2.0
        with np.errstate(all="ignore"):
            scale = max(1.0, float(np.max(np.abs(a))))
            a[i, j] += factor * SYM_DEFECT_TOL * scale
    return a


def _nan_with_infinite_asymmetry():
    """4 x 4 zeros but a[3, 0] = nan and b[0, 3] = inf: z = a + ib has an
    infinite asymmetry defect, and max|z| is NaN."""
    a, b = np.zeros((4, 4)), np.zeros((4, 4))
    a[3, 0], b[0, 3] = math.nan, math.inf
    return a, b


@settings(max_examples=400, deadline=None)
@given(_square_matrices(), _square_matrices())
@example(*_nan_with_infinite_asymmetry())
def test_validators_match_first_versions(a, b):
    _same(_outcome(real_sym, a), _outcome(_ref_sym, a, float, SYM_DEFECT_TOL))
    if a.shape == b.shape:
        with np.errstate(all="ignore"):
            z = a + 1j * b
        _same(_outcome(complex_sym, z), _outcome(_ref_sym, z, complex, SYM_DEFECT_TOL))
    _same(_outcome(signature, a), _outcome(_ref_signature, a))
    _same(_outcome(is_positive_definite, a), _outcome(_ref_is_positive_definite, a))
    stack = [a, b, a.T] if a.shape == b.shape else [a]
    _same(_outcome(_stacked_signatures, stack), _outcome(_ref_signatures, stack))


def test_nan_entry_leaves_the_asymmetry_scale_at_one():
    # the first version's scale max(1.0, nan) is 1.0, so the infinite defect
    # is over the threshold
    a, b = _nan_with_infinite_asymmetry()
    with np.errstate(all="ignore"):
        z = a + 1j * b
        with pytest.raises(AsymmetryError, match="asymmetry defect inf exceeds"):
            complex_sym(z)


def _stacked_signatures(stack):
    """The signatures of a stack from one ``_inertia`` call, as Signature objects."""
    pos, neg = _inertia(np.array(stack))
    k = stack[0].shape[0]
    return [Signature(p, q, k - p - q) for p, q in zip(pos.tolist(), neg.tolist())]


def _ref_signatures(stack):
    """``_ref_signature`` matrix by matrix; the symmetry rule runs on every
    matrix before any eigenvalues are computed, as in one stacked call."""
    for a in stack:
        _ref_sym(a, float, SYM_DEFECT_TOL)
    return [_ref_signature(a) for a in stack]


def test_validators_edge_cases():
    empty = np.zeros((0, 0))
    assert real_sym(empty).shape == (0, 0) and complex_sym(empty).dtype == complex
    assert tuple(signature(empty)) == (0, 0, 0)
    with pytest.raises(ValueError):
        is_positive_definite(empty)
    # a NaN eigenvalue anywhere makes the matrix not positive definite
    with np.errstate(all="ignore"):
        assert not is_positive_definite(np.diag([1.0, 2.0, math.inf]))
    with pytest.raises(DomainError):
        real_sym(np.zeros((2, 3)))
    # each matrix of a stack has its own zero threshold and its own defect
    pos, neg = _inertia(np.array([np.diag([1e-3, -1.0]), np.diag([1e7, 1.0])]))
    assert pos.tolist() == [1, 2] and neg.tolist() == [1, 0]
    with pytest.raises(AsymmetryError, match="asymmetry defect 1.000e-06 exceeds"):
        _inertia(np.array([[[1e3, 0.0], [0.0, 1.0]], [[1.0, 1e-6], [0.0, 1.0]]]))
    tol = SYM_DEFECT_TOL
    real_sym(np.array([[0.0, 0.5 * tol], [0.0, 0.0]]))
    with pytest.raises(AsymmetryError):
        real_sym(np.array([[0.0, 2 * tol], [0.0, 0.0]]))


@pytest.mark.parametrize("w", [[0.5, math.nan, 3.0], [-40.0, math.nan, 1e-8],
                               [math.nan, 1.0, 2.0], [1.0, 2.0, math.nan],
                               [math.nan, math.nan, math.nan]])
def test_validators_nan_eigenvalues_match_first_versions(w, monkeypatch):
    # LAPACK returns some NaN eigenvalues, unsorted among the finite ones, for
    # non-finite input; the solver is replaced so the check does not depend on
    # which inputs a given LAPACK build does that for
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array(w))
    q = np.eye(3)
    _same(_outcome(signature, q), _outcome(_ref_signature, q))
    _same(_outcome(is_positive_definite, q), _outcome(_ref_is_positive_definite, q))
