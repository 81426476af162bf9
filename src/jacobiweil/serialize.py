"""JSON encodings shared by the library and the CLI.

Complex numbers encode as [re, im]; matrices as row-major nested lists.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DomainError
from .groups import (HeisenbergElement, JacobiElement, SiegelJacobiPoint,
                     SymplecticElement, _one_point)
from .states import GaussianState


def encode_complex(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def decode_real(v) -> float:
    """A finite JSON number as a float.  Bools (an int subclass), strings, the NaN and
    Infinity that json.loads reads, and ints beyond the float range raise DomainError."""
    if type(v) in (int, float) and abs(v) <= sys.float_info.max:
        return float(v)
    raise DomainError(f"expected a finite real number, got {v!r}")


def decode_complex(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(decode_real(v[0]), decode_real(v[1]))
    if type(v) in (int, float):
        return complex(decode_real(v))
    raise DomainError(f"cannot decode complex from {v!r}")


def encode_matrix(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return [[encode_complex(v) for v in row] for row in a]
    return [[float(v) for v in row] for row in a]


def _rows(rows) -> list:
    """A JSON matrix's rows: a list of lists of one length; anything else raises DomainError."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and len({len(row) for row in rows}) <= 1):
        raise DomainError(f"expected a matrix as a list of rows of equal length, got {rows!r}")
    return rows


def decode_real_matrix(rows) -> np.ndarray:
    return np.array([[decode_real(v) for v in row] for row in _rows(rows)], dtype=float)


def decode_complex_matrix(rows, shape: tuple | None = None) -> np.ndarray:
    """Decode a complex matrix (entries as [re, im] pairs or real scalars).

    With ``shape`` given, a flat-scalar layout whose strict reading does not
    match is re-read by pairing consecutive scalars as (re, im); this accepts
    the shorthand [[0, 1]] for the 1x1 matrix [[i]].
    """
    rows = _rows(rows)
    try:
        out = np.array([[decode_complex(v) for v in row] for row in rows], dtype=complex)
    except DomainError:
        out = None
    if shape is None:
        if out is None:
            raise DomainError(f"cannot decode complex matrix from {rows!r}")
        return out
    if out is not None and out.shape == tuple(shape):
        return out
    # an object array keeps each JSON value as read, for decode_real to check
    flat = [decode_real(v) for row in rows for v in np.ravel(np.asarray(row, dtype=object))]
    r, c = shape
    if len(flat) == 2 * r * c:
        pairs = np.array(flat).reshape(r, c, 2)
        return pairs[..., 0] + 1j * pairs[..., 1]
    raise DomainError(f"cannot decode a {shape} complex matrix from {rows!r}")


def encode_word(word):
    """A generator word as a list of [kind, parameter] pairs, a null parameter for sigma."""
    return [[kind, None if par is None else encode_matrix(par)] for kind, par in word]


def decode_word(spec) -> list:
    """The letters (kind, parameter) of a JSON word.  A sigma parameter is passed on
    as read, for ``groups._letter`` to refuse anything but null."""
    if not (isinstance(spec, list)
            and all(isinstance(item, list) and len(item) == 2 for item in spec)):
        raise DomainError("word must be a list of [kind, parameter] pairs")
    return [(kind, par if par is None or kind == "sigma" else decode_real_matrix(par))
            for kind, par in spec]


def encode_heisenberg(h: HeisenbergElement):
    return {"lambda": encode_matrix(h.lam), "mu": encode_matrix(h.mu),
            "kappa": encode_matrix(h.kappa)}


def decode_heisenberg(obj) -> HeisenbergElement:
    return HeisenbergElement(decode_real_matrix(obj["lambda"]),
                             decode_real_matrix(obj["mu"]),
                             decode_real_matrix(obj["kappa"]))


def encode_symplectic(g: SymplecticElement):
    return {"matrix": encode_matrix(g.g)}


def decode_symplectic(obj) -> SymplecticElement:
    return SymplecticElement(decode_real_matrix(obj["matrix"]))


def encode_jacobi(elt: JacobiElement):
    return {"g": encode_symplectic(elt.g), "h": encode_heisenberg(elt.h)}


def decode_jacobi(obj) -> JacobiElement:
    return JacobiElement(decode_symplectic(obj["g"]), decode_heisenberg(obj["h"]))


def encode_point(p: SiegelJacobiPoint):
    return {"omega": encode_matrix(_one_point(p).omega), "z": encode_matrix(p.z)}


def decode_point(obj) -> SiegelJacobiPoint:
    return SiegelJacobiPoint(decode_complex_matrix(obj["omega"]),
                             decode_complex_matrix(obj["z"]))


def encode_state(f: GaussianState):
    return {"c": encode_complex(f.c), "A": encode_matrix(f.a), "B": encode_matrix(f.b)}


def decode_state(obj) -> GaussianState:
    return GaussianState(decode_complex(obj["c"]),
                         decode_complex_matrix(obj["A"]),
                         decode_complex_matrix(obj["B"]))
