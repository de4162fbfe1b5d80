"""Dense complex linear algebra for composite quantum systems.

Everything is a plain numpy array (complex128, row-major).  Operators act
on tensor products of small subsystems: a two- or three-level electronic
manifold followed by one or two motional modes truncated to ``n_max`` Fock
states.  The subsystem order is fixed package-wide as electronic first,
then the motional modes in (x, y) order.

Two-level basis order is (ground, excited), so the excited state is the
+1 eigenvector of :func:`sigma_z`.  The three-level basis order is
(ground, e, f).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

__all__ = [
    "SpaceLayout",
    "kron",
    "partial_trace",
    "destroy",
    "number_op",
    "ketbra",
    "sigma_z",
    "sigma_minus",
    "sigma_plus",
    "vacuum_state",
    "hermiticity_defect",
    "is_hermitian",
]


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, left to right.

    Each product is one broadcast multiply into (rows, rows, cols, cols)
    order and a reshape: every entry is the single product x[i, j] *
    y[k, l], as in ``np.kron``, without its generic n-d path.
    """
    if not ops:
        raise ValueError("kron needs at least one operator")
    return reduce(_kron2, ops)


def _kron2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x, y = np.asarray(x), np.asarray(y)
    (r1, c1), (r2, c2) = x.shape, y.shape
    return np.multiply(x[:, None, :, None], y[:, None, :]).reshape(r1 * r2, c1 * c2)


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered subsystem dimensions of a composite Hilbert space.

    ``SpaceLayout((2, 6, 6))`` describes a two-level system together with
    two motional modes truncated at 6 Fock states each.  Each dimension
    passes :func:`_truncation`: a float, even 6.0, raises ``ValueError``.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(_truncation(d, "subsystem dimension") for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid subsystem dimensions {self.dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension (product of subsystem dims)."""
        return math.prod(self.dims)

    def embed(self, op: np.ndarray, site: int) -> np.ndarray:
        """Lift a single-subsystem operator to the full space."""
        if not 0 <= site < len(self.dims):
            raise ValueError(f"site {site} outside layout {self.dims}")
        if op.shape != (self.dims[site], self.dims[site]):
            raise ValueError(
                f"operator shape {op.shape} does not match subsystem "
                f"dimension {self.dims[site]}"
            )
        factors = [
            op if i == site else np.eye(d, dtype=complex)
            for i, d in enumerate(self.dims)
        ]
        return kron(*factors)


def partial_trace(
    rho: np.ndarray, layout: SpaceLayout, keep: Iterable[int]
) -> np.ndarray:
    """Reduced state over the kept subsystems; preserves the trace."""
    dims = layout.dims
    n = len(dims)
    if rho.shape != (layout.dim, layout.dim):
        raise ValueError(
            f"state shape {rho.shape} does not match layout dimension {layout.dim}"
        )
    kept = tuple(sorted(set(int(k) for k in keep)))
    if not kept or kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep set {kept} outside layout {dims}")
    reshaped = rho.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in kept else i for i in range(n)]
    out = [i for i in kept] + [n + i for i in kept]
    reduced = np.einsum(reshaped, row + col, out)
    kdim = math.prod(dims[i] for i in kept)
    return reduced.reshape(kdim, kdim)


def _truncation(n_max, name: str = "Fock truncation") -> int:
    """``n_max`` as an ``int``; a value that ``operator.index`` refuses (a
    float, even 6.0) raises ``ValueError`` naming it ``name``.  NumPy
    integers pass."""
    try:
        return operator.index(n_max)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n_max!r}") from None


def destroy(n_max: int) -> np.ndarray:
    """Bosonic lowering operator on a ladder truncated at ``n_max`` states.

    Matrix elements are ``a[n-1, n] = sqrt(n)``.  Note the truncation
    artifact ``[a, a^dag][n_max-1, n_max-1] = -(n_max - 1)``.
    """
    if _truncation(n_max) < 2:
        raise ValueError(f"Fock truncation must be at least 2, got {n_max}")
    return np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), 1).astype(complex)


def number_op(n_max: int) -> np.ndarray:
    """Photon-number operator diag(0, 1, ..., n_max - 1)."""
    if _truncation(n_max) < 2:
        raise ValueError(f"Fock truncation must be at least 2, got {n_max}")
    return np.diag(np.arange(n_max, dtype=float)).astype(complex)


def ketbra(dim: int, i: int, j: int) -> np.ndarray:
    """The operator |i><j| on a ``dim``-dimensional space; ``dim`` passes
    :func:`_truncation`."""
    dim = _truncation(dim, "dimension")
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"indices ({i}, {j}) outside dimension {dim}")
    op = np.zeros((dim, dim), dtype=complex)
    op[i, j] = 1.0
    return op


def sigma_z() -> np.ndarray:
    """Pauli z in the (ground, excited) basis: diag(-1, +1)."""
    return np.diag([-1.0, 1.0]).astype(complex)


def sigma_minus() -> np.ndarray:
    """Electronic lowering operator |g><e|."""
    return ketbra(2, 0, 1)


def sigma_plus() -> np.ndarray:
    """Electronic raising operator |e><g|."""
    return ketbra(2, 1, 0)


def vacuum_state(n_max: int) -> np.ndarray:
    """Fock vacuum |0><0| on a truncated ladder."""
    return ketbra(_truncation(n_max), 0, 0)


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest elementwise deviation from a = a^dag."""
    return float(np.abs(a - a.conj().T).max())


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    return a.shape[0] == a.shape[1] and hermiticity_defect(a) <= tol

