"""Finite-dimensional Krein spaces and operators on them.

A Krein space is realized as C^dim with the indefinite inner product

    {v, w} = sum_i s_i conj(v_i) w_i,      s_i in {+1, -1},

conjugate-linear in the FIRST argument and linear in the second. The
coordinate basis is the adapted orthonormal basis of the fixed
decomposition; alternative decompositions are represented by conjugating
operators with adapted isometries rather than by re-basing.

Operators are square matrices tagged ``linear`` (v -> M v) or
``conjugate-linear`` (v -> M conj(v)). In finite dimension every operator
is trace class, so trace-class and conjugate-anti-symmetric are predicates
here, not separate types.

All values are immutable after construction and all operations are pure
functions, so they are safe to share across concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

LINEAR = "linear"
CONJUGATE_LINEAR = "conjugate-linear"


class HypothesisViolationError(ValueError):
    """A closed-form route was invoked outside its operator-norm hypothesis."""


@dataclass(frozen=True)
class KreinSpace:
    """Dimension plus +-1 signature fixing the adapted basis and inner product."""

    dim: int
    signature: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.signature) != self.dim:
            raise ValueError(
                f"signature length {len(self.signature)} != dim {self.dim}"
            )
        if any(s not in (-1, 1) for s in self.signature):
            raise ValueError("signature entries must be +1 or -1")

    @classmethod
    def from_string(cls, text: str) -> "KreinSpace":
        """Parse a signature string such as ``"++--"`` (spaces ignored)."""
        chars = [c for c in text if not c.isspace()]
        if not chars or any(c not in "+-" for c in chars):
            raise ValueError(f"invalid signature string {text!r}")
        sig = tuple(1 if c == "+" else -1 for c in chars)
        return cls(len(sig), sig)

    @cached_property
    def signs(self) -> np.ndarray:
        s = np.array(self.signature, dtype=float)
        s.setflags(write=False)
        return s

    @cached_property
    def plus_indices(self) -> np.ndarray:
        idx = np.flatnonzero(self.signs > 0)
        idx.setflags(write=False)
        return idx

    @cached_property
    def minus_indices(self) -> np.ndarray:
        idx = np.flatnonzero(self.signs < 0)
        idx.setflags(write=False)
        return idx

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=complex)
        e[i] = 1.0
        return e

    def is_balanced(self) -> bool:
        return len(self.plus_indices) == len(self.minus_indices)


class KOperator:
    """Square matrix acting as v -> M v (linear) or v -> M conj(v)."""

    __slots__ = ("matrix", "linearity")

    def __init__(self, matrix, linearity: str = LINEAR):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if linearity not in (LINEAR, CONJUGATE_LINEAR):
            raise ValueError(f"unknown linearity {linearity!r}")
        m.setflags(write=False)
        self.matrix = m
        self.linearity = linearity

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_linear(self) -> bool:
        return self.linearity == LINEAR

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        return self.matrix @ (v if self.is_linear else np.conj(v))

    def apply_columns(self, cols: np.ndarray) -> np.ndarray:
        """Apply to every column of a (dim, k) array at once."""
        return self.matrix @ (cols if self.is_linear else np.conj(cols))

    def __repr__(self):
        return f"KOperator(dim={self.dim}, linearity={self.linearity!r})"


def inner(space: KreinSpace, v, w) -> complex:
    """{v, w}: conjugate-linear in v, linear in w, Hermitian."""
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if v.shape != (space.dim,) or w.shape != (space.dim,):
        raise ValueError("vector dimension does not match the space")
    return complex(np.sum(space.signs * np.conj(v) * w))


def trace(space: KreinSpace, op: KOperator) -> complex:
    """Basis-independent trace; defined for linear operators only.

    In the adapted basis the signature factors cancel, leaving sum_i M_ii.
    """
    _check_op(space, op)
    if not op.is_linear:
        raise ValueError("trace is defined for linear operators only")
    return complex(np.trace(op.matrix))


def adjoint(space: KreinSpace, op: KOperator) -> KOperator:
    """Krein adjoint b* with {b* v, w} = {v, b w}; equals S M^H S."""
    _check_op(space, op)
    if not op.is_linear:
        raise ValueError("adjoint is defined for linear operators only")
    return KOperator(adjoint_matrix(space, op.matrix), LINEAR)


def adjoint_matrix(space: KreinSpace, m: np.ndarray) -> np.ndarray:
    s = space.signs
    return s[:, None] * np.conj(m).T * s[None, :]


def compose(a: KOperator, b: KOperator) -> KOperator:
    """The composite a(b(v)) with the induced linearity.

    A composite is linear when the factors have equal linearity and
    conjugate-linear otherwise; a conjugate-linear b contributes its matrix
    conjugated through the inner conj.
    """
    if a.dim != b.dim:
        raise ValueError("operator dimensions do not match")
    if a.is_linear:
        m = a.matrix @ b.matrix
        lin = b.linearity
    else:
        m = a.matrix @ np.conj(b.matrix)
        lin = CONJUGATE_LINEAR if b.is_linear else LINEAR
    return KOperator(m, lin)


def scale_i(op: KOperator) -> KOperator:
    """i * Lambda for conjugate-linear Lambda: (i Lambda)(v) = i (Lambda v)."""
    if op.is_linear:
        raise ValueError("scale_i acts on conjugate-linear operators only")
    return KOperator(1j * op.matrix, CONJUGATE_LINEAR)


def is_conj_antisymmetric(space: KreinSpace, op, tol: float = 1e-10) -> bool:
    """Whether {v, op w} = -{w, op v} for all v, w.

    In coordinates this is complex antisymmetry of S M for a
    conjugate-linear operator; linear operators never qualify.
    """
    if isinstance(op, KOperator):
        if op.is_linear:
            return False
        m = op.matrix
    else:
        m = np.asarray(op, dtype=complex)
    if m.shape != (space.dim, space.dim):
        raise ValueError("operator dimension does not match the space")
    sm = space.signs[:, None] * m
    return bool(np.max(np.abs(sm + sm.T)) <= tol)


@dataclass(frozen=True)
class StructuralPredicates:
    real_isometry: bool
    real_anti_isometry: bool
    involution: bool
    adapted: bool
    real_antisymmetric: bool


def structural_predicates(
    space: KreinSpace, op: KOperator, tol: float = 1e-10
) -> StructuralPredicates:
    """Evaluate the real-structure predicates from their definitions.

    Re{., .} is real-bilinear, so each identity is checked on the real
    basis {e_1..e_d, i e_1..i e_d}. Its image is [M, eps i M], eps = +1 for
    a linear and -1 for a conjugate-linear operator, so with S = diag(s)
    every entry of the 2d x 2d Gram matrices on that basis is an entry of
    G = M^H S M or of S M = R + i I:

    * real isometry, Re{op v, op w} = Re{v, w}: max(|Re G - S|, |Im G|);
    * real anti-isometry, Re{op v, op w} = -Re{v, w}: max(|Re G + S|, |Im G|);
    * real antisymmetry, Re{v, op w} = -Re{w, op v}:
      max(|R + R^T|, |I - eps I^T|);

    each at most ``tol``. ``adapted`` means: preserves the decomposition if
    a real isometry, interchanges it if a real anti-isometry.
    """
    _check_op(space, op)
    d = space.dim
    m = op.matrix
    s = space.signs
    sm = s[:, None] * m
    gram = np.conj(m).T @ sm
    im_dev = np.max(np.abs(gram.imag))
    isometry = max(np.max(np.abs(gram.real - np.diag(s))), im_dev) <= tol
    anti_isometry = max(np.max(np.abs(gram.real + np.diag(s))), im_dev) <= tol
    eps = 1.0 if op.is_linear else -1.0
    antisymmetric = max(
        np.max(np.abs(sm.real + sm.real.T)), np.max(np.abs(sm.imag - eps * sm.imag.T))
    ) <= tol

    sq = compose(op, op)
    involution = sq.is_linear and np.max(np.abs(sq.matrix - np.eye(d))) <= tol

    p, q = space.plus_indices, space.minus_indices
    off = max(
        np.max(np.abs(m[np.ix_(p, q)])) if p.size and q.size else 0.0,
        np.max(np.abs(m[np.ix_(q, p)])) if p.size and q.size else 0.0,
    )
    diag = max(
        np.max(np.abs(m[np.ix_(p, p)])) if p.size else 0.0,
        np.max(np.abs(m[np.ix_(q, q)])) if q.size else 0.0,
    )
    adapted = (isometry and off <= tol) or (anti_isometry and diag <= tol)

    return StructuralPredicates(
        real_isometry=bool(isometry),
        real_anti_isometry=bool(anti_isometry),
        involution=bool(involution),
        adapted=bool(adapted),
        real_antisymmetric=bool(antisymmetric),
    )


def operator_norm(op) -> float:
    """Largest singular value; conjugation leaves singular values unchanged,
    so the same rule serves linear and conjugate-linear operators. The first
    singular value is bit for bit ``np.linalg.norm(m, 2)``; 0 x 0 gives 0."""
    m = op.matrix if isinstance(op, KOperator) else np.asarray(op, dtype=complex)
    values = np.linalg.svd(m, compute_uv=False)
    return float(values[0]) if values.size else 0.0


def _check_op(space: KreinSpace, op: KOperator) -> None:
    if op.dim != space.dim:
        raise ValueError("operator dimension does not match the space")
