"""Finite-dimensional kinematical Hilbert spaces with a cyclic translation group.

The continuum translation group R is replaced by the cyclic group Z_N on each
frame factor.  A frame factor of dimension N and momentum spacing ``dp``
carries momentum eigenvalues ``k*dp`` for ``k in [-N/2, N/2)`` and a dual
orientation grid of spacing ``dr = 2*pi*hbar/(N*dp)``.  Momentum sums are
taken modulo the lattice period ``P = N*dp`` (reduced to the symmetric window
``[-P/2, P/2)``), which is what makes coherent group averaging an honest
orthogonal projector and the gauge identities exact at machine precision.

All objects are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count
from math import ceil, isfinite, prod
from operator import index

import numpy as np

from .errors import (
    ConfigError,
    DenseBudgetExceeded,
    EmptyKernel,
    IllConditionedFlow,
    IncommensurableSpectrum,
    IndexOutOfRange,
    NegativeGenerator,
    NotAFrameFactor,
    NotPhysical,
    UnsupportedForm,
    UnsupportedSupport,
)

# Tolerances, one decision each (commensurate inputs give exact zeros and
# lattice points, so a near-threshold hit is a modelling mistake):
HERM_TOL = 1e-12      # hermitian, and acting as 1 on a factor (``support``)
KERNEL_RTOL = 1e-9    # v counts as zero (``_is_zero``)
_LATTICE_TOL = 1e-9   # v lies on dp*Z (``_off_lattice``)
PHYS_RTOL = 1e-9      # psi is physical: ||C psi|| <= PHYS_RTOL * ||psi||
_VANISH_RTOL = 1e-14  # Pi psi or <bra|ket> vanishes: <= it times the norms
# unit columns per block where a check reads an operator column by column
_COLUMN_BLOCK = 256
MAX_EXPONENT = 50.0   # the largest exponent ``KinOperator.exp`` accepts
# entries a dense D x D form may hold (2^26 complex entries are 1 GiB)
DENSE_BUDGET = 2 ** 26

FRAME = "frame"
SYSTEM = "system"


@dataclass(frozen=True, eq=False)
class FactorSpec:
    """One tensor factor: either a frame (cyclic momentum lattice) or a system.

    Frame factors have even dimension N >= 4 and momentum eigenvalues
    ``k*dp``.  System factors are specified in the eigenbasis of their
    transformation generator: ``generator_spectrum`` holds its eigenvalues.
    """

    kind: str
    N: int
    dp: float
    generator_spectrum: np.ndarray
    name: str = ""

    @staticmethod
    def frame(N: int, dp: float = 1.0, name: str = "") -> "FactorSpec":
        N = integer("frame dimension", N)
        if N < 4 or N % 2 != 0:
            raise ConfigError(
                f"frame dimension must be even and >= 4, got {N}")
        dp = positive_finite("momentum spacing dp", dp)
        spectrum = dp * np.arange(-N // 2, N // 2, dtype=float)
        return FactorSpec(FRAME, N, dp, spectrum, name=name)

    @staticmethod
    def system(generator_spectrum, name: str = "") -> "FactorSpec":
        spectrum = np.asarray(generator_spectrum, dtype=float)
        if spectrum.ndim != 1 or spectrum.size == 0:
            raise ConfigError("system spectrum must be a non-empty 1d sequence")
        if not np.all(np.isfinite(spectrum)):
            raise ConfigError("system spectrum must be finite")
        return FactorSpec(SYSTEM, spectrum.size, 0.0, spectrum, name=name)

    @property
    def is_frame(self) -> bool:
        return self.kind == FRAME


@dataclass(frozen=True, eq=False)
class LatticeSpace:
    """Tensor product of frame and system factors.

    The computational basis of each frame factor is its momentum basis; the
    computational basis of a system factor diagonalizes its transformation
    generator.  ``hbar`` is a configurable positive real.
    """

    factors: tuple
    hbar: float = 1.0

    @cached_property
    def dims(self) -> tuple:
        return tuple(f.N for f in self.factors)

    @cached_property
    def dim(self) -> int:
        return prod(self.dims)

    def _factor(self, factor: int) -> FactorSpec:
        """Factor ``factor``'s spec; IndexOutOfRange outside [0, len(dims))."""
        if not 0 <= factor < len(self.factors):
            raise IndexOutOfRange(
                f"factor {factor} outside [0, {len(self.factors)})")
        return self.factors[factor]

    def _frame(self, factor: int) -> FactorSpec:
        """Factor ``factor``'s spec; NotAFrameFactor unless it is a frame."""
        if not self._factor(factor).is_frame:
            raise NotAFrameFactor(f"factor {factor} is not a frame")
        return self.factors[factor]

    def embed_matrix(self, factor: int, mat: np.ndarray) -> np.ndarray:
        """Lift a factor matrix to the full space (identity elsewhere)."""
        self._factor(factor)
        _check_dense(self.dim)
        out = np.ones((1, 1), dtype=complex)
        for i, f in enumerate(self.factors):
            out = np.kron(out, mat if i == factor else np.eye(f.N))
        return out

    def embed_diag(self, factor: int, diag: np.ndarray) -> np.ndarray:
        """Lift a factor diagonal to a full-space diagonal (cheap)."""
        return self.apply_factor(factor, np.asarray(diag)[:, None],
                                 np.ones(self.dim // self._factor(factor).N))

    @cached_property
    def _around(self) -> tuple:
        """Per factor, (a, b): the products of the dims before and after."""
        return tuple((prod(self.dims[:k]), prod(self.dims[k + 1:]))
                     for k in range(len(self.dims)))

    def apply_factor(self, factor: int, mat: np.ndarray, vec: np.ndarray,
                     out: np.ndarray = None) -> np.ndarray:
        """Apply an m x n matrix on one factor to a vector or a column block
        whose rows carry n in that factor's slot (else ConfigError); m comes
        out there, by ``_contract``.  ``out``, if given, receives the
        result and is returned: a C-contiguous complex array of the
        result's shape that does not overlap ``vec``.  The values are the
        same bits either way.
        """
        self._factor(factor)
        m, n = mat.shape
        a, b = self._around[factor]
        if vec.shape[:1] != (a * n * b,):
            raise ConfigError(f"{vec.shape} input where {a * n * b} rows fit")
        shape = (a * m * b,) + vec.shape[1:]
        if out is None:
            out = np.empty(shape, np.result_type(mat, vec))
        else:
            _check_out(out, shape)
        return _contract(mat, a, b, vec, out)


def _contract(mat: np.ndarray, a: int, b: int, vec: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """out = an m x n ``mat`` on the middle axis of the rows of ``vec``,
    unchecked.  The rows are viewed as (a, n, b*k), k the block width, and
    contracted by one matmul: a row GEMM when b*k == 1, else a GEMM
    batched over the a slices."""
    m, n = mat.shape
    bk = b * prod(vec.shape[1:])
    if bk == 1:
        np.matmul(vec.reshape(a, n), mat.T, out=out.reshape(a, m))
    else:
        np.matmul(mat, vec.reshape(a, n, bk), out=out.reshape(a, m, bk))
    return out


def _check_dense(dim: int) -> None:
    """Raise DenseBudgetExceeded if a D x D form exceeds DENSE_BUDGET."""
    if dim * dim > DENSE_BUDGET:
        raise DenseBudgetExceeded(
            f"a dense {dim} x {dim} form exceeds DENSE_BUDGET = "
            f"{DENSE_BUDGET} entries")


def _check_out(out: np.ndarray, shape: tuple) -> None:
    """Raise ConfigError unless ``out`` is a C-contiguous complex array of
    ``shape``, so that its reshaped views write into ``out`` itself."""
    if not (isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == complex and out.flags.c_contiguous):
        raise ConfigError(
            f"out must be a C-contiguous complex array of shape {shape}")


def positive_finite(name: str, value) -> float:
    """``value`` as a float, or ConfigError unless it is finite and > 0."""
    value = float(value)
    if not (isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def finite(name: str, value):
    """``value`` unchanged, or ConfigError unless every entry is finite."""
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{name} is not finite")
    return value


def integer(name: str, value) -> int:
    """``value`` as an ``int`` (``operator.index``), or ConfigError."""
    try:
        return index(value)
    except TypeError:
        raise ConfigError(f"{name} is not an integer: {value!r}") from None


def tensor_space(factors, hbar: float = 1.0) -> LatticeSpace:
    """Build a lattice space and validate commensurability.

    Every frame factor must share one momentum spacing ``dp``, and every
    system generator eigenvalue must lie on the frame momentum lattice
    ``dp * Z`` so that the constraint kernel is exactly representable.
    """
    factors = tuple(factors)
    hbar = positive_finite("hbar", hbar)
    frame_dps = {f.dp for f in factors if f.is_frame}
    if len(frame_dps) > 1:
        raise IncommensurableSpectrum(
            f"frame factors must share one momentum spacing, got {sorted(frame_dps)}")
    if frame_dps:
        dp = frame_dps.pop()
        for f in factors:
            if f.is_frame:
                continue
            off = _off_lattice(f.generator_spectrum, dp)
            if off.any():
                raise IncommensurableSpectrum(
                    f"system eigenvalue {f.generator_spectrum[off.argmax()]} "
                    f"of factor {f.name or '?'} is off the frame momentum "
                    f"lattice (dp={dp})")
    return LatticeSpace(factors, hbar)


def _off_lattice(values, dp: float) -> np.ndarray:
    """Which ``values`` lie off dp*Z: all but |v/dp - rint(v/dp)| <= 1e-9.
    Within 1e-9 of an integer no other fraction of denominator <= 10**6 is
    nearer, so this is the verdict of the nearest such fraction to v/dp."""
    x = np.asarray(values) / dp
    return ~(np.abs(x - np.rint(x)) <= _LATTICE_TOL)


def _zero_tol(values, rtol: float = KERNEL_RTOL) -> float:
    """rtol * max(1, max |v|): below it a v counts as zero."""
    return rtol * max(float(np.max(np.abs(values))), 1.0)


def _is_zero(values, rtol: float = KERNEL_RTOL) -> np.ndarray:
    """Which entries of ``values`` count as zero, |v| < ``_zero_tol``: the
    kernel of ``group_average``, the support of the model states and the
    warning of ``build_constraint``; the G-twirl classes use the bound."""
    return np.abs(values) < _zero_tol(values, rtol)


def reduced_space(space: LatticeSpace, factor: int) -> LatticeSpace:
    """The space without ``factor``, validated by ``tensor_space``."""
    space._factor(factor)
    return tensor_space(space.factors[:factor] + space.factors[factor + 1:],
                        space.hbar)


@dataclass(frozen=True, eq=False)
class KinOperator:
    """An operator on the full lattice space.

    Exactly one of four forms is stored:

    - ``diag``: the diagonal in the computational basis;
    - ``local`` on ``factor``: an n x n matrix on one tensor factor (identity
      on the others), applied by tensor contraction;
    - a dense D x D matrix;
    - composed: ``operands`` combined by ``kind``, times ``scalar``.  Kind
      ``"@"`` is their product (the rightmost acts first), ``"+"`` their
      sum, ``"twirl"`` is sum_c P_c A P_c for the one operand A, with
      P_c the diagonal projector onto the basis states whose entry in
      ``classes`` is c, and ``"exp"`` is exp(X) for the one operand X, a
      non-diagonal one (``exp`` of a diagonal X is diagonal).

    ``apply`` takes a D-vector or a D x k block of columns (ConfigError
    for other rows); a composed form chains its operands' own applies.
    ``apply(vec, out=o)`` writes the result into ``o``, a C-contiguous
    complex array of ``vec``'s shape that does not overlap ``vec``, and
    returns it, the same bits as ``apply(vec)``.  ``apply_adjoint`` is the
    ``apply`` of ``adjoint``, the adjoint in the same stored form.

    ``A @ B`` and ``A + B`` are diagonal when both operands are diagonal
    and composed otherwise; no product or sum is densified.  Only they,
    ``exp`` and ``relobs.g_twirl`` build a composed form.

    ``matrix`` builds the dense D x D form only when a caller reads it, a
    composed form by its ``apply`` on the blocks of ``_unit_blocks``, and
    raises DenseBudgetExceeded above DENSE_BUDGET (2^26) entries.
    ``hermitian`` and ``support`` (the factors k on which the operator is
    not 1_k (x) B) are computed from the stored form on first use, never
    declared, to the absolute tolerance HERM_TOL.  A composed form's
    ``hermitian`` raises UnsupportedForm rather than build ``matrix``; a
    caller who wants the answer reads ``matrix`` explicitly.  Its
    ``support`` is the union of its operands' supports (and, for a twirl,
    of ``classes``): an upper bound, so a guard on it may refuse an
    operator whose parts cancel on a factor, but never accepts one that
    acts there.
    """

    space: LatticeSpace
    _matrix: np.ndarray = None
    diag: np.ndarray = None
    warnings: tuple = ()
    factor: int = None
    local: np.ndarray = None
    operands: tuple = None
    kind: str = None
    scalar: complex = 1.0
    classes: np.ndarray = None

    def __post_init__(self):
        """ConfigError unless exactly one form is stored and a composed one
        is well formed: a known kind, operands on this space (one for
        ``"exp"`` and ``"twirl"``), and ``classes`` of length D exactly
        for a twirl.  Shapes are checked by the ``from_*`` constructors and
        ``factor_operator``."""
        forms = ((self._matrix is not None) + (self.diag is not None)
                 + (self.local is not None) + (self.operands is not None))
        if forms != 1:
            raise ConfigError(f"{forms} stored forms; a KinOperator stores "
                              "exactly one")
        if self.operands is None:
            if self.kind is not None or self.classes is not None:
                raise ConfigError("kind and classes belong to a composed form")
            return
        ops = self.operands
        if self.kind not in ("@", "+", "twirl", "exp"):
            raise ConfigError(f"unknown composed kind {self.kind!r}")
        if not ops or (self.kind in ("twirl", "exp") and len(ops) != 1):
            raise ConfigError(f"{len(ops)} operands for kind {self.kind!r}")
        if not all(isinstance(op, KinOperator) for op in ops):
            raise ConfigError("operands must be KinOperators")
        _check_space(self.space, *ops)
        twirl = self.kind == "twirl"
        if twirl != (self.classes is not None) or (
                twirl and np.shape(self.classes) != (self.space.dim,)):
            raise ConfigError("a twirl, and only a twirl, takes classes of "
                              f"length {self.space.dim}")

    @staticmethod
    def from_matrix(space, matrix) -> "KinOperator":
        matrix = np.asarray(matrix, dtype=complex).view()
        if matrix.shape != (space.dim, space.dim):
            raise ConfigError(f"matrix {matrix.shape} on a space of {space.dim}")
        matrix.setflags(write=False)
        return KinOperator(space, matrix)

    @staticmethod
    def from_diag(space, diag, *, warnings=()) -> "KinOperator":
        diag = np.asarray(diag, dtype=complex).view()
        if diag.shape != (space.dim,):
            raise ConfigError(f"diagonal {diag.shape} on a space of {space.dim}")
        diag.setflags(write=False)
        return KinOperator(space, None, diag, tuple(warnings))

    @staticmethod
    def _composed(kind: str, operands, classes=None) -> "KinOperator":
        """The composed form of ``operands``; a product operand is spliced
        into a product, and a sum operand with no scalar into a sum."""
        flat, scalar = [], 1.0
        for op in operands:
            if kind in ("@", "+") and op.kind == kind and (
                    kind == "@" or op.scalar == 1):
                flat += op.operands
                scalar = scalar * op.scalar
            else:
                flat.append(op)
        return KinOperator(operands[0].space, operands=tuple(flat),
                           kind=kind, scalar=scalar, classes=classes)

    @staticmethod
    def exp(X: "KinOperator", s) -> "KinOperator":
        """exp(s X): for a diagonal X the diagonal exp(s X_ii), else the kind
        ``"exp"`` on s X / n, n = ceil(|s| ||X||_2) equal factors, Taylor
        steps of norm about 1.  IllConditionedFlow when the exponent is NaN
        or above MAX_EXPONENT: max |Re(s X_ii)| for a diagonal X (a phase
        passes at any s), else |s| ||X||_2 by a power-iteration lower bound."""
        with np.errstate(all="ignore"):  # a non-finite exponent is refused
            z = complex(s) * X.diag if X.is_diagonal else None
        x = (np.max(np.abs(z.real)) if X.is_diagonal
             else abs(s) * _spectral_norm_estimate(X))
        if not x <= MAX_EXPONENT:  # a NaN fails too
            raise IllConditionedFlow(f"exponent {x:.1f} exceeds {MAX_EXPONENT}")
        if X.is_diagonal:
            return KinOperator.from_diag(X.space, np.exp(z))
        n = max(1, ceil(x))
        step = KinOperator._composed("exp", (complex(s) / n * X,))
        return step if n == 1 else KinOperator._composed("@", (step,) * n)

    @property
    def is_diagonal(self) -> bool:
        return self.diag is not None

    @cached_property
    def hermitian(self) -> bool:
        if self.is_diagonal:
            return bool(np.max(np.abs(self.diag.imag)) < HERM_TOL)
        if self.operands is not None:
            raise UnsupportedForm(
                "hermitian is not decided for a composed form; compare its "
                ".matrix with its conjugate transpose explicitly")
        m = self._matrix if self.local is None else self.local
        return bool(np.max(np.abs(m - m.conj().T)) < HERM_TOL)

    @cached_property
    def support(self) -> frozenset:
        if self.local is not None:
            return frozenset({self.factor})
        if self.operands is not None:
            parts = [op.support for op in self.operands]
            if self.classes is not None:
                parts.append(KinOperator.from_diag(self.space,
                                                   self.classes).support)
            return frozenset().union(*parts)
        return frozenset(k for k in range(len(self.space.dims))
                         if not self._identity_on(k))

    def _identity_on(self, k: int) -> bool:
        """Whether a diagonal or dense form is 1_k (x) B, block by block."""
        dims = self.space.dims
        if self.is_diagonal:
            d = np.moveaxis(self.diag.reshape(dims), k, 0)
            return bool(np.max(np.abs(d - d[0])) < HERM_TOL)
        v = np.moveaxis(self._matrix.reshape(dims + dims), (k, len(dims) + k),
                        (0, 1))
        return all(np.max(np.abs(v[i, j] - (v[0, 0] if i == j else 0)))
                   < HERM_TOL for i in range(dims[k]) for j in range(dims[k]))

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        dim = self.space.dim
        _check_dense(dim)
        if self.is_diagonal:
            return np.diag(self.diag)
        if self.local is not None:
            return self.space.embed_matrix(self.factor, self.local)
        out = np.empty((dim, dim), dtype=complex)
        for c, eye in _unit_blocks(dim):
            out[:, c:c + eye.shape[1]] = self.apply(eye)
        return out

    def diagonal(self) -> np.ndarray:
        """The full-space diagonal, without forming a dense matrix."""
        if self.is_diagonal:
            return self.diag
        if self.local is not None:
            return self.space.embed_diag(self.factor, np.diagonal(self.local))
        if self._matrix is not None:
            return np.diagonal(self._matrix)
        if self.kind in ("+", "twirl"):
            # a sum's diagonal is the sum of its operands'; a twirl keeps A's
            return self.scalar * sum(op.diagonal() for op in self.operands)
        if self.kind == "@" and sum(not op.is_diagonal
                                    for op in self.operands) <= 1:
            # diag(D_1 A D_2) = d_1 diag(A) d_2 for diagonal D_1, D_2
            return self.scalar * prod(op.diagonal() for op in self.operands)
        return np.concatenate([np.diagonal(self.apply(eye), -c)
                               for c, eye in _unit_blocks(self.space.dim)])

    @cached_property
    def adjoint(self) -> "KinOperator":
        """The adjoint, stored alike: a composed form's holds its operands'
        adjoints (reversed in a product) and the conjugate scalar."""
        if self.is_diagonal:
            return KinOperator.from_diag(self.space, self.diag.conj())
        if self.local is not None:
            return factor_operator(self.space, self.factor, self.local.conj().T)
        if self._matrix is not None:
            return KinOperator.from_matrix(self.space, self._matrix.conj().T)
        ops = tuple(op.adjoint for op in self.operands)
        return replace(self, operands=ops[::-1] if self.kind == "@" else ops,
                       scalar=np.conj(self.scalar))

    def apply(self, vec: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        if vec.shape[:1] != (self.space.dim,):
            raise ConfigError(f"{vec.shape} input on a space of {self.space.dim}")
        if out is not None:
            _check_out(out, vec.shape)
        if self.local is not None:  # apply_factor's contraction
            if out is None:
                out = np.empty(vec.shape, np.result_type(self.local, vec))
            a, b = self.space._around[self.factor]
            return _contract(self.local, a, b, vec, out)
        if self.is_diagonal:
            return np.multiply(self.diag.reshape((-1,) + (1,) * (vec.ndim - 1)),
                               vec, out=out)
        if self._matrix is not None:
            return np.matmul(self._matrix, vec, out=out)
        return self._apply_composed(vec, out)

    def apply_adjoint(self, vec: np.ndarray) -> np.ndarray:
        """``adjoint.apply(vec)``: the adjoint, built once and cached."""
        return self.adjoint.apply(vec)

    def _apply_composed(self, vec, out) -> np.ndarray:
        """A composed form on ``vec``, operand by operand."""
        ops = self.operands
        if self.kind == "twirl":
            out = self._twirl(vec, out)
        elif self.kind == "exp":
            out = self._exp(vec, out)
        elif self.kind == "+":
            out = ops[0].apply(vec, out)
            tmp = np.empty(vec.shape, dtype=complex)
            for op in ops[1:]:
                out += op.apply(vec, tmp)
        else:
            # the rightmost operand acts first; intermediates alternate
            # between two buffers
            bufs = [np.empty(vec.shape, dtype=complex) for _ in ops[1:3]]
            for i, op in enumerate(ops[:0:-1]):
                vec = op.apply(vec, bufs[i % 2])
            out = ops[0].apply(vec, out)
        if self.scalar != 1:
            out *= self.scalar
        return out

    def _exp(self, vec, out) -> np.ndarray:
        """exp(X) on ``vec``, X the one operand, a step of norm about 1: X's
        own Taylor series, unshifted, until two terms in a row fall to
        2^-53 of the partial sum in each column."""
        X = self.operands[0]
        if out is None:
            out = np.empty(vec.shape, dtype=complex)
        out[...] = vec
        term, below = vec, False
        for k in count(1):
            term = X.apply(term) / k
            out += term
            tol = 2.0 ** -53 * np.linalg.norm(out, axis=0)
            prev, below = below, not np.any(np.linalg.norm(term, axis=0) > tol)
            if prev and below:
                break
        return out

    def _twirl(self, vec, out) -> np.ndarray:
        """sum_c P_c A P_c on ``vec``, A the one operand.

        The classes go in groups of at most ``_COLUMN_BLOCK`` (256).  Each
        column's entries in a group's classes are scattered into a D x n_g
        block whose column c holds those of class c; A acts on the block
        once, and entry i of the group's rows is gathered from column
        ``classes[i]``.  Groups fill disjoint rows of the result.  Columns
        of ``vec`` go ``_COLUMN_BLOCK // n_g`` at a time (at least one), so
        a block is at most D x _COLUMN_BLOCK whatever the number of classes.
        """
        cls = self.classes
        dim, n = cls.size, int(cls.max()) + 1
        cols = vec.reshape(dim, -1)
        if out is None:
            out = np.empty(vec.shape, dtype=complex)
        res = out.reshape(dim, -1)
        for lo in range(0, n, _COLUMN_BLOCK):
            n_g = min(_COLUMN_BLOCK, n - lo)
            rows = np.flatnonzero((cls >= lo) & (cls < lo + n_g))
            sub = cls[rows] - lo
            width = max(1, _COLUMN_BLOCK // n_g)
            for i in range(0, cols.shape[1], width):
                part = cols[rows, i:i + width]
                block = np.zeros((dim, n_g, part.shape[1]), dtype=complex)
                block[rows, sub] = part
                y = self.operands[0].apply(block.reshape(dim, -1))
                res[rows, i:i + width] = y.reshape(dim, n_g, -1)[rows, sub]
                del block, y  # free before the next block is made
        return out

    def __add__(self, other):
        _check_space(self.space, other)
        if self.is_diagonal and other.is_diagonal:
            return KinOperator.from_diag(self.space, self.diag + other.diag)
        return KinOperator._composed("+", (self, other))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        if self.is_diagonal:
            return KinOperator.from_diag(self.space, scalar * self.diag)
        if self.local is not None:
            return factor_operator(self.space, self.factor,
                                   scalar * self.local)
        if self._matrix is not None:
            return KinOperator.from_matrix(self.space, scalar * self._matrix)
        return replace(self, scalar=scalar * self.scalar)

    def __matmul__(self, other):
        _check_space(self.space, other)
        if self.is_diagonal and other.is_diagonal:
            return KinOperator.from_diag(self.space, self.diag * other.diag)
        return KinOperator._composed("@", (self, other))


def _check_space(space: LatticeSpace, *ops) -> None:
    """Raise ConfigError unless every operator, frame or state in ``ops`` is
    on ``space`` (the same object, not an equal one)."""
    if any(op.space is not space for op in ops):
        raise ConfigError("inputs live on different spaces")


def _unit_blocks(dim: int):
    """(c, the D x k identity columns c .. c + k - 1), k <= _COLUMN_BLOCK:
    the unit columns ``matrix``, ``diagonal()`` and verify_assignment read."""
    for c in range(0, dim, _COLUMN_BLOCK):
        yield c, np.eye(dim, min(_COLUMN_BLOCK, dim - c), -c)


def _spectral_norm_estimate(X: KinOperator) -> float:
    """||X||_2 from below, by power iteration on X^dag X from a fixed start,
    until two iterates agree to 1e-6 relative or for 100 iterations: it
    guards and steps ``KinOperator.exp`` (a lower bound only adds terms)."""
    dim = X.space.dim
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(100):
        w = X.apply(v)
        new = float(np.linalg.norm(w))
        if new == 0.0 or abs(new - est) <= 1e-6 * new:
            return new
        est = new
        v = X.apply_adjoint(w)
        v /= np.linalg.norm(v)
    return est


def identity_operator(space: LatticeSpace) -> KinOperator:
    return KinOperator.from_diag(space, np.ones(space.dim))


def factor_operator(space: LatticeSpace, factor: int,
                    mat: np.ndarray) -> KinOperator:
    """A single-factor matrix as a KinOperator, identity on the other factors.

    A diagonal ``mat`` (or a 1d array of its diagonal) gives the diagonal
    form; any other n x n matrix, n the factor's dimension, is kept in the
    factor-local form.  Any other shape raises ConfigError.
    """
    n = space._factor(factor).N
    mat = np.array(mat, dtype=complex)
    if mat.shape not in ((n,), (n, n)):
        raise ConfigError(f"factor matrix {mat.shape} on a factor of {n}")
    if mat.ndim == 1 or np.count_nonzero(mat - np.diag(np.diag(mat))) == 0:
        d = mat if mat.ndim == 1 else np.diag(mat)
        return KinOperator.from_diag(space, space.embed_diag(factor, d))
    mat.setflags(write=False)
    return KinOperator(space, factor=factor, local=mat)


def split_adjoint(op: KinOperator, factor: int, rest: LatticeSpace):
    """op^dag on one side of the cut at ``factor``: the n x n matrix of
    op^dag on ``factor`` when the support is {factor}; op^dag as an operator
    on ``rest`` (the space of the other factors, in order) when ``factor``
    is outside the support, the empty support included; None when the
    support holds ``factor`` and another factor, or the form is dense or
    composed.

    The support is decided to HERM_TOL, and a diagonal is read at index 0
    of the axes it drops (a frame-factor diagonal is indexed, n entries,
    not copied), so the cut is exact only up to the variation below
    HERM_TOL that ``support`` ignores.
    """
    dims = op.space.dims
    if factor not in op.support:
        if op.is_diagonal:
            d = np.take(op.diag.reshape(dims), 0, axis=factor)
            return KinOperator.from_diag(rest, d.reshape(-1).conj())
        if op.local is not None:
            return factor_operator(rest, op.factor - (op.factor > factor),
                                   op.local.conj().T)
    elif op.support == {factor}:
        if op.is_diagonal:
            at = tuple(slice(None) if k == factor else 0
                       for k in range(len(dims)))
            return np.diag(op.diag.reshape(dims)[at].conj())
        if op.local is not None:
            return op.local.conj().T
    return None


def momentum_operator(space: LatticeSpace, factor: int) -> KinOperator:
    """Frame momentum, diagonal with eigenvalues ``k*dp``."""
    space._frame(factor)
    return generator_operator(space, factor)


def generator_operator(space: LatticeSpace, factor: int) -> KinOperator:
    """The factor's declared transformation generator, embedded."""
    return KinOperator.from_diag(space, space.embed_diag(
        factor, space._factor(factor).generator_spectrum))


def reduce_mod_period(values: np.ndarray, period: float) -> np.ndarray:
    """Reduce reals into the symmetric window [-P/2, P/2) modulo P."""
    return (values + period / 2.0) % period - period / 2.0


def build_constraint(space: LatticeSpace, terms) -> KinOperator:
    """Sum of commuting per-factor generators, as a cyclic-group generator.

    ``terms`` maps factor index to either a scalar coefficient multiplying
    that factor's declared generator spectrum, or an explicit real diagonal.
    The total is reduced modulo the lattice momentum period into the
    symmetric window: on the cyclic lattice the group element
    ``exp(i*s*C/hbar)`` at grid steps ``s`` only sees the total generator
    modulo ``N*dp``, and the reduced operator is the unique self-adjoint
    generator with that group action whose kernel matches the invariant
    subspace.  If zero is not in the reduced spectrum the result carries a
    warning flag.  NotAFrameFactor when the space has no frame.
    """
    return _reduced_constraint(space, _generator_sum(space, terms))


def _reduced_constraint(space: LatticeSpace, total: np.ndarray) -> KinOperator:
    """``build_constraint`` from the generator sum ``total`` (not written)."""
    frames = [f for f in space.factors if f.is_frame]
    if not frames:
        raise NotAFrameFactor("space has no frame factor")
    dp = frames[0].dp  # one dp for every frame (tensor_space)
    if _off_lattice(total, dp).any():
        raise IncommensurableSpectrum(
            "constraint spectrum is off the frame momentum lattice")
    total = reduce_mod_period(dp * np.rint(total / dp),
                              max(f.N * f.dp for f in frames))

    warnings = ()
    if not _is_zero(total).any():
        warnings = ("zero is not in the constraint spectrum",)
    return KinOperator.from_diag(space, total, warnings=warnings)


def _generator_sum(space: LatticeSpace, terms) -> np.ndarray:
    """``build_constraint``'s diagonal sum of ``terms`` before reduction;
    ConfigError for a diagonal of the wrong length or a non-finite sum."""
    total = np.zeros(space.dim, dtype=float)
    for factor, term in dict(terms).items():
        f = space._factor(factor)
        if np.isscalar(term):
            diag = float(term) * f.generator_spectrum
        else:
            diag = np.asarray(term, dtype=float)
            if diag.shape != (f.N,):
                raise ConfigError(
                    f"diagonal for factor {factor} must have length {f.N}")
        total = total + space.embed_diag(factor, diag).real
    if not np.all(np.isfinite(total)):
        raise ConfigError("constraint terms must be finite")
    return total


def _diagonal_spectrum(op: KinOperator) -> np.ndarray:
    """The real spectrum of a constraint, G_S or Pi stored diagonal and
    hermitian, as ``build_constraint`` makes them; any other operator raises
    UnsupportedForm before a D x D form is read."""
    if not (op.is_diagonal and op.hermitian):
        raise UnsupportedForm(
            "expected an operator stored diagonal and hermitian")
    return op.diag.real


def group_average(space: LatticeSpace, C: KinOperator) -> KinOperator:
    """Coherent group averaging: the orthogonal projector onto ker(C).

    On the lattice the average of ``exp(i*s*C/hbar)`` over the cyclic group
    determined by the constraint spectrum is exactly the kernel projector:
    the diagonal indicator of C's zero eigenvalues.  C must be diagonal and
    hermitian (UnsupportedForm otherwise), and on ``space`` (ConfigError).
    """
    _check_space(space, C)
    vals = _diagonal_spectrum(C)
    mask = _is_zero(vals)
    notes = ()
    if np.any(~mask & _is_zero(vals, 1e-6)):
        notes = ("near-zero eigenvalue above kernel threshold; "
                 "inputs may be incommensurate",)
    if not np.any(mask):
        raise EmptyKernel("constraint kernel is trivial")
    return KinOperator.from_diag(space, mask.astype(float), warnings=notes)


def check_physical(C: KinOperator, psi: np.ndarray) -> None:
    """Raise NotPhysical unless every column of ``psi`` solves the
    constraint, ||C psi|| <= PHYS_RTOL ||psi||.  ||psi|| is checked first:
    a column whose norm is not finite raises ConfigError before C acts.
    A vector's norm is ``np.linalg.norm``'s, without its per-column
    temporaries; a block's are those of |x| per column (|inf|^2 is inf,
    where inf * 0 in conj(x) x warns)."""
    norms = finite("||psi||", _norms(psi))
    resid = _norms(C.apply(psi))
    if np.any(resid > PHYS_RTOL * norms):
        raise NotPhysical(f"||C psi|| = {np.max(resid):.2e} exceeds tolerance")


def _norms(x: np.ndarray):
    """The norm of a vector, or the norms of a block's columns."""
    if np.ndim(x) == 1:
        return np.linalg.norm(x)
    return np.linalg.norm(np.abs(x), axis=0)


def project_physical(Pi: KinOperator, psi: np.ndarray) -> np.ndarray:
    """Apply the physical state map and normalize.

    On ker(C) the physical inner product coincides with the kinematical one,
    so normalization is the plain vector norm of the projection.  EmptyKernel
    when ||Pi psi|| <= 1e-14 ||psi||, whatever the scale of psi; ConfigError
    when ||psi||, taken first, is not finite.
    """
    scale = finite("||psi||", np.linalg.norm(psi))
    phi = Pi.apply(psi)
    n = np.linalg.norm(phi)
    if n <= _VANISH_RTOL * scale:
        raise EmptyKernel("state has no overlap with the constraint kernel")
    return phi / n


def physical_inner_product(space: LatticeSpace, Pi: KinOperator,
                           psi_kin: np.ndarray, phi_kin: np.ndarray) -> complex:
    """<psi|Pi|phi>: positive semi-definite, an honest inner product on
    ker(C); ConfigError when psi or phi, checked first, or the value is
    not finite."""
    _check_space(space, Pi)
    if psi_kin.shape[:1] != (space.dim,):
        raise ConfigError(f"psi {psi_kin.shape} on a space of {space.dim}")
    finite("psi", psi_kin)
    finite("phi", phi_kin)
    return complex(finite("<psi|Pi|phi>", np.vdot(psi_kin, Pi.apply(phi_kin))))


def sector_projectors(space: LatticeSpace, frame: int):
    """(P+, P-) onto frame momentum >= 0 and < 0.

    Both commute with any constraint diagonal in the computational basis,
    in particular with the doubly degenerate ``p^2 - G_S`` family.
    """
    f = space._frame(frame)
    pos = (f.generator_spectrum >= 0).astype(float)
    plus = KinOperator.from_diag(space, space.embed_diag(frame, pos))
    minus = KinOperator.from_diag(space, space.embed_diag(frame, 1.0 - pos))
    return plus, minus


def factorize_constraint(space: LatticeSpace, frame: int,
                         g_s: KinOperator):
    """Split ``C = p^2 - G_S`` into commuting linear factors ``p +- sqrt(G_S)``.

    G_S must be supported off the frame (UnsupportedSupport), diagonal and
    hermitian (UnsupportedForm).  The square root is the principal
    (non-negative) root per diagonal entry.  Returns ``(C_plus, C_minus)``
    with ``C_plus @ C_minus == C``.
    """
    if frame in g_s.support:
        raise UnsupportedSupport(
            f"G_S must be supported off the frame factor {frame}")
    p = momentum_operator(space, frame)
    gd = _diagonal_spectrum(g_s)
    if np.min(gd) < -1e-12:
        raise NegativeGenerator(f"G_S has negative eigenvalue {np.min(gd)}")
    h = KinOperator.from_diag(space, np.sqrt(np.clip(gd, 0.0, None)))
    return p + h, p - h
