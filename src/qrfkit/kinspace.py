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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd

import numpy as np

from .errors import (
    EmptyKernel,
    IncommensurableSpectrum,
    NegativeGenerator,
    NotAFrameFactor,
    UnsupportedSupport,
)

HERM_TOL = 1e-12
# Eigenvalues below KERNEL_RTOL * ||C|| count as zero.  Commensurate inputs
# produce exact zeros, so a near-threshold hit indicates a modelling mistake.
KERNEL_RTOL = 1e-9

FRAME = "frame"
SYSTEM = "system"


@dataclass(frozen=True, eq=False)
class FactorSpec:
    """One tensor factor: either a frame (cyclic momentum lattice) or a system.

    Frame factors have even dimension N >= 4 and momentum eigenvalues
    ``k*dp``.  System factors are specified in the eigenbasis of their
    transformation generator: ``generator_spectrum`` holds its eigenvalues,
    and ``ops`` may carry additional named operators (as matrices in that
    same basis).
    """

    kind: str
    N: int
    dp: float
    generator_spectrum: np.ndarray
    name: str = ""
    ops: dict = field(default_factory=dict)

    @staticmethod
    def frame(N: int, dp: float = 1.0, name: str = "") -> "FactorSpec":
        if N < 4 or N % 2 != 0:
            raise ValueError(f"frame dimension must be even and >= 4, got {N}")
        if dp <= 0:
            raise ValueError("momentum spacing must be positive")
        spectrum = dp * np.arange(-N // 2, N // 2, dtype=float)
        return FactorSpec(FRAME, N, float(dp), spectrum, name=name)

    @staticmethod
    def system(generator_spectrum, ops=None, name: str = "") -> "FactorSpec":
        spectrum = np.asarray(generator_spectrum, dtype=float)
        if spectrum.ndim != 1 or spectrum.size == 0:
            raise ValueError("system spectrum must be a non-empty 1d sequence")
        return FactorSpec(SYSTEM, spectrum.size, 0.0, spectrum, name=name,
                          ops=dict(ops or {}))

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

    @property
    def dims(self) -> tuple:
        return tuple(f.N for f in self.factors)

    @property
    def dim(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.N
        return out

    def frame_dp(self) -> float:
        """Common momentum spacing of the frame factors."""
        dps = {f.dp for f in self.factors if f.is_frame}
        if not dps:
            raise NotAFrameFactor("space has no frame factor")
        return dps.pop()

    def momentum_period(self) -> float:
        """Lattice momentum period P = N*dp (largest frame window)."""
        frames = [f for f in self.factors if f.is_frame]
        if not frames:
            raise NotAFrameFactor("space has no frame factor")
        return max(f.N * f.dp for f in frames)

    def orientation_spacing(self, factor: int) -> float:
        f = self.factors[factor]
        if not f.is_frame:
            raise NotAFrameFactor(f"factor {factor} is not a frame")
        return 2.0 * np.pi * self.hbar / (f.N * f.dp)

    def orientation_grid(self, factor: int) -> np.ndarray:
        """Orientations ``rho_j = j*dr`` for ``j in [-N/2, N/2)``."""
        f = self.factors[factor]
        dr = self.orientation_spacing(factor)
        return dr * np.arange(-f.N // 2, f.N // 2, dtype=float)

    def embed_matrix(self, factor: int, mat: np.ndarray) -> np.ndarray:
        """Lift a factor matrix to the full space (identity elsewhere)."""
        out = np.ones((1, 1), dtype=complex)
        for i, f in enumerate(self.factors):
            out = np.kron(out, mat if i == factor else np.eye(f.N))
        return out

    def embed_diag(self, factor: int, diag: np.ndarray) -> np.ndarray:
        """Lift a factor diagonal to a full-space diagonal (cheap)."""
        out = np.ones(1, dtype=complex)
        for i, f in enumerate(self.factors):
            out = np.kron(out, np.asarray(diag) if i == factor
                          else np.ones(f.N))
        return out

    def apply_factor(self, factor: int, mat: np.ndarray,
                     vec: np.ndarray) -> np.ndarray:
        """Apply a single-factor matrix to a full-space vector."""
        t = vec.reshape(self.dims)
        t = np.tensordot(mat, t, axes=([1], [factor]))
        t = np.moveaxis(t, 0, factor)
        return t.reshape(-1)


def tensor_space(factors, hbar: float = 1.0) -> LatticeSpace:
    """Build a lattice space and validate commensurability.

    Every frame factor must share one momentum spacing ``dp``, and every
    system generator eigenvalue must lie on the frame momentum lattice
    ``dp * Z`` so that the constraint kernel is exactly representable.
    """
    factors = tuple(factors)
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    frame_dps = {f.dp for f in factors if f.is_frame}
    if len(frame_dps) > 1:
        raise IncommensurableSpectrum(
            f"frame factors must share one momentum spacing, got {sorted(frame_dps)}")
    if frame_dps:
        dp = frame_dps.pop()
        for f in factors:
            if f.is_frame:
                continue
            for v in f.generator_spectrum:
                q = Fraction(v / dp).limit_denominator(1_000_000)
                if q.denominator != 1 or abs(float(q) - v / dp) > 1e-9:
                    raise IncommensurableSpectrum(
                        f"system eigenvalue {v} of factor {f.name or '?'} "
                        f"is off the frame momentum lattice (dp={dp})")
    return LatticeSpace(factors, float(hbar))


@dataclass(frozen=True, eq=False)
class KinOperator:
    """An operator on the full lattice space, tagged with factor support.

    Exactly one form is stored:

    - ``diag``: the diagonal in the computational basis;
    - ``local`` on ``factor``: an n x n matrix on one tensor factor (identity
      on the others), applied by tensor contraction;
    - a dense D x D matrix.

    ``matrix`` builds the dense D x D form only when a caller reads it.
    ``hermitian`` is computed from the stored form on first use, never
    asserted.
    """

    space: LatticeSpace
    _matrix: np.ndarray = None
    diag: np.ndarray = None
    support: frozenset = frozenset()
    warnings: tuple = ()
    factor: int = None
    local: np.ndarray = None

    @staticmethod
    def from_matrix(space, matrix, support, warnings=()) -> "KinOperator":
        matrix = np.asarray(matrix, dtype=complex)
        matrix.setflags(write=False)
        return KinOperator(space, matrix, None, frozenset(support),
                           tuple(warnings))

    @staticmethod
    def from_diag(space, diag, support, warnings=()) -> "KinOperator":
        diag = np.asarray(diag, dtype=complex)
        diag.setflags(write=False)
        return KinOperator(space, None, diag, frozenset(support),
                           tuple(warnings))

    @property
    def is_diagonal(self) -> bool:
        return self.diag is not None

    @cached_property
    def hermitian(self) -> bool:
        if self.is_diagonal:
            return bool(np.max(np.abs(self.diag.imag)) < HERM_TOL)
        m = self._matrix if self.local is None else self.local
        return bool(np.max(np.abs(m - m.conj().T)) < HERM_TOL)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        if self.is_diagonal:
            return np.diag(self.diag)
        return self.space.embed_matrix(self.factor, self.local)

    def diagonal(self) -> np.ndarray:
        """The full-space diagonal, without forming a dense matrix."""
        if self.is_diagonal:
            return self.diag
        if self.local is not None:
            return self.space.embed_diag(self.factor, np.diagonal(self.local))
        return np.diagonal(self._matrix)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if self.is_diagonal:
            return self.diag * vec
        if self.local is not None:
            return self.space.apply_factor(self.factor, self.local, vec)
        return self._matrix @ vec

    def apply_adjoint(self, vec: np.ndarray) -> np.ndarray:
        """The adjoint applied to ``vec``, without forming the adjoint."""
        if self.is_diagonal:
            return self.diag.conj() * vec
        if self.local is not None:
            return self.space.apply_factor(self.factor, self.local.conj().T,
                                           vec)
        return (vec.conj() @ self._matrix).conj()

    def expectation(self, ket: np.ndarray, bra: np.ndarray = None) -> complex:
        b = ket if bra is None else bra
        return complex(np.vdot(b, self.apply(ket)))

    def __add__(self, other):
        self._check(other)
        if self.is_diagonal and other.is_diagonal:
            return KinOperator.from_diag(self.space, self.diag + other.diag,
                                         self.support | other.support)
        return KinOperator.from_matrix(self.space, self.matrix + other.matrix,
                                       self.support | other.support)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        if self.is_diagonal:
            return KinOperator.from_diag(self.space, scalar * self.diag,
                                         self.support)
        if self.local is not None:
            return factor_operator(self.space, self.factor,
                                   scalar * self.local)
        return KinOperator.from_matrix(self.space, scalar * self._matrix,
                                       self.support)

    def __matmul__(self, other):
        self._check(other)
        if self.is_diagonal and other.is_diagonal:
            return KinOperator.from_diag(self.space, self.diag * other.diag,
                                         self.support | other.support)
        return KinOperator.from_matrix(self.space, self.matrix @ other.matrix,
                                       self.support | other.support)

    def _check(self, other):
        if other.space is not self.space:
            raise ValueError("operators live on different spaces")


def identity_operator(space: LatticeSpace) -> KinOperator:
    return KinOperator.from_diag(space, np.ones(space.dim), frozenset())


def factor_operator(space: LatticeSpace, factor: int,
                    mat: np.ndarray) -> KinOperator:
    """A single-factor matrix as a KinOperator, identity on the other factors.

    A diagonal ``mat`` (or a 1d array of its diagonal) gives the diagonal
    form; any other matrix is kept in the factor-local form.
    """
    mat = np.array(mat, dtype=complex)
    if mat.ndim == 1 or (mat.ndim == 2 and mat.shape[0] == mat.shape[1]
                         and np.count_nonzero(mat - np.diag(np.diag(mat))) == 0):
        d = mat if mat.ndim == 1 else np.diag(mat)
        return KinOperator.from_diag(space, space.embed_diag(factor, d),
                                     {factor})
    mat.setflags(write=False)
    return KinOperator(space, support=frozenset({factor}), factor=factor,
                       local=mat)


def momentum_operator(space: LatticeSpace, factor: int) -> KinOperator:
    """Frame momentum, diagonal with eigenvalues ``k*dp``."""
    f = space.factors[factor]
    if not f.is_frame:
        raise NotAFrameFactor(f"factor {factor} is not a frame")
    return KinOperator.from_diag(
        space, space.embed_diag(factor, f.generator_spectrum), {factor})


def generator_operator(space: LatticeSpace, factor: int,
                       coefficient: float = 1.0) -> KinOperator:
    """The factor's declared transformation generator, embedded and scaled."""
    f = space.factors[factor]
    return KinOperator.from_diag(
        space, space.embed_diag(factor, coefficient * f.generator_spectrum),
        {factor})


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
    warning flag.
    """
    total = np.zeros(space.dim, dtype=float)
    support = set()
    for factor, term in dict(terms).items():
        f = space.factors[factor]
        if np.isscalar(term):
            diag = float(term) * f.generator_spectrum
        else:
            diag = np.asarray(term, dtype=float)
            if diag.shape != (f.N,):
                raise ValueError(
                    f"diagonal for factor {factor} must have length {f.N}")
        total = total + space.embed_diag(factor, diag).real
        support.add(factor)

    period = space.momentum_period()
    dp = space.frame_dp()
    ints = total / dp
    if np.max(np.abs(ints - np.rint(ints))) > 1e-9:
        raise IncommensurableSpectrum(
            "constraint spectrum is off the frame momentum lattice")
    total = reduce_mod_period(dp * np.rint(ints), period)

    warnings = ()
    if not np.any(np.abs(total) < KERNEL_RTOL * max(np.max(np.abs(total)), 1.0)):
        warnings = ("zero is not in the constraint spectrum",)
    return KinOperator.from_diag(space, total, support, warnings)


def _eig(C: KinOperator):
    """(eigenvalues, eigenvectors or None) -- None means computational basis."""
    if C.is_diagonal:
        return C.diag.real.copy(), None
    if not C.hermitian:
        raise ValueError("constraint must be hermitian")
    return np.linalg.eigh(C.matrix)


def kernel_indicator(C: KinOperator):
    """(eigenvalues, boolean kernel mask, diagnostic list)."""
    vals, vecs = _eig(C)
    norm = max(float(np.max(np.abs(vals))), 1.0)
    mask = np.abs(vals) < KERNEL_RTOL * norm
    notes = []
    near = (np.abs(vals) >= KERNEL_RTOL * norm) & (np.abs(vals) < 1e-6 * norm)
    if np.any(near):
        notes.append("near-zero eigenvalue above kernel threshold; "
                     "inputs may be incommensurate")
    return vals, mask, vecs, notes


def cyclic_group(C: KinOperator, pairwise: bool = False):
    """Cyclic group data (spacing, order, step) computed from the spectrum.

    Returns ``(delta, order, step)`` where the group is
    ``{exp(i*j*step*C/hbar) : j = 0..order-1}``.  ``delta`` is the coarsest
    spacing with all eigenvalues on ``delta*Z``; ``order`` is the smallest
    order whose average isolates exact eigenvalue coincidences (pairwise
    differences when ``pairwise``, the kernel otherwise).  Never assumed,
    always derived from the constraint at hand.
    """
    vals, _ = _eig(C)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    fracs = [Fraction(float(v) / scale).limit_denominator(10**6) for v in vals]
    den = reduce(lambda a, b: a * b // gcd(a, b),
                 (f.denominator for f in fracs), 1)
    nums = [int(f * den) for f in fracs]
    g = reduce(gcd, (abs(n) for n in nums if n != 0), 0)
    if g == 0:
        return scale, 1, 0.0  # C = 0: trivial group
    ints = [n // g for n in nums]
    delta = scale * g / den
    if pairwise:
        targets = {abs(a - b) for a in ints for b in ints} - {0}
    else:
        targets = {abs(n) for n in ints} - {0}
    order = max(targets, default=0) + 1
    while any(t % order == 0 for t in targets):
        order += 1
    step = 2.0 * np.pi * C.space.hbar / (order * delta)
    return delta, order, step


def group_average(space: LatticeSpace, C: KinOperator) -> KinOperator:
    """Coherent group averaging: the orthogonal projector onto ker(C).

    On the lattice the average of ``exp(i*s*C/hbar)`` over the cyclic group
    determined by the constraint spectrum is exactly the kernel projector;
    it is computed here spectrally (the explicit finite-group sum is kept as
    an independent test oracle).
    """
    vals, mask, vecs, notes = kernel_indicator(C)
    if not np.any(mask):
        raise EmptyKernel("constraint kernel is trivial")
    if vecs is None:
        return KinOperator.from_diag(space, mask.astype(float), C.support,
                                     tuple(notes))
    V = vecs[:, mask]
    return KinOperator.from_matrix(space, V @ V.conj().T, C.support,
                                   tuple(notes))


def project_physical(Pi: KinOperator, psi: np.ndarray) -> np.ndarray:
    """Apply the physical state map and normalize.

    On ker(C) the physical inner product coincides with the kinematical one,
    so normalization is the plain vector norm of the projection.
    """
    phi = Pi.apply(psi)
    n = np.linalg.norm(phi)
    if n < 1e-14:
        raise EmptyKernel("state has no overlap with the constraint kernel")
    return phi / n


def physical_inner_product(space: LatticeSpace, Pi: KinOperator,
                           psi_kin: np.ndarray, phi_kin: np.ndarray) -> complex:
    """<psi|Pi|phi>: positive semi-definite, an honest inner product on ker(C)."""
    return complex(np.vdot(psi_kin, Pi.apply(phi_kin)))


def sector_projectors(space: LatticeSpace, frame: int):
    """(P+, P-) onto frame momentum >= 0 and < 0.

    Both commute with any constraint diagonal in the computational basis,
    in particular with the doubly degenerate ``p^2 - G_S`` family.
    """
    f = space.factors[frame]
    if not f.is_frame:
        raise NotAFrameFactor(f"factor {frame} is not a frame")
    pos = (f.generator_spectrum >= 0).astype(float)
    plus = KinOperator.from_diag(space, space.embed_diag(frame, pos), {frame})
    minus = KinOperator.from_diag(space, space.embed_diag(frame, 1.0 - pos),
                                  {frame})
    return plus, minus


def factorize_constraint(space: LatticeSpace, frame: int,
                         g_s: KinOperator):
    """Split ``C = p^2 - G_S`` into commuting linear factors ``p +- sqrt(G_S)``.

    The square root is the principal (non-negative) root per eigenvalue of
    G_S.  Returns ``(C_plus, C_minus)`` with ``C_plus @ C_minus == C``.
    """
    if frame in g_s.support:
        raise UnsupportedSupport(
            f"G_S must be supported off the frame factor {frame}")
    p = momentum_operator(space, frame)
    if g_s.is_diagonal:
        gd = g_s.diag.real
        if np.min(gd) < -1e-12:
            raise NegativeGenerator(
                f"G_S has negative eigenvalue {np.min(gd)}")
        root = np.sqrt(np.clip(gd, 0.0, None))
        h = KinOperator.from_diag(space, root, g_s.support)
    else:
        vals, vecs = np.linalg.eigh(g_s.matrix)
        if np.min(vals) < -1e-12:
            raise NegativeGenerator(
                f"G_S has negative eigenvalue {np.min(vals)}")
        root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        h = KinOperator.from_matrix(space, root, g_s.support)
    return p + h, p - h
