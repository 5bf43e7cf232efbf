"""Covariant orientation states, POVMs, G-twirl and relational observables.

On a frame factor of dimension N the orientation vectors

    |rho_j> = sum_k exp(-i*rho_j*p_k/hbar) |p_k>,   rho_j = j*dr,

are mutually orthogonal with <rho_j|rho_j> = N (discrete Fourier duality),
resolve the identity as (1/N) sum_j |rho_j><rho_j| = 1 and are exactly
covariant under grid translations.  Lattice orientation arithmetic is
modular: identities involving the orientation operator as an unbounded
coordinate hold modulo the grid period, and localized states away from the
wraparound edge recover the continuum statements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, IncommensurableSpectrum, IndexOutOfRange,
                     UnsupportedForm)
from .kinspace import (
    KinOperator,
    LatticeSpace,
    _check_space,
    _diagonal_spectrum,
    _zero_tol,
    factor_operator,
    finite,
    integer,
    momentum_operator,
)


@dataclass(frozen=True, eq=False)
class OrientationFrame:
    """A frame factor together with its orientation grid (phase fixed to zero)."""

    space: LatticeSpace
    factor: int

    def __post_init__(self):
        self.space._frame(self.factor)

    @property
    def N(self) -> int:
        return self.space.factors[self.factor].N

    @property
    def grid(self) -> np.ndarray:
        return self.spacing * np.arange(-self.N // 2, self.N // 2, dtype=float)

    @property
    def spacing(self) -> float:
        f = self.space.factors[self.factor]
        return 2.0 * np.pi * self.space.hbar / (f.N * f.dp)

    @property
    def period(self) -> float:
        return self.N * self.spacing

    def fourier_matrix(self) -> np.ndarray:
        """Columns are the orientation vectors |rho_j> in the momentum basis."""
        p = self.space.factors[self.factor].generator_spectrum
        return np.exp(-1j * np.outer(p, self.grid) / self.space.hbar)


def _grid_position(frame: OrientationFrame, j) -> int:
    """The position on ``frame.grid`` of grid index j in [-N/2, N/2)."""
    j = integer("grid index", j)
    if not (-frame.N // 2 <= j < frame.N // 2):
        raise IndexOutOfRange(f"grid index {j} outside [-N/2, N/2)")
    return j + frame.N // 2


def orientation_state(frame: OrientationFrame, j: int) -> np.ndarray:
    """|rho_j> on the frame factor, for j indexing the grid [-N/2, N/2)."""
    return orientation_state_at(frame, frame.grid[_grid_position(frame, j)])


def _finite_rho(rho) -> float:
    """``rho`` as a float, or ConfigError unless it is finite."""
    rho = float(rho)
    if not np.isfinite(rho):
        raise ConfigError(f"orientation rho must be finite, got {rho}")
    return rho


def orientation_state_at(frame: OrientationFrame, rho: float) -> np.ndarray:
    """|rho> for an arbitrary on-grid orientation value (finite, else
    ConfigError)."""
    p = frame.space.factors[frame.factor].generator_spectrum
    return np.exp(-1j * _finite_rho(rho) * p / frame.space.hbar)


def effect_operator(frame: OrientationFrame, X) -> KinOperator:
    """POVM effect E(X) = (1/N) sum_{j in X} |rho_j><rho_j|, embedded."""
    F = frame.fourier_matrix()
    sel = np.zeros(frame.N)
    for j in X:
        sel[_grid_position(frame, j)] = 1.0
    return factor_operator(frame.space, frame.factor,
                           (F * sel) @ F.conj().T / frame.N)


def orientation_operator(frame: OrientationFrame) -> KinOperator:
    """First moment of the POVM: R = (1/N) sum_j rho_j |rho_j><rho_j|.

    Hermitian with eigenvalue list equal to the orientation grid; the
    orientation vectors are its exact eigenvectors (ideal frame).
    """
    F = frame.fourier_matrix()
    return factor_operator(frame.space, frame.factor,
                           (F * frame.grid) @ F.conj().T / frame.N)


def wraparound_weight(frame: OrientationFrame, vec: np.ndarray,
                      margin: int = 2) -> float:
    """Probability within ``margin`` grid points of the orientation edge.

    Diagnostic for the modular-arithmetic caveat: golden tests keep this
    weight negligible by localizing states away from the edge.  ``margin``
    must lie in [0, N/2] (ConfigError); 0 weighs nothing and N/2 the whole
    orientation range.  ``vec`` is one finite D-vector (ConfigError otherwise).
    """
    if np.shape(vec) != (frame.space.dim,):
        raise ConfigError(f"vec must be one {frame.space.dim}-vector")
    margin = integer("margin", margin)
    if not 0 <= 2 * margin <= frame.N:
        raise ConfigError(
            f"margin must lie in [0, N/2] = [0, {frame.N / 2:g}], got {margin}")
    finite("vec", vec)
    F = frame.fourier_matrix().conj().T / np.sqrt(frame.N)
    prob = np.abs(frame.space.apply_factor(frame.factor, F, vec)) ** 2
    marg = np.moveaxis(prob.reshape(frame.space.dims), frame.factor, 0)
    marg = marg.reshape(frame.N, -1).sum(axis=1)
    total = float(finite("total probability", marg.sum()))
    edge = float(marg[:margin].sum() + marg[frame.N - margin:].sum())
    return edge / total if total > 0 else 0.0


def g_twirl(space: LatticeSpace, C: KinOperator, A: KinOperator) -> KinOperator:
    """Incoherent group average of A over the cyclic group generated by C.

    C must be diagonal and hermitian (UnsupportedForm), and C and A on
    ``space`` (ConfigError).  The average keeps exactly the matrix elements
    between eigenvalues nearer than ``kinspace._zero_tol`` (the group order
    is computed from the pairwise difference spectrum, so no distinct
    eigenvalues are aliased).  That is sum_c P_c A P_c over the eigenvalue
    classes c of C, P_c the diagonal projector onto class c's basis states.
    Sorted eigenvalues closer than the tolerance share a class, and a class
    that spans the tolerance or more has no consistent split, so it raises
    IncommensurableSpectrum.

    The result is the composed form.  It stores A and one class index per
    basis state; an apply is one apply of A per group of at most 256
    classes, to a D x n_g block (n_g the classes in the group), and
    reading ``matrix`` costs D/256 twirl applies to 256 identity columns.
    """
    _check_space(space, C, A)
    vals = _diagonal_spectrum(C)
    tol = _zero_tol(vals)
    return KinOperator._composed("twirl", (A,),
                                 classes=_eigenvalue_classes(vals, tol))


def _eigenvalue_classes(vals: np.ndarray, tol: float) -> np.ndarray:
    """Class index of each eigenvalue; sorted neighbours closer than ``tol``
    share a class.  The twirl keeps the pairs with |v_i - v_j| < tol, which
    is this partition only when no class spans ``tol`` or more."""
    order = np.argsort(vals, kind="stable")
    s = vals[order]
    gap = np.diff(s) >= tol
    starts = np.flatnonzero(np.r_[True, gap])
    ends = np.r_[starts[1:], s.size] - 1
    if np.any(s[ends] - s[starts] >= tol):
        raise IncommensurableSpectrum(
            f"constraint eigenvalues chain across the twirl tolerance {tol:.1e}")
    classes = np.empty(vals.size, dtype=np.intp)
    classes[order] = np.cumsum(np.r_[False, gap])
    classes.setflags(write=False)
    return classes


def frame_system_generator(space: LatticeSpace, C: KinOperator,
                           frame: OrientationFrame) -> KinOperator:
    """G_S := C - p_frame, the generator acting on everything but the frame."""
    return C - momentum_operator(space, frame.factor)


def theta_gauge(frame: OrientationFrame, rho: float) -> KinOperator:
    """The reference gauge Theta(rho) = |rho><rho| (x) 1, factor-local.

    Unnormalized (<rho|rho> = N): the 1/N measure lives in the group
    average, so that (1/N) sum_j Theta(rho_j) = 1 resolves the identity.
    """
    v = orientation_state_at(frame, rho)
    return factor_operator(frame.space, frame.factor, np.outer(v, v.conj()))


def relational_observable(space: LatticeSpace, C: KinOperator,
                          frame: OrientationFrame, rho: float,
                          f_s: KinOperator, form: str = "kinematical",
                          Pi: KinOperator = None) -> KinOperator:
    """Relational Dirac observable: f_S conditioned on the frame reading rho.

    C must be diagonal and hermitian (UnsupportedForm otherwise), and C,
    the frame and f_S on ``space`` (ConfigError), for every form.  Each
    form is a composed ``KinOperator`` that stores its parts, never a D x D
    matrix, and applies them in turn.  Reading its ``matrix`` builds the
    D x D form by its own apply (a twirl's ``_twirl``) to D/256 identity
    blocks, and raises DenseBudgetExceeded above ``kinspace.DENSE_BUDGET``.

    form="kinematical": G-twirl of |rho><rho| (x) f_S over the constraint
    group (see ``g_twirl``).  Stores Theta, f_S and one eigenvalue class
    per basis state; an apply is one apply of Theta f_S to a D x n_c block.
    form="closed": conjugation of f_S by exp(-i(R-rho)G_S/hbar), taken in
    the orientation basis as the product (1/N) F E f_S E^dag F^dag, with F
    the factor-local matrix of orientation kets and E the diagonal
    exp(-i(rho_j-rho)G_S/hbar) over (frame slot j, rest).  Stores F, F^dag,
    f_S and two D-vectors; an apply is five.  Requires an ideal frame
    (every commensurate lattice frame with a linear constraint is ideal).
    form="physical": Pi (|rho><rho| (x) f_S), the representation on the
    physical Hilbert space.  Stores Pi, Theta and f_S; an apply is three.
    """
    _check_space(space, C, frame, f_s)
    _diagonal_spectrum(C)
    if frame.factor in f_s.support:
        raise UnsupportedForm("f_S must be supported off the frame factor")
    if form == "kinematical":
        theta = theta_gauge(frame, rho)
        return g_twirl(space, C, theta @ f_s)
    if form == "closed":
        rho, k = _finite_rho(rho), frame.factor
        # G_S is constant along the frame axis: keep it on the other factors
        gs = np.moveaxis(frame_system_generator(space, C, frame).diag
                         .reshape(space.dims), k, 0)[0]
        e = np.exp(-1j * np.multiply.outer(frame.grid - rho, gs) / space.hbar)
        e = np.moveaxis(e, 0, k).reshape(-1)
        F = factor_operator(space, k, frame.fourier_matrix())
        E = KinOperator.from_diag(space, e)
        return (1.0 / frame.N) * (F @ E @ f_s @ E.adjoint @ F.adjoint)
    if form == "physical":
        if Pi is None:
            raise ConfigError("physical form requires the projector Pi")
        return Pi @ (theta_gauge(frame, rho) @ f_s)
    raise UnsupportedForm(f"unknown form {form!r}")
