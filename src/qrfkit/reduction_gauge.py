"""Conditioning on frame orientations: reduction maps, QRF changes, gauges.

Conditioning is one ``LatticeSpace.apply_factor`` on the frame's slot: the
reduction map applies the orientation bra <rho| (1 x N), its inverse the
ket |rho> (N x 1) and then Pi, both to a vector or a block of columns.  The
QRF change V = R_B(rho_B) Pi R_A^dag(rho_A) is kept as these maps, and so
are its adjoint and the change V f V^dag of an observable: no n x n form of
V is built.

Generalized gauge maps Phi satisfy Pi Phi Pi = Pi on the constraint kernel.
A gauge map is a ``KinOperator`` like any other operator on the
kinematical space: the reference gauge Theta(rho) = |rho><rho| x 1 stays
factor-local and is applied by tensor contraction, and a composite gauge
exp(i O1 C) Phi exp(i O2 C) composes two ``KinOperator.exp`` actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algstates import AlgebraicState, from_hilbert
from .errors import ConfigError, SameFrame, UnsupportedSupport
from .kinspace import (_COLUMN_BLOCK, KinOperator, _check_space,
                       _diagonal_spectrum, check_physical, finite)
# theta_gauge, the reference gauge Theta(rho), is defined once in relobs
from .relobs import OrientationFrame, orientation_state_at, theta_gauge


def reduce_state(frame: OrientationFrame, rho: float, psi_phys: np.ndarray,
                 C: KinOperator = None) -> np.ndarray:
    """Page-Wootters conditioning: (<rho| x 1) psi on the remaining factors."""
    if C is not None:
        _check_space(frame.space, C)
        check_physical(C, psi_phys)
    bra = orientation_state_at(frame, rho).conj()[None, :]
    return frame.space.apply_factor(frame.factor, bra, psi_phys)


def embed_state(frame: OrientationFrame, rho: float, phi: np.ndarray,
                Pi: KinOperator) -> np.ndarray:
    """Inverse conditioning: Pi (phi x |rho>), a state annihilated by C;
    ConfigError when phi is not finite."""
    _check_space(Pi.space, frame)
    finite("phi", phi)
    ket = orientation_state_at(frame, rho)[:, None]
    return Pi.apply(frame.space.apply_factor(frame.factor, ket, phi))


@dataclass(frozen=True, eq=False)
class QRFTransform:
    """V = R_B(rho_B) Pi R_A^dag(rho_A), from reduced-A to reduced-B states.

    Holds the frames, orientations and Pi, and acts only through the maps:
    ``apply`` embeds from A and reduces onto B, and ``apply_adjoint``
    (V^dag = R_A Pi R_B^dag, the reverse change) embeds from B and reduces
    onto A, each with one ``Pi.apply`` per vector or column block.  No
    n_B x n_A form of V is built.
    """

    frame_a: OrientationFrame
    rho_a: float
    frame_b: OrientationFrame
    rho_b: float
    Pi: KinOperator

    def apply(self, phi: np.ndarray) -> np.ndarray:
        return reduce_state(self.frame_b, self.rho_b,
                            embed_state(self.frame_a, self.rho_a, phi, self.Pi))

    def apply_adjoint(self, chi: np.ndarray) -> np.ndarray:
        return reduce_state(self.frame_a, self.rho_a,
                            embed_state(self.frame_b, self.rho_b, chi, self.Pi))


def qrf_transform(frame_a: OrientationFrame, rho_a: float,
                  frame_b: OrientationFrame, rho_b: float,
                  Pi: KinOperator) -> QRFTransform:
    """V = R_B(rho_B) o R_A^dag(rho_A), mapping reduced-A to reduced-B states."""
    if frame_a.factor == frame_b.factor:
        raise SameFrame("QRF transformation needs two distinct frames")
    _check_space(Pi.space, frame_a, frame_b)
    return QRFTransform(frame_a, rho_a, frame_b, rho_b, Pi)


@dataclass(frozen=True, eq=False)
class TransformedObservable:
    """V f V^dag on the B-reduced space, kept as V and the n_A x n_A f:
    ``apply`` takes a B-reduced vector or column block x to
    V (f (V^dag x)), two passes through V's maps and one product with f."""

    V: QRFTransform
    f: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.V.apply(self.f @ self.V.apply_adjoint(x))


def conjugate_observable(V: QRFTransform,
                         f: np.ndarray) -> TransformedObservable:
    """V f V^dag: the observable f on the source (A-reduced) space read in
    the target perspective, acting through V's maps; no n x n form of V or
    of the result is built.  UnsupportedSupport unless f is n_A x n_A."""
    f = np.asarray(f, dtype=complex)
    n = V.frame_a.space.dim // V.frame_a.N
    if f.shape != (n, n):
        raise UnsupportedSupport(
            f"observable must act on the source reduced space (dim {n})")
    return TransformedObservable(V, f)


# ---------------------------------------------------------------------------
# generalized gauges


def verify_gauge(phi: KinOperator, Pi: KinOperator) -> dict:
    """Max residuals of the two defining identities on the kernel.

    Returns ``{"pi_phi_pi": ..., "phi_pi_phi": ..., "valid": bool}`` where
    the first entry is ||Pi Phi Pi - Pi||_max and the second
    ||(Phi Pi Phi - Phi) Pi||_max (the identity restricted to physical
    states).  Both operators act only through ``apply``.  For a projector
    Pi_jj = ||Pi e_j||^2, so only the columns j with Pi_jj != 0 can be
    non-zero; they are taken as unit columns E in blocks of
    ``_COLUMN_BLOCK`` (256), and with B = Pi E, Y = Phi B the residuals are
    max |Pi Y - B| and max |Phi Pi Y - Y|.  B, Y and Pi Y are written into
    three block arrays made once; E is written into the one that later
    holds Pi Y, and both differences are taken in place.
    """
    _check_space(Pi.space, phi)
    cols = np.flatnonzero(Pi.diagonal())
    dim, width = Pi.space.dim, min(_COLUMN_BLOCK, cols.size)
    store = np.empty((3, dim * width), dtype=complex)
    r1 = r2 = 0.0
    for i in range(0, cols.size, _COLUMN_BLOCK):
        block = cols[i:i + _COLUMN_BLOCK]
        k = block.size
        B, Y, PY = (s[:dim * k].reshape(dim, k) for s in store)
        PY.fill(0.0)
        PY[block, np.arange(k)] = 1.0
        Pi.apply(PY, out=B)
        phi.apply(B, out=Y)
        Pi.apply(Y, out=PY)
        r1 = max(r1, float(np.max(np.abs(np.subtract(PY, B, out=B)))))
        phi.apply(PY, out=B)
        r2 = max(r2, float(np.max(np.abs(np.subtract(B, Y, out=B)))))
    return {"pi_phi_pi": r1, "phi_pi_phi": r2,
            "valid": bool(r1 < 1e-10 and r2 < 1e-10)}


def composite_gauge(phi: KinOperator, o1: KinOperator, o2: KinOperator,
                    C: KinOperator) -> KinOperator:
    """exp(i O1 C) Phi exp(i O2 C) for hermitian Dirac observables O1, O2
    and C diagonal and hermitian (UnsupportedForm otherwise), composed from
    two ``KinOperator.exp`` actions around Phi; no D x D form is built."""
    _diagonal_spectrum(C)
    return KinOperator.exp(o1 @ C, 1j) @ phi @ KinOperator.exp(o2 @ C, 1j)


def gauge_transform_state(omega: AlgebraicState, phi_b: KinOperator,
                          Pi: KinOperator) -> AlgebraicState:
    """omega'(.) = omega(Pi Phi_B (.)): the same physical data in gauge B.

    For a right-solution state the transform preserves normalization and
    every Dirac-observable value; no renormalization is applied, so a
    drifting omega'(1) flags a state that was not a solution.
    """
    if omega.bra is None:
        raise ConfigError("gauge transforms need a Hilbert-backed state")
    _check_space(omega.space, Pi, phi_b)
    new_bra = phi_b.apply_adjoint(Pi.apply(omega.bra))
    return from_hilbert(new_bra, omega.ket, omega.space, omega.assignment,
                        omega.gens, omega.degree_bound, normalize=False)


def gauge_flow(omega: AlgebraicState, a: KinOperator, lam: float,
               C: KinOperator) -> AlgebraicState:
    """omega'(.) = omega(exp(i lam a C / hbar) (.)): the bra moves by the
    adjoint of ``KinOperator.exp(a @ C, i lam / hbar)`` (IllConditionedFlow;
    a phase flow such as a = 1 passes at any lam), for C diagonal and
    hermitian (UnsupportedForm).
    Physically equivalent to omega on right-solution states, with
    d/dlam omega'(b)|_0 = omega([b, aC])/(i hbar) the derivation flow.
    """
    if omega.bra is None:
        raise ConfigError("gauge flows need a Hilbert-backed state")
    _check_space(omega.space, a, C)
    _diagonal_spectrum(C)
    flow = KinOperator.exp(a @ C, 1j * lam / omega.space.hbar)
    return from_hilbert(flow.apply_adjoint(omega.bra), omega.ket, omega.space,
                        omega.assignment, omega.gens, omega.degree_bound,
                        normalize=False)


def system_projector(frame: OrientationFrame, Pi: KinOperator) -> KinOperator:
    """pi_hat = 1_R x <rho|Pi|rho>, the physically accessible system block.

    Independent of which orientation is used; on a commensurate lattice
    with a linear constraint this is the identity (every frame is ideal).
    Pi must be diagonal and hermitian (UnsupportedForm otherwise), and so
    is pi_hat: |<p_k|rho>| = 1, so the block's diagonal is the sum of Pi's
    diagonal along the frame axis.
    """
    _check_space(Pi.space, frame)
    dims = frame.space.dims
    d = _diagonal_spectrum(Pi).reshape(dims).sum(axis=frame.factor,
                                               keepdims=True)
    return KinOperator.from_diag(frame.space,
                                 np.broadcast_to(d, dims).reshape(-1))
