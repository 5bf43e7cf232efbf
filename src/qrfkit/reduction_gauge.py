"""Conditioning on frame orientations: reduction maps, QRF changes, gauges.

Conditioning is one ``LatticeSpace.apply_factor`` on the frame's slot: the
reduction map applies the orientation bra <rho| (1 x N), its inverse the
ket |rho> (N x 1) and then Pi, both to a vector or a block of columns.  The
QRF change V = R_B(rho_B) Pi R_A^dag(rho_A) is kept as these maps.

Generalized gauge maps Phi satisfy Pi Phi Pi = Pi on the constraint kernel.
A gauge map is a ``KinOperator`` like any other operator on the
kinematical space: the reference gauge Theta(rho) = |rho><rho| x 1 stays
factor-local and is applied by tensor contraction, while a composite gauge
exp(i O1 C) Phi exp(i O2 C) is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algstates import AlgebraicState, from_hilbert
from .errors import IllConditionedFlow, SameFrame, UnsupportedSupport
from .kinspace import _COLUMN_BLOCK as _GAUGE_BLOCK
from .kinspace import (KinOperator, LatticeSpace, _check_dense,
                       _diagonal_spectrum, check_physical, tensor_space)
from .relobs import OrientationFrame, orientation_state_at, theta_projector


def reduced_space(space: LatticeSpace, factor: int) -> LatticeSpace:
    """The space without ``factor``, validated by ``tensor_space``."""
    space._factor(factor)
    return tensor_space(space.factors[:factor] + space.factors[factor + 1:],
                        space.hbar)


def reduce_state(frame: OrientationFrame, rho: float, psi_phys: np.ndarray,
                 C: KinOperator = None) -> np.ndarray:
    """Page-Wootters conditioning: (<rho| x 1) psi on the remaining factors."""
    if C is not None:
        check_physical(C, psi_phys)
    bra = orientation_state_at(frame, rho).conj()[None, :]
    return frame.space.apply_factor(frame.factor, bra, psi_phys)


def embed_state(frame: OrientationFrame, rho: float, phi: np.ndarray,
                Pi: KinOperator) -> np.ndarray:
    """Inverse conditioning: Pi (phi x |rho>), a state annihilated by C."""
    ket = orientation_state_at(frame, rho)[:, None]
    return Pi.apply(frame.space.apply_factor(frame.factor, ket, phi))


@dataclass(frozen=True, eq=False)
class QRFTransform:
    """V = R_B(rho_B) Pi R_A^dag(rho_A), from reduced-A to reduced-B states.

    Holds the frames, orientations and Pi; ``apply`` embeds from A and
    reduces onto B, with one ``Pi.apply`` per vector or column block.
    ``matrix`` (target x source reduced dims) is built on first read, from
    identity column blocks whose D x k images are the size of the result.
    """

    frame_a: OrientationFrame
    rho_a: float
    frame_b: OrientationFrame
    rho_b: float
    Pi: KinOperator

    def apply(self, phi: np.ndarray) -> np.ndarray:
        return reduce_state(self.frame_b, self.rho_b,
                            embed_state(self.frame_a, self.rho_a, phi, self.Pi))

    @cached_property
    def matrix(self) -> np.ndarray:
        dim = self.frame_a.space.dim
        n_a, n_b = dim // self.frame_a.N, dim // self.frame_b.N
        k = n_a // self.frame_b.N  # D x k holds as many entries as n_b x n_a
        out = np.empty((n_b, n_a), dtype=complex)
        for i in range(0, n_a, k):
            out[:, i:i + k] = self.apply(np.eye(n_a, k, -i))
        out.setflags(write=False)
        return out


def qrf_transform(frame_a: OrientationFrame, rho_a: float,
                  frame_b: OrientationFrame, rho_b: float,
                  Pi: KinOperator) -> QRFTransform:
    """V = R_B(rho_B) o R_A^dag(rho_A), mapping reduced-A to reduced-B states."""
    if frame_a.factor == frame_b.factor:
        raise SameFrame("QRF transformation needs two distinct frames")
    return QRFTransform(frame_a, rho_a, frame_b, rho_b, Pi)


def conjugate_observable(V: QRFTransform, f: np.ndarray) -> np.ndarray:
    """V f V^dag: the observable re-expressed in the target perspective."""
    f = np.asarray(f, dtype=complex)
    n = V.frame_a.space.dim // V.frame_a.N
    if f.shape != (n, n):
        raise UnsupportedSupport(
            f"observable must act on the source reduced space (dim {n})")
    return V.matrix @ f @ V.matrix.conj().T


# ---------------------------------------------------------------------------
# generalized gauges


def theta_gauge(frame: OrientationFrame, rho: float) -> KinOperator:
    """The reference gauge Theta(rho) = |rho><rho| x 1, factor-local."""
    return theta_projector(frame, rho)


def verify_gauge(phi: KinOperator, Pi: KinOperator) -> dict:
    """Max residuals of the two defining identities on the kernel.

    Returns ``{"pi_phi_pi": ..., "phi_pi_phi": ..., "valid": bool}`` where
    the first entry is ||Pi Phi Pi - Pi||_max and the second
    ||(Phi Pi Phi - Phi) Pi||_max (the identity restricted to physical
    states).  Both operators act only through ``apply``.  For a projector
    Pi_jj = ||Pi e_j||^2, so only the columns j with Pi_jj != 0 can be
    non-zero; they are taken as unit columns E in blocks of
    ``_GAUGE_BLOCK`` (256), and with B = Pi E, Y = Phi B the residuals are
    max |Pi Y - B| and max |Phi Pi Y - Y|.  B, Y and Pi Y are written into
    three block arrays made once; E is written into the one that later
    holds Pi Y, and both differences are taken in place.
    """
    Pi._check(phi)
    cols = np.flatnonzero(Pi.diagonal())
    dim, width = Pi.space.dim, min(_GAUGE_BLOCK, cols.size)
    store = np.empty((3, dim * width), dtype=complex)
    r1 = r2 = 0.0
    for i in range(0, cols.size, _GAUGE_BLOCK):
        block = cols[i:i + _GAUGE_BLOCK]
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


def composite_gauge(phi: KinOperator, o1: np.ndarray, o2: np.ndarray,
                    C: KinOperator) -> KinOperator:
    """exp(i O1 C) Phi exp(i O2 C) for dense hermitian Dirac observables
    O1, O2 and C diagonal and hermitian (UnsupportedForm otherwise)."""
    from scipy.linalg import expm  # here, so importing qrfkit skips it

    c = _diagonal_spectrum(C)
    _check_dense(phi.space.dim)
    left = expm(1j * np.asarray(o1) * c)
    right = expm(1j * np.asarray(o2) * c)
    return KinOperator.from_matrix(phi.space, left @ phi.matrix @ right)


def gauge_transform_state(omega: AlgebraicState, phi_b: KinOperator,
                          Pi: KinOperator) -> AlgebraicState:
    """omega'(.) = omega(Pi Phi_B (.)): the same physical data in gauge B.

    For a right-solution state the transform preserves normalization and
    every Dirac-observable value; no renormalization is applied, so a
    drifting omega'(1) flags a state that was not a solution.
    """
    if omega.bra is None:
        raise ValueError("gauge transforms need a Hilbert-backed state")
    new_bra = phi_b.apply_adjoint(Pi.apply(omega.bra))
    return from_hilbert(new_bra, omega.ket, omega.space, omega.assignment,
                        omega.gens, omega.degree_bound, normalize=False)


def gauge_flow(omega: AlgebraicState, a: KinOperator, lam: float,
               C: KinOperator, max_exponent: float = 50.0) -> AlgebraicState:
    """omega'(.) = omega(exp(i lam a C / hbar) (.)).

    Physically equivalent to omega on right-solution states; the
    infinitesimal version reproduces the derivation flow
    d/dlam omega'(b)|_0 = omega([b, aC])/(i hbar).

    C must be diagonal and hermitian (UnsupportedForm otherwise).  The
    new bra is exp(-i lam X^dag / hbar) applied to the old one, with
    X = a @ C formed once; its exponential is never formed.  A diagonal X
    (``a`` diagonal) gives an elementwise phase on the bra and
    ||X||_2 = max |X_ii| exactly.  Otherwise the exponential acts on the
    bra through ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham
    2011) on an operator built from ``X.apply_adjoint`` and ``X.apply``,
    with tr(X) = <diag(a), spectrum of C> as its ``traceA``, and the
    ||X||_2 in the guard is a power-iteration estimate (from below).  The
    guard raises ``IllConditionedFlow`` when |lam| ||X||_2 / hbar exceeds
    ``max_exponent``.
    """
    if omega.bra is None:
        raise ValueError("gauge flows need a Hilbert-backed state")
    hbar = omega.space.hbar
    c = _diagonal_spectrum(C)
    X = a @ C
    if X.is_diagonal:
        norm = float(np.max(np.abs(X.diag)))
    else:
        norm = _spectral_norm_estimate(X)
    scale = abs(lam) * norm / hbar
    if scale > max_exponent:
        raise IllConditionedFlow(
            f"|lam|*||aC||/hbar = {scale:.1f} exceeds {max_exponent}")
    if X.is_diagonal:
        new_bra = np.exp(-1j * lam * X.diag.conj() / hbar) * omega.bra
    else:
        # imported here, so importing qrfkit skips it
        from scipy.sparse.linalg import LinearOperator, expm_multiply

        coeff = -1j * lam / hbar
        trace = coeff * np.conj(np.dot(a.diagonal(), c))
        X_dag = LinearOperator((X.space.dim,) * 2, dtype=complex,
                               matvec=X.apply_adjoint, rmatvec=X.apply)
        new_bra = expm_multiply(coeff * X_dag, omega.bra, traceA=trace)
    return from_hilbert(new_bra, omega.ket, omega.space, omega.assignment,
                        omega.gens, omega.degree_bound, normalize=False)


def _spectral_norm_estimate(X: KinOperator) -> float:
    """||X||_2 from below, by power iteration on X^dag X from a fixed start.

    Stops when two iterates agree to 1e-6 relative, which is ample for a
    guard on the exponent's size, or after 100 iterations.
    """
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


def system_projector(frame: OrientationFrame, Pi: KinOperator) -> KinOperator:
    """pi_hat = 1_R x <rho|Pi|rho>, the physically accessible system block.

    Independent of which orientation is used; on a commensurate lattice
    with a linear constraint this is the identity (every frame is ideal).
    Pi must be diagonal and hermitian (UnsupportedForm otherwise), and so
    is pi_hat: |<p_k|rho>| = 1, so the block's diagonal is the sum of Pi's
    diagonal along the frame axis.
    """
    dims = frame.space.dims
    d = _diagonal_spectrum(Pi).reshape(dims).sum(axis=frame.factor,
                                               keepdims=True)
    return KinOperator.from_diag(frame.space,
                                 np.broadcast_to(d, dims).reshape(-1))
