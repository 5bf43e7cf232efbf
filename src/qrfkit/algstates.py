"""Algebraic states: normalized linear functionals on the kinematical algebra.

A state is backed either by a bra/ket pair on a lattice space together with
an assignment of generators to operators, or by an explicit value table on
normal-ordered monomials up to a degree bound.  The frame-conditioned
construction pairs a physical ket with its orientation-projected bra, which
makes the state an exact right solution of the constraint and an exact
left-multiplicative state of the frame orientation on the lattice.

The bounded-degree checks in this module are finite surrogates of
all-degree statements; every report records the bound it was run at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from . import ncalg
from .errors import DegreeExceeded, NotPhysical, UnsupportedSupport
from .kinspace import KinOperator, LatticeSpace
from .ncalg import HBAR, AlgebraElement, GeneratorSet, commutator

DEFAULT_DEGREE_BOUND = 8


@dataclass(eq=False)
class AlgebraicState:
    """Complex linear functional on AlgebraElements up to a degree bound."""

    gens: GeneratorSet
    degree_bound: int = DEFAULT_DEGREE_BOUND
    # Hilbert backing
    space: LatticeSpace = None
    bra: np.ndarray = None
    ket: np.ndarray = None
    assignment: dict = None
    # table backing
    table: dict = None
    table_hbar: float = 1.0
    _cache: dict = field(default_factory=dict)

    @property
    def hbar(self) -> float:
        return self.space.hbar if self.space is not None else self.table_hbar

    def evaluate(self, a: AlgebraElement) -> complex:
        if a.gens is not self.gens:
            raise ValueError("element belongs to a different generator set")
        if a.degree() > self.degree_bound:
            raise DegreeExceeded(
                f"degree {a.degree()} exceeds bound {self.degree_bound}")
        out = 0j
        for m, c in a.terms.items():
            out += ncalg.numeric(c, self.hbar) * self._monomial_value(m)
        return out

    __call__ = evaluate

    def _monomial_value(self, m: tuple) -> complex:
        v = self._cache.get(m)
        if v is not None:
            return v
        if self.table is not None:
            if m not in self.table:
                raise DegreeExceeded(f"monomial {m} missing from value table")
            v = complex(self.table[m])
        else:
            vec = self.ket
            for g in reversed(ncalg.monomial_word(m)):
                vec = self.assignment[self.gens.names[g]].apply(vec)
            v = complex(np.vdot(self.bra, vec))
        self._cache[m] = v
        return v

    def value_table(self, max_degree: int = None) -> dict:
        """Monomial -> value map, for golden-file comparison."""
        d = self.degree_bound if max_degree is None else max_degree
        return {m: self._monomial_value(m) for m in self.gens.monomial_basis(d)}

    def serialize(self, max_degree: int = None) -> str:
        table = self.value_table(max_degree)
        lines = []
        for m in sorted(table, key=lambda m: (sum(m), m)):
            mono = "*".join(f"{self.gens.names[g]}^{e}"
                            for g, e in enumerate(m) if e) or "1"
            v = table[m]
            lines.append(f"{mono} : {v.real:+.15e}{v.imag:+.15e}j")
        return "\n".join(lines)


def from_hilbert(bra: np.ndarray, ket: np.ndarray, space: LatticeSpace,
                 assignment: dict, gens: GeneratorSet,
                 degree_bound: int = DEFAULT_DEGREE_BOUND,
                 normalize: bool = True) -> AlgebraicState:
    """State omega(a) = <bra| represent(a) |ket>, normalized to omega(1) = 1."""
    bra = np.asarray(bra, dtype=complex)
    ket = np.asarray(ket, dtype=complex)
    if normalize:
        n = complex(np.vdot(bra, ket))
        if abs(n) < 1e-14:
            raise ValueError("bra/ket pair has vanishing overlap")
        bra = bra / np.conj(n)
    return AlgebraicState(gens, degree_bound, space=space, bra=bra, ket=ket,
                          assignment=assignment)


def from_table(gens: GeneratorSet, table: dict,
               degree_bound: int = DEFAULT_DEGREE_BOUND,
               hbar: float = 1.0) -> AlgebraicState:
    unit = gens.unit_monomial()
    if abs(table.get(unit, 0.0) - 1.0) > 1e-12:
        raise ValueError("value table must be normalized: omega(1) = 1")
    return AlgebraicState(gens, degree_bound, table=dict(table),
                          table_hbar=hbar)


def frame_state(space: LatticeSpace, C: KinOperator, frame, rho: float,
                psi_phys: np.ndarray, assignment: dict, gens: GeneratorSet,
                degree_bound: int = DEFAULT_DEGREE_BOUND) -> AlgebraicState:
    """Gauge-fixed frame state: omega(a) = <psi|(|rho><rho| x 1) a|psi>.

    ``psi_phys`` must solve the constraint; the bra side is the physical
    state conditioned on the frame orientation, which realizes the frame
    gauge conditions exactly.
    """
    from .relobs import orientation_state_at

    resid = np.linalg.norm(C.apply(psi_phys))
    if resid > 1e-9 * np.linalg.norm(psi_phys):
        raise NotPhysical(f"||C psi|| = {resid:.2e} exceeds tolerance")
    v = orientation_state_at(frame, rho)
    bra = space.apply_factor(frame.factor, np.outer(v, v.conj()), psi_phys)
    return from_hilbert(bra, psi_phys, space, assignment, gens, degree_bound)


def _max_abs_value(omega: AlgebraicState, degree: int, product) -> float:
    """max |omega(product(a))| over the monomials a with deg a <= degree."""
    gens = omega.gens
    return max(abs(omega.evaluate(product(gens.element({m: 1}))))
               for m in gens.monomial_basis(max(degree, 0)))


def check_constraint_surface(omega: AlgebraicState, C: AlgebraElement,
                             degree: int = None) -> float:
    """max |omega(a C)| over the monomial basis with deg a <= D - deg C."""
    d = (omega.degree_bound if degree is None else degree) - C.degree()
    return _max_abs_value(omega, d, lambda a: a * C)


def check_frame_gauge(omega: AlgebraicState, z_name: str, rho: float,
                      degree: int = None) -> float:
    """max |omega((Z - rho) a)| over the monomial basis with deg a <= D - 1.

    rho is used exactly as given (a float stays a float coefficient).
    """
    z = omega.gens.gen(z_name) - rho * omega.gens.one()
    d = (omega.degree_bound if degree is None else degree) - 1
    return _max_abs_value(omega, d, lambda a: z * a)


# ---------------------------------------------------------------------------
# reference-frame verification


@dataclass
class FrameReport:
    """Outcome of the bounded-degree algebraic reference-frame checks."""

    degree: int
    z_selfadjoint: bool
    c_selfadjoint: bool
    conjugate_commutator: bool
    no_left_annihilator: bool
    commutant_meets_ideal_trivially: bool
    generates_algebra: bool
    notes: tuple = ()

    def passed(self) -> bool:
        return all((self.z_selfadjoint, self.c_selfadjoint,
                    self.conjugate_commutator, self.no_left_annihilator,
                    self.commutant_meets_ideal_trivially,
                    self.generates_algebra))


def _coef_vector(elem: AlgebraElement, basis_index: dict) -> np.ndarray:
    v = np.zeros(len(basis_index), dtype=complex)
    for m, c in elem.terms.items():
        v[basis_index[m]] = ncalg.numeric(c, 1.0)
    return v


def verify_reference_frame(gens: GeneratorSet, z_name: str,
                           C: AlgebraElement,
                           degree: int = 4) -> FrameReport:
    """Check the algebraic reference-frame conditions at a bounded degree.

    Exact symbolic checks: Z* = Z, C* = C, [Z, C] = i*hbar*1.  The
    injectivity of a -> aC uses an exact leading-monomial certificate when
    one exists and otherwise falls back to a floating-point rank test (the
    outcome is a report, not a proof).  The commutant-ideal intersection and
    the generation property are rank tests over the degree-bounded monomial
    basis.  Failures are reported, never raised.
    """
    notes = []
    z = gens.gen(z_name)
    z_sa = ncalg.adjoint(z) == z
    c_sa = ncalg.adjoint(C) == C
    conj = commutator(z, C) == sp.I * HBAR * gens.one()

    lo_basis = gens.monomial_basis(degree - C.degree())
    # a -> aC is injective iff the leading monomials are distinct
    leads = []
    triangular = True
    images = []
    for m in lo_basis:
        el = gens.element({m: 1}) * C
        images.append(el)
        if el.is_zero():
            triangular = False
            break
        lead = max(el.terms, key=lambda k: (sum(k), k))
        leads.append(lead)
    if triangular and len(set(leads)) == len(leads):
        no_annihilator = True
    else:
        big_basis = gens.monomial_basis(degree)
        idx = {m: i for i, m in enumerate(big_basis)}
        M = np.array([_coef_vector(el, idx) for el in images]).T
        no_annihilator = (np.linalg.matrix_rank(M, tol=1e-9) == len(images))
        notes.append("injectivity decided by numerical rank")

    # commutant of Z at the bounded degree
    big_basis = gens.monomial_basis(degree)
    idx = {m: i for i, m in enumerate(big_basis)}
    commutant = [m for m in big_basis
                 if commutator(z, gens.element({m: 1})).is_zero()]
    B_z = np.array([_coef_vector(gens.element({m: 1}), idx)
                    for m in commutant]).T
    B_img = np.array([_coef_vector(el, idx) for el in images
                      if not el.is_zero()]).T
    if B_img.size == 0:
        trivial_meet = True
    else:
        r_z = np.linalg.matrix_rank(B_z, tol=1e-9)
        r_i = np.linalg.matrix_rank(B_img, tol=1e-9)
        r_all = np.linalg.matrix_rank(np.hstack([B_z, B_img]), tol=1e-9)
        trivial_meet = (r_all == r_z + r_i)

    # Z' together with C spans everything at the bounded degree
    span = np.hstack([B_z, B_img]) if B_img.size else B_z
    generates = (np.linalg.matrix_rank(span, tol=1e-9) == len(big_basis))

    return FrameReport(degree, z_sa, c_sa, conj, no_annihilator,
                       trivial_meet, generates, tuple(notes))


def check_almost_positive(omega: AlgebraicState, names,
                          degree: int = None) -> float:
    """Minimum Gram eigenvalue of omega(a* b) over a monomial subalgebra basis.

    ``names`` selects the generators spanning the subalgebra (e.g. the
    system names, or a frame pair to expose the failure of full positivity).
    The Gram matrix of a positive state is PSD; the minimum eigenvalue of
    its hermitian part is returned (>= -1e-10 counts as positive).
    """
    gens = omega.gens
    d = (omega.degree_bound if degree is None else degree) // 2
    allowed = {gens.index[n] for n in names}
    basis = [m for m in gens.monomial_basis(d)
             if all(e == 0 or g in allowed for g, e in enumerate(m))]
    n = len(basis)
    M = np.zeros((n, n), dtype=complex)
    for i, ma in enumerate(basis):
        a_star = ncalg.adjoint(gens.element({ma: 1}))
        for j, mb in enumerate(basis):
            M[i, j] = omega.evaluate(a_star * gens.element({mb: 1}))
    herm = (M + M.conj().T) / 2
    return float(np.min(np.linalg.eigvalsh(herm)))


# ---------------------------------------------------------------------------
# ideal-frame transformation law


def dress_system_element(gens: GeneratorSet, f_s: AlgebraElement,
                         g_s: AlgebraElement, q_name: str, rho: float,
                         max_terms: int = 24) -> AlgebraElement:
    """Relational dressing of a system element by the frame orientation.

    Nested-commutator series
    ``sum_n (i (q - rho))^n / (hbar^n n!) [f_S, G_S]_n``; terminates when
    the adjoint action is nilpotent (canonical systems), otherwise raises.
    Each nesting carries one power of hbar, so the division is exact; rho
    is used exactly as given.
    """
    q_shift = gens.gen(q_name) - rho * gens.one()
    out = f_s
    nested = f_s
    prefactor = gens.one()
    try:
        for n in range(1, max_terms + 1):
            nested = commutator(nested, g_s)
            if nested.is_zero():
                return out
            prefactor = prefactor * q_shift
            term = AlgebraElement(
                gens, {m: sp.expand((sp.I / HBAR) ** n * c / sp.factorial(n))
                       for m, c in nested.terms.items()})
            out = out + prefactor * term
    except DegreeExceeded:
        pass
    raise UnsupportedSupport(
        "nested-commutator series does not terminate; "
        "supply a closed form for this system algebra")


def transform_frame(omega_b: AlgebraicState, *, frame_a, rho_a: float,
                    frame_b, rho_b: float, f: AlgebraElement,
                    g_s: AlgebraElement) -> complex:
    """Value the A-gauge state assigns to f, from B-gauge data.

    ``frame_a`` and ``frame_b`` are (orientation, momentum) generator-name
    pairs; ``f`` must be supported on the B-frame pair and the system
    (normal ordering keeps the orientation powers of the B-frame on the
    left, as the substitution formula requires); ``g_s`` is the system
    transformation generator.  Computes

        omega_B( f_B((rho_B+rho_A) 1 - q_A, -p_A - G_S) * O_A^{rho_A}(f_S) )

    term by term, with rho_A and rho_B used exactly as given.
    """
    gens = omega_b.gens
    qa, pa = frame_a
    qb, pb = frame_b
    ia, ipa = gens.index[qa], gens.index[pa]
    ib, ipb = gens.index[qb], gens.index[pb]

    arg_q = (rho_b + rho_a) * gens.one() - gens.gen(qa)
    arg_p = -gens.gen(pa) - g_s

    total = 0j
    for m, c in f.terms.items():
        if m[ia] or m[ipa]:
            raise UnsupportedSupport(
                "f must be supported on the B frame and the system only")
        a_pow, b_pow = m[ib], m[ipb]
        sys_m = tuple(0 if g in (ib, ipb) else e for g, e in enumerate(m))
        sub = gens.one()
        for _ in range(a_pow):
            sub = sub * arg_q
        for _ in range(b_pow):
            sub = sub * arg_p
        f_s = gens.element({sys_m: 1})
        dressed = dress_system_element(gens, f_s, g_s, qa, rho_a)
        val = omega_b.evaluate(sub * dressed)
        total += ncalg.numeric(c, omega_b.hbar) * val
    return total
