"""Algebraic states: normalized linear functionals on the kinematical algebra.

A state is backed either by a bra/ket pair on a lattice space together with
an assignment of generators to operators, or by an explicit value table on
normal-ordered monomials up to a degree bound.  The frame-conditioned
construction pairs a physical ket with its orientation-projected bra, which
makes the state an exact right solution of the constraint and an exact
left-multiplicative state of the frame orientation on the lattice.

It also holds the representation, the one code that applies generators to
vectors: the prefix walk and the assignment check, ``verify_assignment``.

The bounded-degree checks in this module are finite surrogates of
all-degree statements; every report records the bound it was run at.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from itertools import count
from math import factorial
from operator import mul

import numpy as np

from . import ncalg
from .errors import (ConfigError, DegreeExceeded, RelationViolation,
                     UnsupportedSupport)
from .kinspace import (_VANISH_RTOL, KinOperator, LatticeSpace, _check_space,
                       _unit_blocks, check_physical, finite, positive_finite,
                       reduced_space, split_adjoint)
from .ncalg import AlgebraElement, Coef, GeneratorSet, commutator
from .relobs import orientation_state_at

DEFAULT_DEGREE_BOUND = 8


@dataclass(eq=False)
class AlgebraicState:
    """Complex linear functional on AlgebraElements up to a degree bound.

    On a Hilbert backing omega(m) = <bra| y^m |ket>, cached per monomial;
    a state that is not a frame state is valued by just that, each word
    applied to the ket, and its bra is never acted on.

    A frame state (``frame_state``) also carries ``reduction``: the frame
    factor F, v = |rho> on F and chi with bra = v (x) chi, and every
    generator's adjoint cut at F (``kinspace.split_adjoint``).  Its values
    are Page-Wootters reduced values: with m = a r, a the generators on F
    and r the rest, omega(m) = <y^r^dag chi| kappa_a>, where kappa_a =
    (<y^a^dag v| x 1) ket lives on the space without F.  That equals
    <bra| y^m |ket> up to rounding, and exactly so only as far as the cut
    is: supports are decided to HERM_TOL.  Its D-vector bra is built only
    when ``bra`` is first read.  Either walk follows a plan that depends on
    no state (``ncalg._walk_plan``), owned by ``gens.structure.plans``: an
    LRU of ``ncalg.PLAN_CACHE`` plans keyed by the frame mask and monomials.

    A table-backed state (``from_table``) has no space: its table is the
    cache.  Any state values elements up to its ``degree_bound``.
    """

    gens: GeneratorSet
    degree_bound: int = DEFAULT_DEGREE_BOUND
    # Hilbert backing; a frame state's bra is built on first read (``bra``)
    space: LatticeSpace = None
    _bra: np.ndarray = None
    ket: np.ndarray = None
    assignment: dict = None
    # frame states: (F, v, chi, {g: F-side y_g^dag}, {name: rest y^dag})
    reduction: tuple = None
    # table backing: the values are the cache
    table_hbar: float = 1.0
    _cache: dict = field(default_factory=dict)
    # the walk's letters: (frame mask or None, the operator each generator
    # is on the walk's side), resolved once per state
    _walk: tuple = None

    def __post_init__(self):
        self.degree_bound = ncalg._degree(self.degree_bound)
        names = self.gens.names
        if self.reduction is not None:
            on_f, rest = self.reduction[3:]
            self._walk = (tuple(int(g in on_f) for g in range(len(names))),
                          [rest.get(n) for n in names])
        elif self.assignment is not None:
            self._walk = None, [self.assignment[n] for n in names]

    @property
    def hbar(self) -> float:
        return self.space.hbar if self.space is not None else self.table_hbar

    @property
    def bra(self) -> np.ndarray:
        """The D-vector bra (None for a table state); a frame state with a
        ``reduction`` builds v (x) chi on first read and keeps it."""
        if self._bra is None and self.reduction is not None:
            factor, v, chi = self.reduction[:3]
            self._bra = self.space.apply_factor(factor, v[:, None], chi)
        return self._bra

    def evaluate(self, a: AlgebraElement) -> complex:
        """omega(a), through ``evaluate_all``."""
        return self.evaluate_all([a])[0]

    __call__ = evaluate

    def _bounded(self, degree=None) -> int:
        """``ncalg._degree`` of ``degree`` (default: the bound), <= bound."""
        d = ncalg._degree(self.degree_bound if degree is None else degree)
        if d > self.degree_bound:
            raise DegreeExceeded(
                f"degree {d} exceeds bound {self.degree_bound}")
        return d

    def evaluate_all(self, elements) -> list:
        """omega of each element, sum_m numeric(c_m) omega(m) from 0j; the
        union of their uncached monomials is valued by one ``_fill_cache``."""
        for a in elements:
            if a.gens is not self.gens:
                raise ConfigError(
                    "element belongs to a different generator set")
            self._bounded(a.degree())
        self._fill_cache(dict.fromkeys(m for a in elements for m in a.terms))
        return [sum((ncalg.numeric(c, self.hbar) * self._cache[m]
                     for m, c in a.terms.items()), 0j) for a in elements]

    def _fill_cache(self, monomials):
        """Cache the value of each uncached monomial; with none missing,
        return before any other work.  The walk's plan is
        ``gens.structure.plans(mask, missing)``, mask None for the plain
        walk: built once, kept in that structure's LRU of
        ``ncalg.PLAN_CACHE`` plans.  Each letter is its operator's
        ``apply``, the operators found once per state (``_walk``).

        Frame state (``reduction`` set): the Page-Wootters reduced value
        vdot(y^r^dag chi, kappa_a) of ``_fill_reduced``.  Any other Hilbert
        backing: vdot(bra, y^w ket) for w the word of m, from one prefix
        walk over the distinct words (the unit is vdot(bra, ket)), with at
        most degree walk buffers, freed on return.  A table state raises
        ConfigError for a monomial its table lacks.

        Each value is bitwise the same whichever call computes it.
        """
        missing = [m for m in monomials if m not in self._cache]
        if not missing:
            return
        if self.space is None:
            raise ConfigError(
                f"monomial {missing[0]} missing from value table")
        if self.reduction is not None:
            return self._fill_reduced(missing)
        _, ops = self._walk
        _, nodes = self.gens.structure.plans(None, tuple(missing))
        bra = self.bra
        for pairs, vec in _prefix_walk(nodes, ops, self.ket):
            for _, m in pairs:
                self._cache[m] = complex(np.vdot(bra, vec))

    def _fill_reduced(self, missing):
        """Cache vdot(y^r^dag chi, kappa_a) for each monomial m = a r.

        The plan ``gens.structure.plans(mask, missing)``, mask 1 on the
        frame's generators (one of ``ncalg.PLAN_CACHE`` kept), lists the
        distinct a and the reversed words of the r.  kappa_a = (<u_a| x 1)
        ket is one length-D contraction per distinct a, with u_a =
        y^a^dag v made from v by the n x n adjoints in word order.
        y^r^dag chi comes from one prefix walk over the reversed words, on
        vectors of size D/n with at most degree walk buffers; no y_g acts
        on the full space.
        """
        factor, v, chi, on_f, _ = self.reduction
        mask, ops = self._walk
        parts, nodes = self.gens.structure.plans(mask, tuple(missing))
        kappas = []
        for a in parts:
            u = v
            for g in ncalg.monomial_word(a):
                u = on_f[g] @ u
            kappas.append(self.space.apply_factor(factor, u.conj()[None, :],
                                                  self.ket))
        for pairs, xi in _prefix_walk(nodes, ops, chi):
            for i, m in pairs:
                self._cache[m] = complex(np.vdot(xi, kappas[i]))

    def value_table(self, max_degree: int = None) -> dict:
        """Monomial -> value map (golden files), by ``_fill_cache``.

        A frame state's values are Page-Wootters reduced values,
        vdot(y^r^dag chi, kappa_a) for m = a r split at the frame factor (a
        split exact to HERM_TOL, where supports are decided): one
        contraction per distinct a and a walk over the r at D/n.  Any other
        Hilbert backing values <bra| y^m |ket>: one walk over the words of
        degree <= d, with at most d walk buffers of size D alive, freed on
        return.  Either walk's plan is cached under the frame mask and the
        missing monomials (``_fill_cache``), so a second table of a model,
        frame and degree builds none."""
        d = self._bounded(max_degree)
        basis = self.gens.monomial_basis(d)
        self._fill_cache(basis)
        return {m: self._cache[m] for m in basis}

    def serialize(self, max_degree: int = None) -> str:
        return "\n".join(
            f"{ncalg._monomial_text(self.gens.names, m)} : "
            f"{v.real:+.15e}{v.imag:+.15e}j"
            for m, v in self.value_table(max_degree).items())


def _overlap(bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra|ket>; ConfigError when ||bra|| ||ket|| is not finite, checked
    first, or when |<bra|ket>| <= 1e-14 ||bra|| ||ket||."""
    scale = finite("||bra|| ||ket||",
                   float(np.linalg.norm(bra)) * float(np.linalg.norm(ket)))
    n = complex(np.vdot(bra, ket))
    if abs(n) <= _VANISH_RTOL * scale:
        raise ConfigError("bra/ket pair has vanishing overlap")
    return n


def _check_assignment(space: LatticeSpace, gens: GeneratorSet, assignment,
                      *ops) -> None:
    """ConfigError unless ``assignment`` maps every generator of ``gens``
    (naming the first one missing) and it and ``ops`` are on ``space``."""
    for name in gens.names:
        if name not in assignment:
            raise ConfigError(f"assignment has no generator {name!r}")
    _check_space(space, *ops, *assignment.values())


def from_hilbert(bra: np.ndarray, ket: np.ndarray, space: LatticeSpace,
                 assignment: dict, gens: GeneratorSet,
                 degree_bound: int = DEFAULT_DEGREE_BOUND,
                 normalize: bool = True) -> AlgebraicState:
    """State omega(a) = <bra| a |ket>, normalized to omega(1) = 1.

    Each monomial is valued by its definition, vdot(bra, y^m ket): the
    words are walked on the ket and the bra is never acted on.  ConfigError
    when bra or ket is not finite.
    """
    _check_assignment(space, gens, assignment)
    bra = np.asarray(bra, dtype=complex)
    ket = np.asarray(ket, dtype=complex)
    if bra.shape[:1] != (space.dim,) or ket.shape[:1] != (space.dim,):
        raise ConfigError(
            f"bra {bra.shape} and ket {ket.shape} on a space of {space.dim}")
    if normalize:
        bra = bra / np.conj(_overlap(bra, ket))
    else:
        finite("bra", bra)
        finite("ket", ket)
    return AlgebraicState(gens, degree_bound, space=space, _bra=bra, ket=ket,
                          assignment=assignment)


def from_table(gens: GeneratorSet, table: dict,
               degree_bound: int = DEFAULT_DEGREE_BOUND,
               hbar: float = 1.0) -> AlgebraicState:
    """State with the given monomial -> value table as its cache.

    ConfigError unless ``table`` is a mapping whose keys are exponent
    vectors (``GeneratorSet._monomial``) and whose values are finite, with
    omega(1) = 1.
    """
    hbar = positive_finite("hbar", hbar)
    if not isinstance(table, Mapping):
        raise ConfigError(f"value table must be a mapping, not "
                          f"{type(table).__name__}")
    cache = {gens._monomial(m): complex(v) for m, v in table.items()}
    if not all(map(np.isfinite, cache.values())):
        raise ConfigError("value table holds a value that is not finite")
    if abs(cache.get(gens.unit_monomial(), 0.0) - 1.0) > 1e-12:
        raise ConfigError("value table must be normalized: omega(1) = 1")
    return AlgebraicState(gens, degree_bound, table_hbar=hbar, _cache=cache)


def frame_state(space: LatticeSpace, C: KinOperator, frame, rho: float,
                psi_phys: np.ndarray, assignment: dict, gens: GeneratorSet,
                degree_bound: int = DEFAULT_DEGREE_BOUND) -> AlgebraicState:
    """Gauge-fixed frame state: omega(a) = <psi|(|rho><rho| x 1) a|psi>.

    ``psi_phys`` must solve the constraint; the bra side is the physical
    state conditioned on the frame orientation, which realizes the frame
    gauge conditions exactly.  It is v (x) chi, v = |rho> on the frame
    factor F and chi = (<v| x 1) psi (the Page-Wootters reduced state),
    divided by conj(<chi|chi>) = conj(<v (x) chi|psi>) as ``from_hilbert``
    normalizes.  A state with a ``reduction`` builds that D-vector only on
    the first read of ``bra`` (``gauge_transform_state`` and ``gauge_flow``
    read it; its values never do).

    When every generator's support lies on one side of F (to HERM_TOL),
    the state records F, v, chi and the cut adjoints, and its values are
    the reduced values of ``_fill_cache``: Page-Wootters expectation values
    in the space without F, exact as far as the supports are.  A generator
    that acts on F and another factor, or is stored dense or composed,
    leaves the state on the full-space walk of any Hilbert-backed state.
    """
    _check_assignment(space, gens, assignment, C, frame)
    check_physical(C, psi_phys)
    psi = np.asarray(psi_phys, dtype=complex)
    v = orientation_state_at(frame, rho)
    chi = space.apply_factor(frame.factor, v.conj()[None, :], psi)
    chi = chi / np.conj(_overlap(chi, chi))
    rest = reduced_space(space, frame.factor)
    parts = [split_adjoint(assignment[name], frame.factor, rest)
             for name in gens.names]
    reduction = bra = None
    if all(p is not None for p in parts):
        on_f = {g: p for g, p in enumerate(parts)
                if not isinstance(p, KinOperator)}
        off_f = {name: p for name, p in zip(gens.names, parts)
                 if isinstance(p, KinOperator)}
        reduction = (frame.factor, v, chi, on_f, off_f)
    else:
        bra = space.apply_factor(frame.factor, v[:, None], chi)
    return AlgebraicState(gens, degree_bound, space=space, _bra=bra, ket=psi,
                          assignment=assignment, reduction=reduction)


# ---------------------------------------------------------------------------
# the representation: words applied to vectors, relations checked


def _prefix_walk(nodes, ops, vec):
    """Yield (pairs, vector) at each node of a walk plan's ``nodes`` that
    ends a requested word (``ncalg._walk_plan``): the vector is y_w1 ...
    y_wn vec for the node's word w, its letter g applied by
    ``ops[g].apply(src, out=dst)`` to its parent's buffer.  The buffers are one complex array
    per depth (<= degree of them, made on first use; ``vec`` is never
    written), so a yielded vector is valid only until the walk's next step:
    use it at once or copy it."""
    bufs = [vec]
    for d, g, pairs in nodes:
        if d:  # depth first: bufs[d - 1] still holds the parent
            if d == len(bufs):
                bufs.append(np.empty(vec.shape, dtype=complex))
            ops[g].apply(bufs[d - 1], out=bufs[d])
        if pairs:
            yield pairs, bufs[d]


def verify_assignment(gens: GeneratorSet, space, assignment,
                      test_states=None) -> dict:
    """Check the relation table under an assignment (generator name to
    KinOperator), through ``apply`` only.

    Each relation [a, b] = i*hbar*sum_k alpha_k y_k is read from one residual
    on a column block V: R = a(bV) - b(aV) - sum_k i*hbar*alpha_k y_k V,
    with y_k V = V for the identity component.  Lie-type relations (no
    identity component) must hold as exact matrix identities: V runs over
    the D unit columns in the blocks of ``kinspace._unit_blocks``, and
    max |R| <= 1e-10, else RelationViolation.  Relations with an identity
    component (canonical pairs) cannot hold globally on a finite lattice;
    V holds the caller's localized test states as columns
    (D x len(test_states)) and the report gives max |v^dag R v| / v^dag v
    over them, or None without test states.
    """
    _check_assignment(space, gens, assignment)
    states = list(() if test_states is None else test_states)
    states = np.column_stack(states) if states else None
    report = {}
    for (i, j), comps in gens.relations.items():
        key = (gens.names[i], gens.names[j])
        a, b = assignment[key[0]], assignment[key[1]]
        terms = [(ncalg.numeric(ncalg.I_HBAR * alpha, space.hbar),
                  None if k == ncalg.IDENTITY else assignment[gens.names[k]])
                 for k, alpha in comps.items()]
        if ncalg.IDENTITY not in comps:
            report[key] = max(float(np.max(np.abs(_relation_residual(
                a, b, terms, eye)))) for _, eye in _unit_blocks(space.dim))
            if report[key] > 1e-10:
                raise RelationViolation(f"relation [{key[0]}, {key[1]}] "
                                        f"fails: residual {report[key]:.2e}")
        elif states is None:
            report[key] = None
        else:
            R = _relation_residual(a, b, terms, states)
            report[key] = float(np.max(
                np.abs(np.sum(states.conj() * R, axis=0))
                / np.sum(np.abs(states) ** 2, axis=0)))
    return report


def _relation_residual(a, b, terms, V: np.ndarray) -> np.ndarray:
    """R = a(bV) - b(aV) - sum c y V over ``terms`` (c, y); y None means 1."""
    R = a.apply(b.apply(V)) - b.apply(a.apply(V))
    for c, y in terms:
        R -= c * (V if y is None else y.apply(V))
    return R


def _max_abs_value(omega: AlgebraicState, degree: int,
                   left: AlgebraElement, right: AlgebraElement, name: str,
                   shift: Coef = None) -> float:
    """max |omega(left a right + shift a)| over deg a <= D - deg(left right),
    D = ``_bounded(degree)``; ConfigError, naming ``name``, when D is lower.

    The exact products left a right are the rows of ``gens.products``,
    built once per structure, elements and degree; their numeric rows at
    the state's hbar are cached with them, and each value is summed from 0j
    in row order, as ``evaluate`` sums.  A ``shift`` (right = 1) adds
    numeric(shift) omega(a) to row a's sum, and only then values the basis.
    """
    D, k = omega._bounded(degree), left.degree() + right.degree()
    if D < k:
        raise ConfigError(f"degree {D} is below deg {name} = {k}")
    degree = D - k
    table = omega.gens.products(left, right, degree)
    basis = omega.gens.monomial_basis(degree) if shift else []
    omega._fill_cache(table.columns + basis)
    value = omega._cache.__getitem__
    sums = (sum(map(mul, coefs, map(value, row)), 0j)
            for coefs, row in zip(table.numeric(omega.hbar), table.rows))
    if shift:
        s = ncalg.numeric(shift, omega.hbar)
        sums = (x + s * value(a) for x, a in zip(sums, basis))
    return max(map(abs, sums))


def check_constraint_surface(omega: AlgebraicState, C: AlgebraElement,
                             degree: int = None) -> float:
    """max |omega(a C)| over the monomial basis with deg a <= D - deg C.

    The products a C are the exact rows of ``gens.products`` for
    (1, C, D - deg C), built once per structure and shared with
    ``verify_reference_frame``; only their valuation is floating point
    (numeric coefficients at the state's hbar, cached with the rows, times
    the monomial values of ``omega``).  D is ``degree``, by default the
    state's degree bound; ConfigError when it is below deg C.
    """
    return _max_abs_value(omega, degree, omega.gens.one(), C, "C")


def check_frame_gauge(omega: AlgebraicState, z_name: str, rho: float,
                      degree: int = None) -> float:
    """max |omega((Z - rho) a)| over the monomial basis with deg a <= D - 1.

    The products Z a are the exact rows of ``gens.products`` for
    (Z, 1, D - 1), built once per structure whatever rho is and valued from
    their cached numeric rows; numeric(-rho) omega(a) is added to each at
    call time, rho as given (a float rho makes a float-tainted
    coefficient).  That is bitwise omega((Z - rho) a) unless a is a
    monomial of Z a (never for a canonical or central Z), where the two
    can round differently.  D is ``degree``, by default the state's degree
    bound; ConfigError when it is below 1, the degree of Z.
    """
    return _max_abs_value(omega, degree, omega.gens.gen(z_name),
                          omega.gens.one(), "Z", -ncalg._coef(rho))


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

    def passed(self) -> bool:
        return all(astuple(self)[1:])  # every check but the degree


def _rank(rows) -> int:
    """Exact rank of sparse rows, monomial -> Gaussian rational (re, im):
    each row is reduced by the pivot rows until its leading monomial, the
    highest (degree, m), is new, and becomes the pivot there."""
    pivots = {}  # leading monomial -> pivot row
    for row in map(dict, rows):
        while row:
            lead = max(row, key=lambda m: (sum(m), m))
            pivot = pivots.setdefault(lead, row)
            if pivot is row:
                break
            # subtract (a + bi) * pivot, a + bi = row[lead] / pivot[lead]
            (a, b), (c, d) = row[lead], pivot[lead]
            a, b, n = a * c + b * d, b * c - a * d, c * c + d * d
            if n != 1:
                a, b = Fraction(a, n), Fraction(b, n)
            for m, (c, d) in pivot.items():
                re, im = row.pop(m, (0, 0))
                v = (re - a * c + b * d, im - a * d - b * c)
                if v != (0, 0):
                    row[m] = v
    return len(pivots)


def _commutant(gens: GeneratorSet, z_name: str, basis) -> list:
    """Positions in ``basis`` of the monomials m with [Z, m] = 0 exactly.

    Z commutes with every block but its own, so [Z, m] = 0 exactly when
    [Z, m'] = 0 for m' the part of m in Z's block; each distinct part is
    tested with one exact commutator.
    """
    z = gens.gen(z_name)
    z_block = next(b for b in gens.structure.blocks
                   if gens.index_of(z_name) in b)
    parts = [ncalg._block_part(m, z_block) for m in basis]
    commutes = {p: commutator(z, gens.element({p: 1})).is_zero()
                for p in dict.fromkeys(parts)}
    return [i for i, p in enumerate(parts) if commutes[p]]


def verify_reference_frame(gens: GeneratorSet, z_name: str,
                           C: AlgebraElement,
                           degree: int = 4) -> FrameReport:
    """Check the algebraic reference-frame conditions at a bounded degree.

    Z* = Z, C* = C and [Z, C] = i*hbar*1 are exact symbolic checks.  The
    rest are exact ranks at hbar = 1 (a float-tainted part at its exact
    value) of the images a C, deg a <= degree - deg C, read from the exact
    rows of ``gens.products`` for (1, C, degree - deg C), the table
    ``check_constraint_surface`` reads, taken at hbar = 1 once per table
    (``ProductTable.exact_at_one``): a -> aC has no kernel
    when they have full rank; the commutant Z' (unit monomials) meets the
    ideal trivially when deleting its coordinates keeps the rank, and with C
    generates the algebra when |Z'| plus that rank is the basis size.  A
    full rank at hbar = 1 holds for all but finitely many hbar, so a true
    answer is a proof at the degree (a trivial meet given no kernel); a
    false one is shown at hbar = 1 only.  Failures are reported, never
    raised; a degree below deg C raises ConfigError.
    """
    if degree < C.degree():
        raise ConfigError(f"degree {degree} is below deg C = {C.degree()}")
    z = gens.gen(z_name)
    z_sa = ncalg.adjoint(z) == z
    c_sa = ncalg.adjoint(C) == C
    conj = commutator(z, C) == ncalg.I_HBAR * gens.one()

    basis = gens.monomial_basis(degree)
    images = gens.products(gens.one(), C, degree - C.degree()).exact_at_one()
    r_all = _rank(images)
    drop = {basis[i] for i in _commutant(gens, z_name, basis)}
    r_rest = _rank({m: v for m, v in row.items() if m not in drop}
                   for row in images)
    return FrameReport(degree, z_sa, c_sa, conj, r_all == len(images),
                       r_rest == r_all, len(drop) + r_rest == len(basis))


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
    allowed = {gens.index_of(n) for n in names}
    basis = [m for m in gens.monomial_basis(d)
             if all(e == 0 or g in allowed for g, e in enumerate(m))]
    elems = [gens.element({m: 1}) for m in basis]
    M = np.array(omega.evaluate_all([a_star * b for a_star in map(
        ncalg.adjoint, elems) for b in elems])).reshape(len(elems), -1)
    herm = (M + M.conj().T) / 2
    return float(np.min(np.linalg.eigvalsh(herm)))


# ---------------------------------------------------------------------------
# ideal-frame transformation law


def dress_system_element(gens: GeneratorSet, f_s: AlgebraElement,
                         g_s: AlgebraElement, q_name: str,
                         rho: float) -> AlgebraElement:
    """Relational dressing of a system element by the frame orientation.

    Nested-commutator series
    ``sum_n (i (q - rho))^n / (hbar^n n!) [f_S, G_S]_n``; terminates when
    the adjoint action is nilpotent (canonical systems), else raises once a
    product passes ``ncalg.DEGREE_CAP``, as (q - rho)^n has degree n.
    Each nesting carries one power of hbar, so the division is exact; rho
    is used exactly as given.
    """
    q_shift = gens.gen(q_name) - rho * gens.one()
    out = f_s
    nested = f_s
    prefactor = gens.one()
    try:
        for n in count(1):
            nested = commutator(nested, g_s)
            if nested.is_zero():
                return out
            prefactor = prefactor * q_shift
            # (i / hbar)^n / n!
            re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]
            scale = Coef({-n: (Fraction(re, factorial(n)),
                               Fraction(im, factorial(n)))})
            out = out + prefactor * (scale * nested)
    except DegreeExceeded:
        raise UnsupportedSupport(
            "nested-commutator series does not terminate; "
            "supply a closed form for this system algebra") from None


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
    ia, ipa, ib, ipb = map(gens.index_of, (qa, pa, qb, pb))

    arg_q = (rho_b + rho_a) * gens.one() - gens.gen(qa)
    arg_p = -gens.gen(pa) - g_s

    coefs, products = [], []
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
        coefs.append(ncalg.numeric(c, omega_b.hbar))
        products.append(sub * dressed)
    return sum((c * v for c, v in zip(coefs, omega_b.evaluate_all(products))),
               0j)
