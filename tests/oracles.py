"""Independent test oracles: the explicit finite cyclic group of a constraint,
the G-twirl as its finite sum of conjugations, the dense closed-form
relational observable, the factor support of an operator read off its full
matrix, the dense matrix of an algebra element, the algebra layer without
commuting blocks, the lattice test as a nearest fraction, and the Gaussian
model state gathered through a D-point index grid.

The library computes the group average and the G-twirl spectrally; these
sums check them from the group itself.  It computes support block by block
from the stored form; the oracle rebuilds each Kronecker product in full.
It factors Weyl averages, commutants and check products by commuting
generator blocks; the oracles average every ordering of the whole word,
commute with every basis monomial and multiply out every product.  It
normal-orders a word whose letters pass only letters they commute with by
sorting it; the oracle runs the rewrite engine on every word.  It sums a
commutator over the term pairs that do not commute; the oracle subtracts
the two full products.
"""

from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from math import gcd

import numpy as np
from scipy.linalg import expm

from qrfkit.kinspace import HERM_TOL, KinOperator, LatticeSpace
from qrfkit.ncalg import (_ONE, _ZERO, AlgebraElement, _add_into, _terms,
                          commutator, monomial_word, multiply, numeric)
from qrfkit.relobs import frame_system_generator


def cyclic_group(C: KinOperator, pairwise: bool = False):
    """Cyclic group data (spacing, order, step) computed from the spectrum.

    Returns ``(delta, order, step)`` where the group is
    ``{exp(i*j*step*C/hbar) : j = 0..order-1}``.  ``delta`` is the coarsest
    spacing with all eigenvalues on ``delta*Z``; ``order`` is the smallest
    order whose average isolates exact eigenvalue coincidences (pairwise
    differences when ``pairwise``, the kernel otherwise).  Never assumed,
    always derived from the constraint at hand, whose spectrum is read
    here by ``eigvalsh`` of its matrix.
    """
    vals = np.linalg.eigvalsh(C.matrix)
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


def g_twirl_oracle(space: LatticeSpace, C: KinOperator,
                   A: KinOperator) -> np.ndarray:
    """Explicit finite-group sum (1/M) sum_s exp(-isC/h) A exp(isC/h)."""
    _, order, step = cyclic_group(C, pairwise=True)
    Cm = C.matrix
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(order):
        U = expm(-1j * j * step * Cm / space.hbar)
        out += U @ A.matrix @ U.conj().T
    return out / order


def closed_form_oracle(space, C, frame, rho, f_s) -> np.ndarray:
    """exp(-i(R-rho)G_S/h) f_S exp(+i(R-rho)G_S/h) as a dense D x D array.

    The sum over the grid of |rho_j><rho_j|/N (x) e_j f_rest e_j^* with
    e_j = exp(-i(rho_j-rho)G_S/h) equals (G^T G^*) * (1 (x) f_rest) / N,
    where row j of G is |rho_j> (x) e_j and f_rest = <p_0| f_S |p_0>.
    """
    gs_diag = frame_system_generator(space, C, frame).diag
    dims = space.dims
    n = len(dims)
    k = frame.factor
    n_f = frame.N
    gs = np.moveaxis(gs_diag.reshape(dims), k, 0)[0]
    p0 = np.eye(n_f, 1)
    f_rest = space.apply_factor(k, p0.T, f_s.apply(
        space.apply_factor(k, p0, np.eye(space.dim // n_f))))

    F = frame.fourier_matrix()
    e = np.exp(-1j * np.multiply.outer(frame.grid - rho, gs) / space.hbar)
    kets = F.T.reshape((n_f,) + (1,) * k + (n_f,) + (1,) * (n - 1 - k))
    G = (np.expand_dims(e, 1 + k) * kets).reshape(n_f, space.dim)
    out = (G.T @ G.conj()).reshape(dims + dims)
    rest = dims[:k] + dims[k + 1:]
    out *= np.expand_dims(f_rest.reshape(rest + rest), (k, n + k)) / n_f
    return out.reshape(space.dim, space.dim)


def support_oracle(op: KinOperator) -> frozenset:
    """Factors k with M != 1_k (x) <0|M|0> (to HERM_TOL), M = ``op.matrix``,
    by building 1_k (x) <0|M|0> as a full D x D array."""
    dims = op.space.dims
    n = len(dims)
    M = op.matrix.reshape(dims + dims)
    out = set()
    for k in range(n):
        B = M.take(0, axis=k).take(0, axis=n - 1 + k)
        kron = np.moveaxis(np.multiply.outer(np.eye(dims[k]), B), [0, 1],
                           [k, n + k])
        if np.max(np.abs(kron - M)) >= HERM_TOL:
            out.add(k)
    return frozenset(out)


def represent(a: AlgebraElement, space: LatticeSpace,
              assignment) -> np.ndarray:
    """Dense D x D matrix of ``a`` under ``assignment: name -> operator or
    array``: sum over terms of numeric(c) times the full matrix product of
    the term's word, with no prefix sharing and no apply."""
    mats = {name: np.asarray(op.matrix if isinstance(op, KinOperator)
                             else op, dtype=complex)
            for name, op in assignment.items()}
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for m, c in a.terms.items():
        word = np.eye(space.dim, dtype=complex)
        for g in monomial_word(m):
            word = word @ mats[a.gens.names[g]]
        out += numeric(c, space.hbar) * word
    return out


def monomial_basis_oracle(n: int, max_degree: int) -> list:
    """Exponent vectors on n generators with degree <= max_degree, sorted by
    (degree, m) from the full grid."""
    return sorted((m for m in product(range(max(max_degree, 0) + 1),
                                      repeat=n) if sum(m) <= max_degree),
                  key=lambda m: (sum(m), m))


def normal_order_oracle(structure, word: tuple) -> dict:
    """The normal form of ``word`` by the rewrite engine alone, uncached:
    every word, however its letters commute, is swapped pair by pair, and
    each out-of-order pair (a, b) adds its rewrites
    ``i*hbar*sum_k alpha_abk y_k``."""
    acc = {}
    stack = [(word, _ONE)]
    while stack:
        w, c = stack.pop()
        pos = -1
        for t in range(len(w) - 1):
            if w[t] > w[t + 1]:
                pos = t
                break
        if pos < 0:
            m = [0] * structure.n
            for g in w:
                m[g] += 1
            _add_into(acc.setdefault(tuple(m), {}), c.terms)
            continue
        a, b = w[pos], w[pos + 1]
        stack.append((w[:pos] + (b, a) + w[pos + 2:], c))
        for repl, i_hbar_alpha in structure.rewrites.get((a, b), ()):
            stack.append((w[:pos] + repl + w[pos + 2:], c * i_hbar_alpha))
    return _terms(acc)


def weyl_symmetrize_oracle(gens, m) -> AlgebraElement:
    """Average of the normal-ordered products of every distinct ordering of
    the whole word of ``m``, uncached."""
    perms = dict.fromkeys(permutations(monomial_word(tuple(m))))
    acc = {}
    for perm in perms:
        for mm, c in gens.structure.normal_order_word(perm).items():
            _add_into(acc.setdefault(mm, {}), c.terms)
    return Fraction(1, len(perms)) * AlgebraElement._of(gens, acc)


def to_weyl_basis_oracle(a: AlgebraElement) -> dict:
    """Weyl coefficients by clearing the residual's largest (degree, m)
    monomial, found by a ``max`` scan each time, with the oracle averages."""
    residual = dict(a.terms)
    coeffs = {}
    while residual:
        m = max(residual, key=lambda m: (sum(m), m))
        c = residual.pop(m)
        coeffs[m] = c
        if sum(m) == 0:
            continue
        for mm, cc in weyl_symmetrize_oracle(a.gens, m).terms.items():
            if mm == m:
                continue
            v = residual.get(mm, _ZERO) - c * cc
            if v:
                residual[mm] = v
            else:
                residual.pop(mm, None)
    return coeffs


def commutator_oracle(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """ab - ba as the difference of the two full products, every pair of
    terms expanded in both orders."""
    return multiply(a, b) - multiply(b, a)


def commutant_oracle(gens, z_name: str, basis) -> list:
    """Positions in ``basis`` of the monomials that commute with Z, one full
    commutator per monomial."""
    z = gens.gen(z_name)
    return [i for i, m in enumerate(basis)
            if commutator(z, gens.element({m: 1})).is_zero()]


def max_abs_value_oracle(omega, degree: int, product) -> float:
    """max |omega(product(a))| over the monomials a with deg a <= degree,
    each product an element built by ``multiply`` and evaluated."""
    gens = omega.gens
    basis = monomial_basis_oracle(len(gens.names), max(degree, 0))
    return max(map(abs, omega.evaluate_all(
        [product(gens.element({m: 1})) for m in basis])))


def on_lattice_oracle(v: float, dp: float) -> bool:
    """v on dp * Z: the nearest fraction of denominator <= 10**6 to v/dp is
    an integer within 1e-9 of it."""
    q = Fraction(v / dp).limit_denominator(1_000_000)
    return q.denominator == 1 and abs(float(q) - v / dp) <= 1e-9


def gaussian_state_oracle(model, *, centers_x=None, centers_p=None,
                          sigmas=None, shear=None, system_amp=None):
    """``models.gaussian_physical_state`` with every profile gathered at a
    D-point ``meshgrid`` of factor indices and multiplied in full."""
    centers_x, centers_p = centers_x or {}, centers_p or {}
    sigmas, shear, system_amp = sigmas or {}, shear or {}, system_amp or {}
    space = model.space
    dims = space.dims
    grids = [f.generator_spectrum for f in space.factors]
    mesh = np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")
    amp = np.ones(dims, dtype=complex)
    hbar = space.hbar
    for i in range(1, len(dims)):
        f = space.factors[i]
        if not f.is_frame:
            if i in system_amp:
                amp = amp * np.asarray(system_amp[i])[mesh[i]]
            continue
        sig = sigmas.get(i, f.N / 8.0 * f.dp)
        p0 = centers_p.get(i, 0.0)
        x0 = centers_x.get(i, 0.0)
        pv = grids[i][mesh[i]]
        amp = amp * np.exp(-(pv - p0) ** 2 / (4 * sig ** 2)
                           - 1j * x0 * pv / hbar)
    for (i, k), gamma in shear.items():
        pi = grids[i][mesh[i]] - centers_p.get(i, 0.0)
        pk = grids[k][mesh[k]] - centers_p.get(k, 0.0)
        amp = amp * np.exp(gamma * pi * pk)
    total = model.plain_diag.reshape(dims)
    scale = max(float(np.max(np.abs(total))), 1.0)
    mask = np.abs(total) < 1e-9 * scale
    solved = grids[0][mesh[0]]
    amp = amp * np.exp(-1j * centers_x.get(0, 0.0) * solved / hbar)
    psi = np.where(mask, amp, 0.0).reshape(-1)
    return psi / np.linalg.norm(psi)
