"""Exact noncommutative *-polynomials over named generators.

Generators satisfy hbar-graded commutation relations

    [y_i, y_j] = i*hbar * sum_k alpha_ijk * y_k     (y_0 = identity),

covering canonical pairs (identity component only) and Lie structure
constants.  Elements are stored as maps from normal-ordered monomials
(exponent vectors under the fixed generator order, configuration before
momentum within each canonical pair) to coefficients in Q(i)[sqrt(hbar)],
so results such as the -i*hbar/2 gauge-fixing value are reproduced exactly.
A float enters only through ``_coef``, as the ``sp.Float`` of its value, and
terms built from it are floating-point.  ``numeric`` is the one place where
a coefficient becomes a complex number.

Every commutator rewrite introduces exactly one factor i*hbar*alpha, so the
hbar power of a coefficient counts the rewrites along any normal-ordering
path (path independence is what makes the ordering confluent).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np
import sympy as sp

from .errors import DegreeExceeded, RelationViolation
from .kinspace import KinOperator

HBAR = sp.Symbol("hbar", positive=True)

_ZERO = sp.Integer(0)
_ONE = sp.Integer(1)

IDENTITY = -1  # index of the identity component in relation tables


def _coef(x):
    """Coerce to a sympy scalar: exact, or the ``sp.Float`` of a float."""
    if isinstance(x, (int, float, Fraction, sp.Expr)):
        return sp.sympify(x)
    if isinstance(x, complex):
        if x != complex(int(x.real), int(x.imag)):
            raise TypeError("inexact complex literal; use sympy I and Rational")
        return sp.Integer(int(x.real)) + sp.I * sp.Integer(int(x.imag))
    raise TypeError(f"unsupported coefficient type {type(x)!r}")


@lru_cache(maxsize=4096)
def numeric(c, hbar) -> complex:
    """The complex value of the coefficient ``c`` at ``HBAR = hbar``."""
    return complex(c.subs(HBAR, hbar))


class GeneratorSet:
    """Ordered generators with an exact commutation-relation table.

    ``relations[(i, j)]`` for i < j maps the component index k (or
    ``IDENTITY``) to the exact structure constant alpha in
    ``[y_i, y_j] = i*hbar*sum_k alpha_k y_k``.  Antisymmetry is implicit;
    the Jacobi identity is verified once at construction.
    """

    def __init__(self, names, relations, degree_cap: int = 12):
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("generator names must be unique")
        self.degree_cap = degree_cap
        table = {}
        for (i, j), comps in relations.items():
            if not (0 <= i < j < len(self.names)):
                raise ValueError(f"relation key {(i, j)} must have i < j")
            table[(i, j)] = {k: _coef(a) for k, a in comps.items()
                             if _coef(a) != 0}
        self.relations = table
        self._word_cache = {}
        self._weyl_cache = {}
        self._verify_jacobi()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def canonical(pairs, centrals=(), degree_cap: int = 12) -> "GeneratorSet":
        """Canonical pairs (q before p) plus commuting central generators."""
        names = []
        rel = {}
        for q, p in pairs:
            rel[(len(names), len(names) + 1)] = {IDENTITY: 1}
            names.extend([q, p])
        names.extend(centrals)
        return GeneratorSet(names, rel, degree_cap)

    @staticmethod
    def canonical_with_su2(pairs, spin_names=("J_x", "J_y", "J_z"),
                           degree_cap: int = 12) -> "GeneratorSet":
        """Canonical pairs followed by an su(2) triple [J_x,J_y] = i*hbar*J_z."""
        names = []
        rel = {}
        for q, p in pairs:
            rel[(len(names), len(names) + 1)] = {IDENTITY: 1}
            names.extend([q, p])
        base = len(names)
        x, y, z = base, base + 1, base + 2
        rel[(x, y)] = {z: 1}
        rel[(y, z)] = {x: 1}
        rel[(x, z)] = {y: -1}
        names.extend(spin_names)
        return GeneratorSet(names, rel, degree_cap)

    # -- structure ---------------------------------------------------------

    def alpha(self, i: int, j: int) -> dict:
        """Components of [y_i, y_j] without the i*hbar prefactor."""
        if i == j:
            return {}
        if i < j:
            return self.relations.get((i, j), {})
        return {k: -a for k, a in self.relations.get((j, i), {}).items()}

    def _verify_jacobi(self):
        n = len(self.names)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, alpha in self.alpha(a, b).items():
                            if m == IDENTITY:
                                continue  # [1, y] = 0
                            for l, beta in self.alpha(m, c).items():
                                acc[l] = acc.get(l, _ZERO) + alpha * beta
                    for l, v in acc.items():
                        if sp.expand(v) != 0:
                            raise ValueError(
                                f"Jacobi identity fails for generators "
                                f"({self.names[i]},{self.names[j]},{self.names[k]})")

    # -- element constructors ---------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {self.unit_monomial(): _ONE})

    def unit_monomial(self) -> tuple:
        return (0,) * len(self.names)

    def gen(self, name: str) -> "AlgebraElement":
        m = [0] * len(self.names)
        m[self.index[name]] = 1
        return AlgebraElement(self, {tuple(m): _ONE})

    def element(self, terms) -> "AlgebraElement":
        out = {}
        for m, c in terms.items():
            c = _coef(c)
            if c != 0:
                out[tuple(m)] = out.get(tuple(m), _ZERO) + c
        return AlgebraElement(self, {m: c for m, c in out.items() if c != 0})

    def monomial_basis(self, max_degree: int):
        """All normal-ordered exponent vectors with degree <= max_degree."""
        n = len(self.names)

        def rec(slot, remaining):
            if slot == n:
                yield ()
                return
            for e in range(remaining + 1):
                for rest in rec(slot + 1, remaining - e):
                    yield (e,) + rest

        return sorted(rec(0, max_degree), key=lambda m: (sum(m), m))

    # -- word rewriting ----------------------------------------------------

    def normal_order_word(self, word: tuple) -> dict:
        """Normal-order a product word of generator indices.

        Returns a map monomial -> coefficient.  Each adjacent swap of an
        out-of-order pair (a, b) with a > b applies
        ``y_a y_b = y_b y_a + i*hbar*sum_k alpha_abk y_k``.
        """
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        out = {}
        stack = [(word, _ONE)]
        while stack:
            w, c = stack.pop()
            pos = -1
            for t in range(len(w) - 1):
                if w[t] > w[t + 1]:
                    pos = t
                    break
            if pos < 0:
                m = [0] * len(self.names)
                for g in w:
                    m[g] += 1
                key = tuple(m)
                out[key] = out.get(key, _ZERO) + c
                continue
            a, b = w[pos], w[pos + 1]
            stack.append((w[:pos] + (b, a) + w[pos + 2:], c))
            for k, alpha in self.alpha(a, b).items():
                repl = () if k == IDENTITY else (k,)
                stack.append((w[:pos] + repl + w[pos + 2:],
                              c * sp.I * HBAR * alpha))
        out = {m: sp.expand(c) for m, c in out.items() if sp.expand(c) != 0}
        self._word_cache[word] = out
        return out


def monomial_word(m: tuple) -> tuple:
    """Expand an exponent vector to its sorted word."""
    w = []
    for g, e in enumerate(m):
        w.extend([g] * e)
    return tuple(w)


class AlgebraElement:
    """A normal-ordered polynomial; treat as immutable."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: dict):
        self.gens = gens
        self.terms = dict(terms)

    # -- basic structure ---------------------------------------------------

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m) -> sp.Expr:
        return self.terms.get(tuple(m), _ZERO)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(sp.expand(self.terms.get(k, _ZERO)
                             - other.terms.get(k, _ZERO)) == 0 for k in keys)

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = sp.expand(out.get(m, _ZERO) + c)
            if v == 0:
                out.pop(m, None)
            else:
                out[m] = v
        return AlgebraElement(self.gens, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self + (-1) * self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) + (-1) * self

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        c = _coef(scalar)
        if c == 0:
            return self.gens.zero()
        return AlgebraElement(self.gens,
                              {m: sp.expand(c * v) for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.__rmul__(other)
        return multiply(self, other)

    def _coerce(self, x):
        if isinstance(x, AlgebraElement):
            if x.gens is not self.gens:
                raise ValueError("elements belong to different generator sets")
            return x
        return _coef(x) * self.gens.one()

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        """Canonical text: sorted monomials with exact coefficient literals."""
        if not self.terms:
            return "0"
        lines = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m)):
            mono = "*".join(f"{self.gens.names[g]}^{e}"
                            for g, e in enumerate(m) if e) or "1"
            lines.append(f"{mono} : {sp.sstr(sp.expand(self.terms[m]))}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<AlgebraElement {self.serialize()!r}>"


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Associative product, rewritten to normal order."""
    if a.gens is not b.gens:
        raise ValueError("elements belong to different generator sets")
    gens = a.gens
    cap = gens.degree_cap
    out = {}
    for ma, ca in a.terms.items():
        wa = monomial_word(ma)
        for mb, cb in b.terms.items():
            if sum(ma) + sum(mb) > cap:
                raise DegreeExceeded(
                    f"product degree {sum(ma) + sum(mb)} exceeds cap {cap}")
            ordered = gens.normal_order_word(wa + monomial_word(mb))
            cc = ca * cb
            for m, c in ordered.items():
                v = out.get(m, _ZERO) + cc * c
                out[m] = v
    out = {m: sp.expand(c) for m, c in out.items()}
    return AlgebraElement(gens, {m: c for m, c in out.items() if c != 0})


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return multiply(a, b) - multiply(b, a)


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """The *-involution: reverse each word, conjugate each coefficient."""
    gens = a.gens
    out = gens.zero()
    for m, c in a.terms.items():
        rev = tuple(reversed(monomial_word(m)))
        ordered = gens.normal_order_word(rev)
        out = out + AlgebraElement(
            gens, {mm: sp.expand(sp.conjugate(c) * cc)
                   for mm, cc in ordered.items()})
    return out


def weyl_symmetrize(gens: GeneratorSet, m) -> AlgebraElement:
    """Average over all distinct orderings of the monomial's multiset.

    The result is expressed in normal order; its leading (same-degree)
    monomial is ``m`` with coefficient one.
    """
    m = tuple(m)
    cached = gens._weyl_cache.get(m)
    if cached is not None:
        return cached
    word = monomial_word(m)
    seen = set()
    acc = gens.zero()
    count = 0
    for perm in permutations(word):
        if perm in seen:
            continue
        seen.add(perm)
        count += 1
        acc = acc + AlgebraElement(gens, gens.normal_order_word(perm))
    result = sp.Rational(1, count) * acc if count else gens.one()
    gens._weyl_cache[m] = result
    return result


def to_weyl_basis(a: AlgebraElement) -> dict:
    """Coefficients c_m with ``a = sum_m c_m * Weyl(m)`` (exact, triangular)."""
    gens = a.gens
    residual = dict(a.terms)
    coeffs = {}
    while residual:
        m = max(residual, key=lambda m: (sum(m), m))
        c = residual.pop(m)
        if sp.expand(c) == 0:
            continue
        coeffs[m] = sp.expand(coeffs.get(m, _ZERO) + c)
        if sum(m) == 0:
            continue
        w = weyl_symmetrize(gens, m)
        for mm, cc in w.terms.items():
            if mm == m:
                continue
            v = sp.expand(residual.get(mm, _ZERO) - c * cc)
            if v == 0:
                residual.pop(mm, None)
            else:
                residual[mm] = v
    return {m: c for m, c in coeffs.items() if sp.expand(c) != 0}


def from_weyl_basis(gens: GeneratorSet, coeffs: dict) -> AlgebraElement:
    out = gens.zero()
    for m, c in coeffs.items():
        out = out + _coef(c) * weyl_symmetrize(gens, tuple(m))
    return out


def represent(a: AlgebraElement, space, assignment) -> "np.ndarray":
    """Evaluate the element as a matrix under ``assignment: name -> operator``.

    The assignment is assumed to satisfy the relations table (see
    ``verify_assignment``); on the lattice the canonical relation holds only
    away from the wraparound edge, which is the representation caveat
    documented there.
    """
    mats = {name: _as_matrix(assignment[name]) for name in a.gens.names}
    dim = space.dim
    out = np.zeros((dim, dim), dtype=complex)
    for m, c in a.terms.items():
        acc = np.eye(dim, dtype=complex)
        for g, e in enumerate(m):
            for _ in range(e):
                acc = acc @ mats[a.gens.names[g]]
        out += numeric(c, space.hbar) * acc
    return out


def apply_element(a: AlgebraElement, space, assignment,
                  vec: np.ndarray) -> np.ndarray:
    """Element applied to a vector (cheaper than materializing the matrix)."""
    out = np.zeros_like(vec, dtype=complex)
    for m, c in a.terms.items():
        v = vec
        for g in reversed(monomial_word(m)):
            v = assignment[a.gens.names[g]].apply(v)
        out = out + numeric(c, space.hbar) * v
    return out


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, KinOperator) else np.asarray(op)


def verify_assignment(gens: GeneratorSet, space, assignment,
                      test_states=None) -> dict:
    """Check the relation table under an assignment.

    Lie-type relations (no identity component) must hold as exact matrix
    identities to 1e-10, else RelationViolation.  Relations with an identity
    component (canonical pairs) cannot hold globally on a finite lattice;
    their residual is evaluated on the caller's localized test states and
    reported in the returned map.
    """

    def mat(name):
        return _as_matrix(assignment[name])

    report = {}
    for (i, j), comps in gens.relations.items():
        a, b = mat(gens.names[i]), mat(gens.names[j])
        comm = a @ b - b @ a
        target = np.zeros_like(comm)
        for k, alpha in comps.items():
            cval = numeric(sp.I * HBAR * alpha, space.hbar)
            target = target + cval * (np.eye(comm.shape[0])
                                      if k == IDENTITY else mat(gens.names[k]))
        resid = comm - target
        key = (gens.names[i], gens.names[j])
        if IDENTITY not in comps:
            norm = float(np.max(np.abs(resid)))
            report[key] = norm
            if norm > 1e-10:
                raise RelationViolation(
                    f"relation [{key[0]}, {key[1]}] fails: residual {norm:.2e}")
        else:
            if test_states is None:
                report[key] = None
            else:
                vals = [abs(complex(np.vdot(v, resid @ v)))
                        / float(np.vdot(v, v).real) for v in test_states]
                report[key] = max(vals) if vals else None
    return report
