"""Exact noncommutative *-polynomials over named generators.

Generators satisfy hbar-graded commutation relations

    [y_i, y_j] = i*hbar * sum_k alpha_ijk * y_k     (y_0 = identity),

covering canonical pairs (identity component only) and Lie structure
constants.  Elements are stored as maps from normal-ordered monomials
(exponent vectors under the fixed generator order, configuration before
momentum within each canonical pair) to ``Coef`` coefficients: Laurent
polynomials in hbar over Q(i), held as exact ``int``/``Fraction`` parts, so
results such as the -i*hbar/2 gauge-fixing value are reproduced exactly.
A float enters only through ``_coef``; the parts it reaches are Python
floats from then on (float-tainted), the rest stay exact.  ``numeric`` is
the one place where a coefficient becomes a complex number.

The module imports only the standard library and ``.errors``, no numpy: the
representation on a lattice lives in ``algstates``.  Sympy is imported only
at the boundary, lazily: by ``_coef`` given sympy input, by
``AlgebraElement.serialize``, by ``Coef._sympy_`` and by the module
attribute ``HBAR`` (the sympy Symbol hbar).  Importing this module and the
arithmetic, normal ordering and evaluation never load it.

One kernel, ``_expand``, sums every exact product: ``multiply``,
``commutator``, ``adjoint``, ``ProductTable`` rows and every Weyl average.

Every commutator rewrite introduces exactly one factor i*hbar*alpha, so the
hbar power of a coefficient counts the rewrites along any normal-ordering
path (path independence is what makes the ordering confluent).

A generator set splits into commuting blocks: the classes of generators
linked by a non-zero relation, directly or through one of its components.
Each block spans a subalgebra closed under the relations, and generators in
different blocks commute exactly, so a normal-ordered monomial is the product
of its parts in each block, in any order.  A commutator with one generator
vanishes on a monomial exactly when it vanishes on the monomial's part in
that generator's block.  The Weyl average of m, the mean of its distinct
orderings, is W(m) = sum_{g in B} (m_g / n) y_g W(m - e_g), W(1) = 1, over
the first block B that m meets, n the degree of m in B: exact, as m_g / n
of the orderings of m's part in B begin with y_g and the rest of m
commutes with B.  Normal ordering itself works on whole words.  A rewrite
fires only where a letter passes an earlier one whose relation with it has
a rule, so a product of normal-ordered monomials in which no letter passes
such a letter is free: its monomial is the sum of theirs, with coefficient
one, read from two bit masks per monomial without forming the word.  Only
the other products form their word and run the rewrite engine.

All of this depends on the relation table alone, never on the generator
names, so it lives in one ``Structure`` per table: the table, its blocks
and rewrite rules, and the caches of factor masks, of the normal forms of
words that need a rewrite, of Weyl averages, of product tables (the exact
rows of left a right over a monomial basis, with their numeric values per
hbar and their exact values at hbar = 1) and of the monomial basis.  It
also owns a bounded LRU of the plans by which states on its generators
walk their words (``_walk_plan``, which reads no relation).  The
module registry ``_STRUCTURES`` keys it by the number of generators and
the exact table, each coefficient part with its type (an exact table and
a float twin never share), and every ``GeneratorSet`` on that table reads
it: two builds of one model, at any lattice size, share normal forms and
product tables.  The registry holds its structures for the life of the
process: after one pass of the ``sparse-large`` benchmark workload, the
live memory allocated in this module is about 2.4 MiB (tracemalloc, from
before the pass), 0.8 MiB of it held by product tables and 0.6 MiB by
walk plans.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import isfinite
from numbers import Integral
from operator import add, index, mul, sub

from .errors import ConfigError, DegreeExceeded

IDENTITY = -1  # index of the identity component in relation tables
DEGREE_CAP = 12  # the highest degree of a product or a product table row
PLAN_CACHE = 32  # walk plans kept per structure (``Structure.plans``)


def __getattr__(name):
    """``HBAR``: the sympy Symbol hbar, for sympy input and expected values."""
    if name == "HBAR":
        import sympy as sp

        return sp.Symbol("hbar", positive=True)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _part(x):
    """A summed part in stored form: 0 for any zero, an integral Fraction as
    its int, anything else unchanged."""
    if x == 0:
        return 0
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _normalized(raw: dict) -> dict:
    out = {}
    for k, pair in raw.items():
        re, im = pair
        if type(re) is not int or type(im) is not int:
            pair = re, im = _part(re), _part(im)
        if re or im:
            out[k] = pair
    return out


def _mul_into(acc: dict, x: dict, y: dict) -> dict:
    """acc[k] += the hbar**k pair of x*y, unnormalized; returns acc.  An
    exact-zero part contributes no product (so it cannot float-taint a
    sum), as in a sparse expansion."""
    for k1, (a, b) in x.items():
        for k2, (c, d) in y.items():
            re = (a * c if a and c else 0) - (b * d if b and d else 0)
            im = (a * d if a and d else 0) + (b * c if b and c else 0)
            k = k1 + k2
            p = acc.get(k)
            acc[k] = (re, im) if p is None else (p[0] + re, p[1] + im)
    return acc


def _add_into(acc: dict, y: dict) -> None:
    for k, (c, d) in y.items():
        p = acc.get(k)
        acc[k] = (c, d) if p is None else (p[0] + c, p[1] + d)


def _mul_free_into(acc: dict, x: dict, y: dict) -> dict:
    """acc[k] += the hbar**k pair of x*y with each zero part the int 0: the
    bits of ``_mul_into(acc, _mul_into({}, x, y), _ONE.terms)``, summed
    straight into acc when x or y has one term (no two of their products
    then share a power).  Returns acc."""
    if len(x) > 1 and len(y) > 1:
        x, y = _mul_into({}, x, y), _ONE.terms
    for k1, (a, b) in x.items():
        for k2, (c, d) in y.items():
            re = (a * c if a and c else 0) - (b * d if b and d else 0) or 0
            im = (a * d if a and d else 0) + (b * c if b and c else 0) or 0
            k = k1 + k2
            p = acc.get(k)
            acc[k] = (re, im) if p is None else (p[0] + re, p[1] + im)
    return acc


class Coef:
    """A Laurent polynomial in hbar over Q(i): sum_k (re_k + i im_k) hbar**k.

    ``terms`` maps the hbar power k to the pair (re_k, im_k).  Parts are
    ``int`` where possible and ``Fraction`` where needed; a part a float
    entered is a Python ``float`` and stays one through later arithmetic.
    A part that sums to zero, exact or float, is stored as the int 0 and a
    pair (0, 0) is not stored, so zero has no terms.  Treat as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _normalized(dict(terms or {}))

    @classmethod
    def _of(cls, terms: dict) -> "Coef":
        """Wrap ``terms`` already in stored form."""
        c = object.__new__(cls)
        c.terms = terms
        return c

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = _coef(other)
        acc = dict(self.terms)
        _add_into(acc, other.terms)
        return Coef._of(_normalized(acc))

    __radd__ = __add__

    def __neg__(self):
        return Coef._of({k: (-re, -im) for k, (re, im) in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coef(other))

    def __rsub__(self, other):
        return _coef(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return NotImplemented
        return Coef._of(_normalized(_mul_into({}, self.terms,
                                              _coef(other).terms)))

    __rmul__ = __mul__

    def conjugate(self) -> "Coef":
        return Coef._of({k: (re, -im) for k, (re, im) in self.terms.items()})

    def __eq__(self, other):
        """Equal stored terms (canonical) at once, else a zero difference."""
        try:
            other = _coef(other)
        except (TypeError, ConfigError):
            return NotImplemented
        return self.terms == other.terms or not (self - other).terms

    def __repr__(self):
        return f"Coef({self.terms!r})"

    def _sympy_(self):
        """The coefficient as an expanded sympy expression."""
        import sympy as sp

        hbar = __getattr__("HBAR")

        def num(x):
            if type(x) is float:
                return sp.Float(x)
            x = Fraction(x)
            return sp.Rational(x.numerator, x.denominator)

        return sp.Add(*[(num(re) + num(im) * sp.I) * hbar ** k
                        for k, (re, im) in self.terms.items()]).expand()


_ZERO = Coef._of({})
_ONE = Coef._of({0: (1, 0)})
I_HBAR = Coef._of({1: (0, 1)})  # the i*hbar of every commutator rewrite


def _coef(x) -> Coef:
    """Coerce a scalar to a ``Coef``.

    Accepts a ``Coef``; an ``int`` (or other integral), ``Fraction`` or
    ``float`` (kept as a float part); a ``complex`` with integral parts; or
    a sympy expression that expands to a Laurent polynomial in ``HBAR``
    with finite rational or float coefficients over Q(i).  A float or
    complex with an infinite or NaN part raises ConfigError; an inexact
    complex, any other sympy expression (``oo``, ``zoo`` and ``nan``
    included) and anything else raise TypeError.
    """
    if type(x) is Coef:
        return x
    if isinstance(x, Integral):
        return Coef._of({0: (int(x), 0)}) if x else _ZERO
    if isinstance(x, Fraction):
        return Coef._of({0: (_part(x), 0)}) if x else _ZERO
    if isinstance(x, (float, complex)) and not (
            isfinite(x.real) and isfinite(x.imag)):
        raise ConfigError(f"coefficient {x!r} is not finite")
    if isinstance(x, float):
        return Coef._of({0: (float(x), 0)}) if x else _ZERO
    if isinstance(x, complex):
        if x != complex(int(x.real), int(x.imag)):
            raise TypeError("inexact complex literal; use Fraction parts")
        return Coef({0: (int(x.real), int(x.imag))})
    if type(x).__module__.partition(".")[0] == "sympy":
        return _from_sympy(x)
    raise TypeError(f"unsupported coefficient type {type(x)!r}")


def _from_sympy(x) -> Coef:
    import sympy as sp

    hbar = __getattr__("HBAR")
    acc = {}
    for term in sp.Add.make_args(sp.expand(x)):
        c, k = term.as_coeff_exponent(hbar)
        re, im = c.as_real_imag()
        if not (k.is_Integer and re.is_Number and im.is_Number
                and re.is_finite and im.is_finite):
            raise TypeError(f"{x} is not a Laurent polynomial in hbar "
                            "over Q(i)")
        _add_into(acc, {int(k): tuple(
            float(v) if v.is_Float else Fraction(int(v.p), int(v.q))
            for v in (re, im))})
    return Coef._of(_normalized(acc))


def numeric(c, hbar) -> complex:
    """The complex value of the coefficient ``c`` (anything ``_coef``
    accepts) at hbar = ``hbar``: sum_k (re_k + i im_k) hbar**k in floats, a
    negative power divided by hbar**-k.  Each operation rounds, so a term
    with a non-dyadic part or |k| >= 2 can differ in the last bit from a
    once-rounded evaluation of the exact value."""
    re_sum = im_sum = 0.0
    for k, (re, im) in _coef(c).terms.items():
        if k > 0:
            s = hbar ** k
            re, im = re * s, im * s
        elif k < 0:
            s = hbar ** -k
            re, im = re / s, im / s
        re_sum += re
        im_sum += im
    return complex(re_sum, im_sum)


class Structure:
    """Everything a relation table determines, whatever its generators are
    called: the table itself, its commuting blocks and rewrite rules, and
    the caches of factor masks (``factors``), normal forms (``words``),
    Weyl averages (``weyl``, term dicts monomial -> ``Coef``), product
    tables (``tables``, one ``ProductTable`` per left and right term dict
    and degree, see ``GeneratorSet.products``) and the monomial basis.  One
    instance per table, shared through ``_STRUCTURES`` by every
    ``GeneratorSet`` built on it.  Treat as read-only outside this module.

    ``plans(mask, monomials)`` is ``_walk_plan`` behind an LRU of at most
    ``PLAN_CACHE`` entries: the states on this structure share their plans.

    ``relations[(i, j)]`` for i < j maps the component index k (or
    ``IDENTITY``) to the exact structure constant alpha in
    ``[y_i, y_j] = i*hbar*sum_k alpha_k y_k``; antisymmetry is implicit.
    Generators i and j share a block when relation (i, j) is non-zero, and
    each of its components shares the block of i and j; generators in
    different blocks commute exactly.

    ``blocked[g]`` is the bit mask of the generators h > g whose rewrite
    list ``rewrites[(h, g)]`` is non-empty (a rule with coefficient zero
    counts): the letters that y_g cannot pass by a plain swap.  ``factors``
    caches the monomials that ``_expand`` has multiplied, each with its
    support bits and the OR of ``blocked`` over its generators
    (``factor``).
    """

    __slots__ = ("n", "relations", "blocks", "rewrites", "blocked",
                 "factors", "words", "weyl", "tables", "basis", "basis_ends",
                 "plans")

    def __init__(self, n: int, relations: dict):
        self.n = n
        self.relations = relations
        self.blocks = self._commuting_blocks()
        # (a, b) -> [(replacement word, i*hbar*alpha)] for y_a y_b, a > b
        self.rewrites = {
            (a, b): [(() if k == IDENTITY else (k,), I_HBAR * alpha)
                     for k, alpha in self.alpha(a, b).items()]
            for (b, a) in relations}
        self.blocked = [0] * n
        for (a, b), rules in self.rewrites.items():
            if rules:
                self.blocked[b] |= 1 << a
        self.factors = {}
        self.words = {}
        self.weyl = {}
        self.tables = {}
        self.basis = []       # monomials sorted by (degree, m)
        self.basis_ends = []  # basis_ends[d]: end of degree d in basis
        self.plans = lru_cache(maxsize=PLAN_CACHE)(_walk_plan)

    def alpha(self, i: int, j: int) -> dict:
        """Components of [y_i, y_j] without the i*hbar prefactor."""
        if i == j:
            return {}
        if i < j:
            return self.relations.get((i, j), {})
        return {k: -a for k, a in self.relations.get((j, i), {}).items()}

    def _commuting_blocks(self) -> tuple:
        """Generator index tuples, each in increasing order: the classes of
        generators linked by a non-zero relation or one of its components."""
        parent = list(range(self.n))

        def root(g):
            while parent[g] != g:
                parent[g] = parent[parent[g]]
                g = parent[g]
            return g

        for (i, j), comps in self.relations.items():
            if comps:
                for g in (j, *(k for k in comps if k != IDENTITY)):
                    parent[root(g)] = root(i)
        roots = [root(g) for g in range(self.n)]
        return tuple(tuple(g for g, r in enumerate(roots) if r == b)
                     for b in dict.fromkeys(roots))

    def jacobi_failure(self):
        """The first triple i < j < k that breaks the Jacobi identity, or
        None."""
        n = self.n
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, alpha in self.alpha(a, b).items():
                            if m == IDENTITY:
                                continue  # [1, y] = 0
                            for l, beta in self.alpha(m, c).items():
                                _mul_into(acc.setdefault(l, {}),
                                          alpha.terms, beta.terms)
                    if any(_normalized(v) for v in acc.values()):
                        return i, j, k
        return None

    def factor(self, m: tuple) -> tuple:
        """The monomial ``m`` as a factor of ``_expand``: (m, support,
        blocked), the bits of the generators it holds and the OR of
        ``blocked[g]`` over them; cached in ``factors``."""
        found = self.factors.get(m)
        if found is None:
            support = blocked = 0
            for g, e in enumerate(m):
                if e:
                    support |= 1 << g
                    blocked |= self.blocked[g]
            found = self.factors[m] = (m, support, blocked)
        return found

    def normal_order_word(self, word: tuple) -> dict:
        """Normal-order a product word of generator indices by the rewrite
        engine: each adjacent swap of an out-of-order pair (a, b) with
        a > b applies ``y_a y_b = y_b y_a + i*hbar*sum_k alpha_abk y_k``.

        Returns a map monomial -> coefficient, cached in ``words`` and
        shared (every caller gets the same dict): treat it as immutable.
        ``_expand`` calls it only for a product that needs a rewrite.
        """
        cached = self.words.get(word)
        if cached is not None:
            return cached
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
                m = [0] * self.n
                for g in w:
                    m[g] += 1
                _add_into(acc.setdefault(tuple(m), {}), c.terms)
                continue
            a, b = w[pos], w[pos + 1]
            stack.append((w[:pos] + (b, a) + w[pos + 2:], c))
            for repl, i_hbar_alpha in self.rewrites.get((a, b), ()):
                stack.append((w[:pos] + repl + w[pos + 2:],
                              c * i_hbar_alpha))
        out = self.words[word] = _terms(acc)
        return out


def _expand(s: Structure, pairs) -> dict:
    """sum x y f_1 f_2 ... over the (factors, x, y, c) tuples in their
    order, as monomial -> ``Coef`` with the zero sums dropped.  The factors
    are normal-ordered monomials as ``Structure.factor`` gives them (none
    for the unit); x and y are hbar-power dicts and c is their product as a
    ``Coef``, or None to have it normalized here.  Every exact product is
    summed here, so two products over the same tuples agree bitwise.

    A product is free when no factor holds a letter g whose ``blocked[g]``
    meets the letters of the factors before it.  No rewrite can fire in
    it: it is the monomial f_1 + f_2 + ... with coefficient one, found
    without its word, and x y is summed into it by ``_mul_free_into``.
    Only a product that is not free forms its word and calls
    ``normal_order_word``.  A monomial that one free product alone reaches
    holds that tuple's c itself when c is given, so the rows of a
    ``ProductTable`` share their pairs' coefficients; every other monomial
    is normalized once.
    """
    acc = {}  # monomial -> the tuple of its one free product, or raw sums
    unit = (0,) * s.n
    for factors, x, y, c in pairs:
        seen, m = 0, unit
        for f, support, blocked in factors:
            if seen & blocked:
                break
            if support:
                m = map(add, m, f) if seen else f
                seen |= support
        else:
            m = tuple(m)
            p = acc.get(m)
            if p is None:
                if c is not None:
                    acc[m] = (x, y, c)
                    continue
                p = acc[m] = {}
            elif type(p) is tuple:
                p = acc[m] = _mul_free_into({}, p[0], p[1])
            _mul_free_into(p, x, y)
            continue
        word = ()
        for f in factors:
            word += monomial_word(f[0])
        raw = _mul_into({}, x, y)
        for m, cw in s.normal_order_word(word).items():
            p = acc.get(m)
            if p is None:
                p = acc[m] = {}
            elif type(p) is tuple:
                p = acc[m] = _mul_free_into({}, p[0], p[1])
            _mul_into(p, raw, cw.terms)
    out = {}
    for m, p in acc.items():
        c = p[2] if type(p) is tuple else Coef._of(_normalized(p))
        if c:
            out[m] = c
    return out


class ProductTable:
    """The exact normal forms of left a right, one row (monomial ->
    ``Coef``) per monomial a of the basis up to a degree, in basis order.

    Row a is summed by ``_expand``, as ``multiply`` is, over the products
    l a r with coefficient c_l c_r for the terms l of left and r of right
    in order, so a row is bitwise the product ``multiply`` builds; zero
    sums dropped.  Each c_l c_r is normalized once, for all rows: a row
    whose products are free and reach distinct monomials holds those
    ``Coef`` objects themselves.  ``columns`` lists the monomials of all
    rows once; ``numeric`` reads the rows at an hbar, and ``exact_at_one``
    exactly at hbar = 1, each once per distinct ``Coef`` object.  Treat as
    read-only.
    """

    __slots__ = ("rows", "columns", "_numeric", "_exact_at_one")

    def __init__(self, s: Structure, left: dict, right: dict, basis: list):
        pairs = [(s.factor(ml), s.factor(mr), cl.terms, cr.terms, cl * cr)
                 for ml, cl in left.items() for mr, cr in right.items()]
        self.rows = [_expand(s, (((fl, fa, fr), xl, xr, c)
                                 for fl, fr, xl, xr, c in pairs))
                     for fa in map(s.factor, basis)]
        self.columns = list(dict.fromkeys(m for row in self.rows
                                          for m in row))
        self._numeric = {}
        self._exact_at_one = None

    def exact_at_one(self) -> list:
        """Per row, monomial -> the exact (re, im) of its coefficient at
        hbar = 1, a float part at its exact value, zero sums dropped; built
        on first use and cached."""
        if self._exact_at_one is None:
            value = _once_per_object(_at_hbar_one)
            self._exact_at_one = [
                {m: v for m, v in zip(row, map(value, row.values())) if any(v)}
                for row in self.rows]
        return self._exact_at_one

    def numeric(self, hbar) -> list:
        """Per row, the tuple of ``numeric(c, hbar)`` over its terms in row
        order; cached per value and type of hbar (an int 2 and a float 2.0
        can round differently)."""
        key = (type(hbar), hbar)
        found = self._numeric.get(key)
        if found is None:
            value = _once_per_object(lambda c: numeric(c, hbar))
            found = self._numeric[key] = [tuple(map(value, row.values()))
                                          for row in self.rows]
        return found


def _once_per_object(f):
    """``f`` called once per argument object, found by identity: the rows of
    a ``ProductTable`` share their pairs' ``Coef`` objects (which do not
    hash), and keep them alive while the result is in use."""
    values = {}

    def value(c):
        v = values.get(id(c))
        if v is None:
            v = values[id(c)] = f(c)
        return v
    return value


def _at_hbar_one(c: Coef) -> tuple:
    """The exact (re, im) of ``c`` at hbar = 1, a float part at its exact
    value."""
    return tuple(sum(Fraction(x) if type(x) is float else x for x in parts)
                 for parts in zip(*c.terms.values()))


def _coef_key(c: Coef) -> tuple:
    """The terms of ``c`` in order, each part with its type: an exact 1 and
    a float 1.0 are equal and hash alike."""
    return tuple((p, type(re), re, type(im), im)
                 for p, (re, im) in c.terms.items())


def _terms_key(terms: dict) -> tuple:
    """A term dict monomial -> ``Coef`` as a hashable key, in its order."""
    return tuple((m, _coef_key(c)) for m, c in terms.items())


_STRUCTURES = {}  # (n, typed relation table) -> Structure


def _structure(names: tuple, table: dict) -> Structure:
    """The shared structure of ``table`` on ``len(names)`` generators; a new
    table is Jacobi-checked (``names`` only name a failing triple) before it
    is registered, so a bad table is never shared.  Each coefficient part is
    keyed with its type (``_coef_key``)."""
    key = (len(names), tuple(sorted(
        (ij, tuple(sorted((k, tuple(sorted(_coef_key(a))))
                          for k, a in comps.items())))
        for ij, comps in table.items())))
    found = _STRUCTURES.get(key)
    if found is not None:
        return found
    s = Structure(len(names), table)
    bad = s.jacobi_failure()
    if bad is not None:
        raise ConfigError("Jacobi identity fails for generators "
                          f"({','.join(names[g] for g in bad)})")
    return _STRUCTURES.setdefault(key, s)


def _canonical_pairs(pairs) -> tuple:
    """(names, relations) of canonical pairs, q before p: [q, p] = i*hbar."""
    names, rel = [], {}
    for q, p in pairs:
        rel[(len(names), len(names) + 1)] = {IDENTITY: 1}
        names += [q, p]
    return names, rel


class GeneratorSet:
    """Ordered named generators with an exact commutation-relation table.

    ``relations`` is the table of ``structure`` (see ``Structure``); the
    Jacobi identity is verified when a table is first registered.  A
    generator set holds only its names, their index and ``structure``: the
    registered ``Structure`` of its table, shared by every generator set
    with the same number of generators and the same exact table, whatever
    the names, and kept for the life of the process.  The key holds each
    coefficient part with its type, so an exact table and a float-tainted
    twin never share.  Two sets on one structure are still distinct: their
    elements do not mix.  A product of elements is capped at degree
    ``DEGREE_CAP``, and a value at the degree bound of its state.
    """

    __slots__ = ("names", "index", "structure")

    def __init__(self, names, relations):
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ConfigError("generator names must be unique")
        n = len(self.names)

        def in_range(x, low=0):
            return isinstance(x, Integral) and low <= x < n

        table = {}
        for key, comps in relations.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(map(in_range, key)) and key[0] < key[1]):
                raise ConfigError(f"relation key {key!r} is not a pair "
                                  f"(i, j) with 0 <= i < j < {n}")
            for k in comps:
                if not in_range(k, IDENTITY):  # IDENTITY is -1
                    raise ConfigError(f"relation {key} component {k!r} is "
                                      "neither IDENTITY nor a generator "
                                      "index")
            table[tuple(map(int, key))] = {int(k): _coef(a)
                                           for k, a in comps.items()
                                           if _coef(a)}
        self.structure = _structure(self.names, table)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def canonical(pairs, centrals=()) -> "GeneratorSet":
        """Canonical pairs (q before p) plus commuting central generators."""
        names, rel = _canonical_pairs(pairs)
        return GeneratorSet(names + list(centrals), rel)

    @staticmethod
    def canonical_with_su2(pairs) -> "GeneratorSet":
        """Canonical pairs followed by an su(2) triple [J_x,J_y] = i*hbar*J_z."""
        names, rel = _canonical_pairs(pairs)
        x, y, z = range(len(names), len(names) + 3)
        rel.update({(x, y): {z: 1}, (y, z): {x: 1}, (x, z): {y: -1}})
        return GeneratorSet(names + ["J_x", "J_y", "J_z"], rel)

    @property
    def relations(self) -> dict:
        return self.structure.relations

    # -- element constructors ---------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {self.unit_monomial(): _ONE})

    def unit_monomial(self) -> tuple:
        return (0,) * len(self.names)

    def index_of(self, name: str) -> int:
        """The position of generator ``name``; ConfigError if unknown."""
        try:
            return self.index[name]
        except KeyError:
            raise ConfigError(f"unknown generator {name!r}") from None

    def gen(self, name: str) -> "AlgebraElement":
        m = [0] * len(self.names)
        m[self.index_of(name)] = 1
        return AlgebraElement(self, {tuple(m): _ONE})

    def _monomial(self, m) -> tuple:
        """``m`` as a monomial key: a tuple of one non-negative ``int`` per
        generator; ConfigError for anything else."""
        try:
            key = tuple(map(index, m))
        except TypeError:
            key = None
        if (key is None or len(key) != len(self.names)
                or min(key, default=0) < 0):
            raise ConfigError(f"{m!r} is not an exponent vector of "
                              f"{len(self.names)} non-negative integers")
        return key

    def element(self, terms) -> "AlgebraElement":
        """The element sum_m c_m y^m; each c_m is anything ``_coef`` takes,
        each m an exponent vector (``_monomial``)."""
        acc = {}
        for m, c in terms.items():
            _add_into(acc.setdefault(self._monomial(m), {}), _coef(c).terms)
        return AlgebraElement._of(self, acc)

    def monomial_basis(self, max_degree: int):
        """The normal-ordered exponent vectors of degree <= ``max_degree``
        (``_degree``) by (degree, m): a fresh slice of ``structure.basis``."""
        s, max_degree = self.structure, _degree(max_degree)
        gens = range(s.n)
        while len(s.basis_ends) <= max_degree:
            s.basis.extend(sorted(tuple(map(w.count, gens)) for w in
                                  combinations_with_replacement(
                                      gens, len(s.basis_ends))))
            s.basis_ends.append(len(s.basis))
        return s.basis[:s.basis_ends[max_degree]]

    def products(self, left: "AlgebraElement", right: "AlgebraElement",
                 degree: int) -> "ProductTable":
        """The ``ProductTable`` of left a right over deg a <= ``degree``
        (``_check_product``), cached in ``structure.tables`` under their
        typed terms in order (``_terms_key``) and the degree."""
        degree = _check_product(self, left, right, degree=degree)
        key = (_terms_key(left.terms), _terms_key(right.terms), degree)
        found = self.structure.tables.get(key)
        if found is None:
            found = self.structure.tables[key] = ProductTable(
                self.structure, left.terms, right.terms,
                self.monomial_basis(degree))
        return found


def _degree(d) -> int:
    """``d`` as a non-negative ``int``, else ConfigError."""
    if not ((type(d) is int or isinstance(d, Integral)) and d >= 0):
        raise ConfigError(f"degree {d!r} is not a non-negative integer")
    return int(d)


def _check_product(gens: GeneratorSet, *factors, degree=0) -> int:
    """``_degree(degree)``; ConfigError unless the ``factors`` are on
    ``gens``, DegreeExceeded when their product with a monomial of degree
    ``degree`` passes ``DEGREE_CAP``."""
    if any(f.gens is not gens for f in factors):
        raise ConfigError("elements belong to different generator sets")
    total = _degree(degree) + sum(f.degree() for f in factors)
    if total > DEGREE_CAP:
        raise DegreeExceeded(f"product degree {total} exceeds cap "
                             f"{DEGREE_CAP}")
    return int(degree)


def _block_part(m: tuple, block: tuple) -> tuple:
    """``m`` restricted to the generators of ``block``, zero elsewhere."""
    return tuple(e if g in block else 0 for g, e in enumerate(m))


def _terms(acc: dict) -> dict:
    """monomial -> summed hbar-power pairs, as monomial -> ``Coef`` with the
    zero sums dropped."""
    return {m: Coef._of(t) for m, t in
            ((m, _normalized(raw)) for m, raw in acc.items()) if t}


@lru_cache(maxsize=1 << 14)
def monomial_word(m: tuple) -> tuple:
    """Expand an exponent vector to its sorted word."""
    w = []
    for g, e in enumerate(m):
        w.extend([g] * e)
    return tuple(w)


@lru_cache(maxsize=1 << 14)
def _power(n: int, g: int, e: int) -> tuple:
    """The exponent vector of y_g**e on n generators."""
    return (0,) * g + (e,) + (0,) * (n - g - 1)


@lru_cache(maxsize=1 << 14)
def _reversed_factors(s: Structure, m: tuple) -> tuple:
    """The reversed word of ``m`` as factors of ``_expand``: ``m`` itself
    when no two of its generators have a rewrite rule (the reversed word is
    then ``m`` letter for letter), else y_g**e for each generator g of
    ``m``, in descending g."""
    f = s.factor(m)
    if not f[1] & f[2]:
        return (f,)
    return tuple(s.factor(_power(s.n, g, e))
                 for g, e in reversed(tuple(enumerate(m))) if e)


def _split_monomial(m: tuple, mask: tuple) -> tuple:
    """(a, the reversed word of r) for m = a r: a keeps the exponents where
    ``mask`` is 1, r the others; not cached, as the plans that call it
    are."""
    a = tuple(map(mul, m, mask))
    return a, monomial_word(tuple(map(sub, m, a)))[::-1]


def _walk_plan(mask, monomials) -> tuple:
    """(parts, nodes): the prefix walk valuing ``monomials``, a function of
    its arguments alone (``Structure.plans`` caches it).  With a frame
    ``mask`` each m = a r is cut by ``_split_monomial``: ``parts`` lists the
    distinct a and the walk runs over the reversed words of the r; with
    mask None, ``parts`` is empty and it runs over the words of the m.
    ``nodes`` are its steps depth first from the root (): (depth, letter
    applied or None, the (index in parts, m) pairs whose word ends there);
    a node's parent is the last earlier node one level up."""
    parts, words = {}, {}
    for m in monomials:
        if mask is None:
            i, w = 0, monomial_word(m)
        else:
            a, w = _split_monomial(m, mask)
            i = parts.setdefault(a, len(parts))
        words.setdefault(w, []).append((i, m))
    children = {}  # suffix -> the suffixes one letter longer
    for w in {w[k:] for w in words for k in range(len(w))}:
        children.setdefault(w[1:], []).append(w)
    nodes, stack = [], [()]
    while stack:
        w = stack.pop()
        nodes.append((len(w), w[0] if w else None, tuple(words.get(w, ()))))
        stack += children.get(w, ())
    return tuple(parts), tuple(nodes)


class AlgebraElement:
    """A normal-ordered polynomial; treat as immutable."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: dict):
        self.gens = gens
        self.terms = dict(terms)

    @classmethod
    def _of(cls, gens: GeneratorSet, acc: dict) -> "AlgebraElement":
        """The element of ``acc``: monomial -> summed hbar-power pairs, zero
        sums dropped."""
        el = object.__new__(cls)
        el.gens = gens
        el.terms = _terms(acc)
        return el

    # -- basic structure ---------------------------------------------------

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m) -> Coef:
        """The ``Coef`` of the monomial ``m`` (an exponent vector, checked by
        ``GeneratorSet._monomial``); zero if absent."""
        return self.terms.get(self.gens._monomial(m), _ZERO)

    def __eq__(self, other):
        """Equal term maps at once, else each monomial, an absent one 0."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms or all(
            self.terms.get(k, _ZERO) == other.terms.get(k, _ZERO)
            for k in set(self.terms) | set(other.terms))

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        acc = {m: dict(c.terms) for m, c in self.terms.items()}
        for m, c in other.terms.items():
            _add_into(acc.setdefault(m, {}), c.terms)
        return AlgebraElement._of(self.gens, acc)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) + (-1) * self

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        c = _coef(scalar)
        if not c:
            return self.gens.zero()
        return AlgebraElement(self.gens, {m: v for m, v in (
            (m, c * v) for m, v in self.terms.items()) if v})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.__rmul__(other)
        return multiply(self, other)

    def _coerce(self, x):
        if isinstance(x, AlgebraElement):
            if x.gens is not self.gens:
                raise ConfigError(
                    "elements belong to different generator sets")
            return x
        return _coef(x) * self.gens.one()

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        """Canonical text: sorted monomials with exact coefficient literals
        (sympy's ``sstr`` of each expanded coefficient)."""
        import sympy as sp
        return self._text(lambda c: sp.sstr(c._sympy_()), "\n")

    def __repr__(self):
        return f"<AlgebraElement {self._text(repr, '; ')!r}>"

    def _text(self, coef_text, sep: str) -> str:
        """The sorted monomials, each with ``coef_text`` of its Coef."""
        lines = [f"{_monomial_text(self.gens.names, m)} : "
                 f"{coef_text(self.terms[m])}"
                 for m in sorted(self.terms, key=lambda m: (sum(m), m))]
        return sep.join(lines) or "0"


def _monomial_text(names: tuple, m: tuple) -> str:
    """``m`` as "name^e*...", the unit as "1"."""
    return "*".join(f"{names[g]}^{e}" for g, e in enumerate(m) if e) or "1"


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Associative product in normal order (``_check_product``)."""
    _check_product(a.gens, a, b)
    s = a.gens.structure
    right = [(s.factor(mr), cr.terms) for mr, cr in b.terms.items()]
    return AlgebraElement(a.gens, _expand(s, (
        ((fl, fr), cl.terms, cr, None)
        for fl, cl in ((s.factor(ml), cl) for ml, cl in a.terms.items())
        for fr, cr in right)))


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """ab - ba by one ``_expand`` over the term pairs (x, y) in which a letter
    of one is blocked by the other's (``Structure.factor``): each adds xy
    with c_x c_y and yx with -c_y c_x.  Any other pair is free both ways,
    xy = yx = x + y with coefficient one, so it cancels exactly: skipped.
    ``_check_product`` first: DegreeExceeded even when every pair commutes."""
    _check_product(a.gens, a, b)
    s = a.gens.structure
    right = [(s.factor(m), c.terms, (-c).terms) for m, c in b.terms.items()]
    return AlgebraElement(a.gens, _expand(s, (
        t for fx, x in ((s.factor(m), c.terms) for m, c in a.terms.items())
        for fy, y, minus_y in right if fx[1] & fy[2] or fy[1] & fx[2]
        for t in (((fx, fy), x, y, None), ((fy, fx), minus_y, x, None)))))


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """The *-involution: reverse each word, conjugate each coefficient."""
    s = a.gens.structure
    return AlgebraElement(a.gens, _expand(s, (
        (_reversed_factors(s, m), c.terms, _ONE.terms, c)
        for m, c in ((m, c.conjugate()) for m, c in a.terms.items()))))


def weyl_symmetrize(gens: GeneratorSet, m) -> AlgebraElement:
    """Average over all distinct orderings of the monomial's multiset.

    The result is expressed in normal order; its leading (same-degree)
    monomial is ``m`` with coefficient one.  It is the recurrence
    W(m) = sum_{g in B} (m_g / n) y_g W(m - e_g) over the first commuting
    block B that ``m`` meets, n the degree of m in B.  That is exact: a
    share m_g / n of the orderings of m's part in B begin with y_g, and the
    other blocks commute with B.  Every average is cached on the shared
    ``gens.structure``.  ConfigError unless ``m`` is an exponent vector
    (``GeneratorSet._monomial``); DegreeExceeded when ``m`` passes
    ``DEGREE_CAP``, as a product would.
    """
    m = gens._monomial(m)
    _check_product(gens, degree=sum(m))
    return AlgebraElement(gens, _weyl_terms(gens.structure, m))


def _weyl_terms(s: Structure, m: tuple) -> dict:
    """The terms of ``weyl_symmetrize`` for ``m``, by its recurrence in one
    ``_expand`` call, cached in ``s.weyl`` (shared; do not mutate)."""
    cached = s.weyl.get(m)
    if cached is not None:
        return cached
    block = next((b for b in s.blocks if any(m[g] for g in b)), None)
    if block is None:
        result = {m: _ONE}
    else:
        n = sum(m[g] for g in block)
        result = _expand(s, (
            ((s.factor(e), s.factor(mm)), share, c.terms, None)
            for e, share in ((_power(s.n, g, 1),
                              _coef(Fraction(m[g], n)).terms)
                             for g in block if m[g])
            for mm, c in _weyl_terms(s, tuple(map(sub, m, e))).items()))
    s.weyl[m] = result
    return result


def to_weyl_basis(a: AlgebraElement) -> dict:
    """Coefficients c_m with ``a = sum_m c_m * Weyl(m)`` (exact, triangular).

    The residual is cleared one degree at a time from the top, in
    descending m within a degree: Weyl(m) - m has only lower-degree terms,
    so clearing degree d never touches degree d or above.  DegreeExceeded
    when ``a`` passes ``DEGREE_CAP``.
    """
    _check_product(a.gens, a)
    s = a.gens.structure
    residual = dict(a.terms)
    coeffs = {}
    for d in range(a.degree(), -1, -1):
        for m in sorted((m for m in residual if sum(m) == d), reverse=True):
            c = coeffs[m] = residual.pop(m)
            if d == 0:
                continue
            for mm, cc in _weyl_terms(s, m).items():
                if mm == m:
                    continue
                v = residual.get(mm, _ZERO) - c * cc
                if v:
                    residual[mm] = v
                else:
                    residual.pop(mm, None)
    return coeffs


def from_weyl_basis(gens: GeneratorSet, coeffs: dict) -> AlgebraElement:
    """sum_m c_m * Weyl(m); each c_m is anything ``_coef`` takes, each m an
    exponent vector (``GeneratorSet._monomial``) of degree at most
    ``DEGREE_CAP`` (DegreeExceeded)."""
    acc = {}
    for m, c in coeffs.items():
        m, c = gens._monomial(m), _coef(c).terms
        _check_product(gens, degree=sum(m))
        for mm, cc in _weyl_terms(gens.structure, m).items():
            _mul_into(acc.setdefault(mm, {}), c, cc.terms)
    return AlgebraElement._of(gens, acc)

