"""``ncalg.Coef`` against sympy as the oracle, over random Laurent polynomials
in hbar over Q(i), with and without float parts.

Exact coefficients must equal sympy's results term by term.  With float
parts each slot (hbar power, real or imaginary) must be a Float exactly
where sympy's is, and agree with it to rounding: a product sums several
rounded terms per slot, and sympy may add them in another order.  Floats
are drawn away from the underflow range, where sympy's Floats (unbounded
exponent) and IEEE doubles part ways.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qrfkit import ncalg
from qrfkit.ncalg import HBAR, Coef, GeneratorSet

EXACT = st.one_of(st.integers(-20, 20),
                  st.fractions(min_value=-20, max_value=20,
                               max_denominator=12))
FLOAT = st.floats(min_value=-50, max_value=50, allow_nan=False,
                  allow_infinity=False).filter(lambda x: abs(x) > 1e-6)
SETTINGS = settings(max_examples=60)


def raw_terms(part):
    return st.dictionaries(st.integers(-3, 3), st.tuples(part, part),
                           max_size=4)


EXACT_TERMS = raw_terms(EXACT)
MIXED_TERMS = raw_terms(st.one_of(EXACT, FLOAT))


def oracle(terms) -> sp.Expr:
    """sum_k (re_k + I im_k) HBAR**k built by sympy from the raw parts."""
    def num(x):
        return sp.Float(x) if isinstance(x, float) else sp.Rational(
            Fraction(x).numerator, Fraction(x).denominator)

    return sp.expand(sum(((num(re) + num(im) * sp.I) * HBAR ** k
                          for k, (re, im) in terms.items()), sp.S.Zero))


def slots(expr) -> dict:
    """(hbar power, 0 real / 1 imaginary) -> sympy number of an expanded
    expression."""
    out = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        if term == 0:
            continue
        c, k = term.as_coeff_exponent(HBAR)
        for part, v in enumerate(c.as_real_imag()):
            if v != 0:
                out[(int(k), part)] = v
    return out


def assert_matches(coef: Coef, expr):
    got, want = slots(coef._sympy_()), slots(expr)
    assert got.keys() == want.keys()
    for key, v in want.items():
        assert got[key].is_Float == v.is_Float, key
        if v.is_Float:
            assert abs(float(got[key]) - float(v)) <= 1e-13 * max(
                1.0, abs(float(v))), key
        else:
            assert got[key] == v, key


@SETTINGS
@given(EXACT_TERMS, EXACT_TERMS)
def test_exact_sum_product_and_conjugate_equal_sympy(x, y):
    cx, cy = Coef(x), Coef(y)
    X, Y = oracle(x), oracle(y)
    assert (cx + cy)._sympy_() == sp.expand(X + Y)
    assert (cx - cy)._sympy_() == sp.expand(X - Y)
    assert (cx * cy)._sympy_() == sp.expand(X * Y)
    assert cx.conjugate()._sympy_() == sp.expand(sp.conjugate(X))


@SETTINGS
@given(MIXED_TERMS, MIXED_TERMS)
def test_float_tainted_sum_product_and_conjugate_match_sympy(x, y):
    cx, cy = Coef(x), Coef(y)
    X, Y = oracle(x), oracle(y)
    # one addition per slot rounds as sympy's does
    assert (cx + cy)._sympy_() == sp.expand(X + Y)
    assert_matches(cx * cy, X * Y)
    assert cx.conjugate()._sympy_() == sp.expand(sp.conjugate(X))


@SETTINGS
@given(MIXED_TERMS)
def test_difference_with_itself_is_zero(x):
    c = Coef(x)
    assert not (c - c)
    assert not (c + (-1) * c)
    assert c - c == 0


def test_half_float_and_half_fraction_cancel():
    gens = GeneratorSet.canonical([("q", "p")])
    q = gens.gen("q")
    assert (0.5 * q - Fraction(1, 2) * q).is_zero()
    assert not (Coef({1: (0.5, 0)}) - Coef({1: (Fraction(1, 2), 0)}))


@SETTINGS
@given(MIXED_TERMS, st.sampled_from([1.0, 0.7, 2.5, 1e-3]))
def test_numeric_matches_sympy_substitution(x, hbar):
    c = Coef(x)
    want = complex(oracle(x).subs(HBAR, hbar))
    scale = sum((abs(re) + abs(im)) * hbar ** k
                for k, (re, im) in c.terms.items())
    assert abs(ncalg.numeric(c, hbar) - want) <= 1e-14 * max(scale, 1e-300)


@SETTINGS
@given(MIXED_TERMS)
def test_sympy_input_round_trips(x):
    expr = oracle(x)
    assert ncalg._coef(expr)._sympy_() == expr
    assert ncalg._coef(expr) == Coef(x)


@pytest.mark.parametrize("expr", [sp.sqrt(2), sp.sqrt(HBAR),
                                  sp.Symbol("x") * HBAR, sp.pi, sp.oo,
                                  -sp.oo * HBAR, sp.I * sp.oo, sp.nan,
                                  sp.zoo])
def test_non_laurent_sympy_input_raises(expr):
    with pytest.raises(TypeError):
        ncalg._coef(expr)


@pytest.mark.parametrize("x", [float("nan"), float("inf"),
                               complex(0, float("nan"))])
def test_equality_with_a_non_finite_number_is_not_implemented(x):
    # _coef refuses x (ConfigError), and == falls back to False
    c = Coef({0: (1, 0)})
    assert c.__eq__(x) is NotImplemented
    assert c != x
