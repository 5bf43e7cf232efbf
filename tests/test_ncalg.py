import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (commutator_oracle, monomial_basis_oracle,
                     normal_order_oracle, represent, to_weyl_basis_oracle,
                     weyl_symmetrize_oracle)
from qrfkit import algstates as ast
from qrfkit import kinspace as ks
from qrfkit import models as md
from qrfkit import ncalg
from qrfkit.algstates import from_table
from qrfkit.errors import ConfigError, DegreeExceeded, RelationViolation
from qrfkit.ncalg import (HBAR, AlgebraElement, GeneratorSet, adjoint,
                          commutator, multiply, weyl_symmetrize)


@pytest.fixture(scope="module")
def pair():
    return GeneratorSet.canonical([("q", "p")])


@pytest.fixture(scope="module")
def two_frames():
    return GeneratorSet.canonical([("q_A", "p_A"), ("q_B", "p_B")],
                                  centrals=("G",))


@pytest.fixture(scope="module")
def su2set():
    return GeneratorSet.canonical_with_su2([("q_A", "p_A"), ("q_B", "p_B")])


def rand_element(gens, rng, max_degree=3, nterms=4):
    basis = gens.monomial_basis(max_degree)
    terms = {}
    for _ in range(nterms):
        m = basis[rng.integers(0, len(basis))]
        terms[m] = sp.Rational(int(rng.integers(-4, 5)),
                               int(rng.integers(1, 4)))
    return gens.element(terms)


class TestRelations:
    def test_canonical_commutator(self, pair):
        q, p = pair.gen("q"), pair.gen("p")
        assert commutator(q, p) == sp.I * HBAR * pair.one()

    def test_su2_commutator(self, su2set):
        jx, jy, jz = (su2set.gen(n) for n in ("J_x", "J_y", "J_z"))
        assert commutator(jx, jy) == sp.I * HBAR * jz
        assert commutator(jy, jz) == sp.I * HBAR * jx
        assert commutator(jz, jx) == sp.I * HBAR * jy

    def test_identity_neutral(self, pair):
        a = pair.element({(2, 1): 3, (0, 0): sp.Rational(1, 2)})
        assert a * pair.one() == a
        assert pair.one() * a == a

    def test_frame_condition_commutator(self, two_frames):
        # [q_A, p_A + p_B + G] = i*hbar*1
        qa = two_frames.gen("q_A")
        C = (two_frames.gen("p_A") + two_frames.gen("p_B")
             + two_frames.gen("G"))
        assert commutator(qa, C) == sp.I * HBAR * two_frames.one()

    def test_disjoint_generators_commute(self, su2set):
        assert commutator(su2set.gen("q_A"), su2set.gen("J_x")).is_zero()

    def test_bad_jacobi_rejected(self):
        # [x,y]=z, [x,z]=x, [y,z]=y violates the Jacobi identity
        with pytest.raises(ValueError):
            GeneratorSet(("x", "y", "z"),
                         {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}})


class TestMultiply:
    def test_normal_order_pq(self, pair):
        q, p = pair.gen("q"), pair.gen("p")
        # p*q = q*p - i*hbar
        pq = p * q
        assert pq == pair.element({(1, 1): 1, (0, 0): -sp.I * HBAR})

    def test_associativity_random(self, two_frames):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rand_element(two_frames, rng)
            b = rand_element(two_frames, rng)
            c = rand_element(two_frames, rng)
            assert (a * b) * c == a * (b * c)

    def test_distributes(self, pair):
        rng = np.random.default_rng(6)
        a, b, c = (rand_element(pair, rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c

    def test_degree_cap(self):
        gens = GeneratorSet.canonical([("q", "p")])
        q = gens.gen("q")
        high = gens.element({(12, 0): 1})
        with pytest.raises(DegreeExceeded):
            high * q
        # the top degrees of the factors decide, whatever their other terms
        with pytest.raises(DegreeExceeded, match="degree 13 exceeds cap 12"):
            (q + high) * (gens.one() + q)

    def test_product_table_degree_cap(self):
        # a table of q a p over deg a <= d reaches degree d + 2
        gens = GeneratorSet.canonical([("q", "p")])
        q, p = gens.gen("q"), gens.gen("p")
        assert gens.products(q, p, 10).rows
        with pytest.raises(DegreeExceeded, match="degree 13 exceeds cap 12"):
            gens.products(q, p, 11)

    @pytest.mark.parametrize("site", ["weyl_symmetrize", "to_weyl_basis",
                                      "from_weyl_basis"])
    def test_weyl_degree_cap(self, site):
        # a Weyl average is a sum of products: capped as a product is.  One
        # block per generator, so an uncapped average would still be quick
        gens = GeneratorSet(("a", "b", "c"), {})
        m = (5, 4, 4)
        call = {"weyl_symmetrize": lambda: weyl_symmetrize(gens, m),
                "to_weyl_basis": lambda: ncalg.to_weyl_basis(
                    gens.element({m: 1, (0, 0, 1): 2})),
                "from_weyl_basis": lambda: ncalg.from_weyl_basis(
                    gens, {(0, 0, 1): 2, m: 1})}[site]
        with pytest.raises(DegreeExceeded,
                           match="product degree 13 exceeds cap 12"):
            call()
        assert weyl_symmetrize(gens, (4, 4, 4)).terms == {(4, 4, 4): 1}

    def test_hbar_power_counts_rewrites(self, pair):
        # p^2 q^2 needs commutator rewrites; every coefficient's hbar power
        # equals the number of rewrites on any path to normal order
        p, q = pair.gen("p"), pair.gen("q")
        el = (p * p) * (q * q)
        for m, c in el.terms.items():
            drop = 4 - sum(m)  # each rewrite that removed a pair
            poly = sp.Poly(sp.expand(c), HBAR)
            powers = {mono[0] for mono in poly.monoms()}
            assert powers == {drop // 2}

    def test_confluence_random_words(self, su2set):
        rng = np.random.default_rng(9)
        n = len(su2set.names)
        for _ in range(20):
            word = tuple(int(rng.integers(0, n)) for _ in range(5))
            split = int(rng.integers(1, 5))
            a = su2set.element(
                {tuple(np.bincount(word[:split], minlength=n)): 1})
            # multiply letter-by-letter in two association orders
            letters = [su2set.gen(su2set.names[g]) for g in word]
            left = letters[0]
            for x in letters[1:]:
                left = left * x
            right = letters[-1]
            for x in reversed(letters[:-1]):
                right = x * right
            assert left == right


class TestCommutatorProperties:
    def test_bilinear_and_alternating(self, two_frames):
        rng = np.random.default_rng(11)
        a = rand_element(two_frames, rng)
        b = rand_element(two_frames, rng)
        assert commutator(a, a).is_zero()
        assert commutator(a + b, a) == commutator(b, a)

    def test_jacobi_random_triples(self, su2set):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rand_element(su2set, rng, max_degree=2, nterms=3)
            b = rand_element(su2set, rng, max_degree=2, nterms=3)
            c = rand_element(su2set, rng, max_degree=2, nterms=3)
            j = (commutator(a, commutator(b, c))
                 + commutator(b, commutator(c, a))
                 + commutator(c, commutator(a, b)))
            assert j.is_zero()

    def test_degree_drop(self, two_frames):
        # canonical pairs: deg[a,b] <= deg a + deg b - 2
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rand_element(two_frames, rng, max_degree=3)
            b = rand_element(two_frames, rng, max_degree=3)
            c = commutator(a, b)
            if not c.is_zero():
                assert c.degree() <= a.degree() + b.degree() - 2

    def test_degree_drop_lie(self, su2set):
        rng = np.random.default_rng(19)
        jx, jy = su2set.gen("J_x"), su2set.gen("J_y")
        c = commutator(jx * jx, jy)
        assert c.degree() <= 2 + 1 - 1


class TestWeyl:
    def test_weyl_qp(self, pair):
        w = weyl_symmetrize(pair, (1, 1))
        # (qp + pq)/2 = qp - i*hbar/2 in normal order
        assert w == pair.element({(1, 1): 1, (0, 0): -sp.I * HBAR / 2})

    def test_weyl_single_generator(self, pair):
        assert weyl_symmetrize(pair, (2, 0)) == pair.element({(2, 0): 1})

    def test_weyl_q2p_brute_force(self, pair):
        from itertools import permutations

        w = weyl_symmetrize(pair, (2, 1))
        acc = pair.zero()
        seen = set()
        n = 0
        for perm in permutations((0, 0, 1)):
            if perm in seen:
                continue
            seen.add(perm)
            n += 1
            acc = acc + pair.element(
                dict(pair.structure.normal_order_word(perm)))
        assert w == sp.Rational(1, n) * acc

    def test_weyl_basis_roundtrip(self, su2set):
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = rand_element(su2set, rng, max_degree=3)
            coeffs = ncalg.to_weyl_basis(a)
            back = ncalg.from_weyl_basis(su2set, coeffs)
            assert back == a


def interleaved():
    """Two canonical pairs whose blocks interleave in the generator order."""
    return GeneratorSet(("q1", "q2", "p1", "p2"),
                        {(0, 2): {ncalg.IDENTITY: 1},
                         (1, 3): {ncalg.IDENTITY: 1}})


def count_normal_forms(monkeypatch) -> list:
    """The list that every ``Structure.normal_order_word`` call appends its
    word to, until ``monkeypatch`` is undone."""
    calls = []
    plain = ncalg.Structure.normal_order_word

    def counting(structure, word):
        calls.append(word)
        return plain(structure, word)

    monkeypatch.setattr(ncalg.Structure, "normal_order_word", counting)
    return calls


BLOCK_SETS = {
    "nparticle": lambda: md.build_model(md.ModelSpec("nparticle")).gens,
    "su2": lambda: md.build_model(md.ModelSpec("su2")).gens,
    "degenerate": lambda: md.build_model(md.ModelSpec("degenerate")).gens,
    "newtonian": lambda: md.build_model(
        md.ModelSpec("newtonian", dp=2.0)).gens,
    "interleaved": interleaved,
}


class TestCommutingBlocks:
    @pytest.mark.parametrize("name, blocks", [
        ("nparticle", ((0, 1), (2, 3), (4, 5))),
        ("su2", ((0, 1), (2, 3), (4, 5, 6))),
        ("degenerate", ((0, 1), (2,))),
        ("newtonian", ((0, 1), (2, 3))),
        ("interleaved", ((0, 2), (1, 3))),
    ])
    def test_blocks_of_the_relation_tables(self, name, blocks):
        assert BLOCK_SETS[name]().structure.blocks == blocks

    # (g, h): the letter g cannot pass an earlier h > g by a plain swap
    @pytest.mark.parametrize("name, pairs", [
        ("nparticle", ((0, 1), (2, 3), (4, 5))),
        ("su2", ((0, 1), (2, 3), (4, 5), (4, 6), (5, 6))),
        ("degenerate", ((0, 1),)),
        ("newtonian", ((0, 1), (2, 3))),
        ("interleaved", ((0, 2), (1, 3))),
    ])
    def test_blocked_masks_of_the_relation_tables(self, name, pairs):
        s = BLOCK_SETS[name]().structure
        expected = [0] * s.n
        for g, h in pairs:
            expected[g] |= 1 << h
        assert s.blocked == expected

    def test_a_component_joins_its_relation_block(self):
        # Heisenberg [x, y] = i*hbar*z: z shares the block; w is alone, and
        # a relation whose components are all zero links nothing
        gens = GeneratorSet(("x", "y", "z", "w"),
                            {(0, 1): {2: 1}, (2, 3): {ncalg.IDENTITY: 0}})
        assert gens.structure.blocks == ((0, 1, 2), (3,))

    @pytest.mark.parametrize("name", sorted(BLOCK_SETS))
    def test_weyl_equals_the_permutation_oracle(self, name):
        gens = BLOCK_SETS[name]()
        for m in gens.monomial_basis(5):
            w, ref = weyl_symmetrize(gens, m), weyl_symmetrize_oracle(gens, m)
            assert w == ref, m
            assert w.serialize() == ref.serialize(), m

    @pytest.mark.parametrize("name", sorted(BLOCK_SETS))
    def test_to_weyl_basis_equals_the_oracle_term_for_term(self, name):
        gens = BLOCK_SETS[name]()
        rng = np.random.default_rng(41)
        basis = gens.monomial_basis(4)

        def coef(kind):
            num = int(rng.integers(-5, 6))
            return {"rational": Fraction(num, 3),
                    "complex": complex(num, int(rng.integers(-3, 4))),
                    "float": num / 3}[kind]

        elements = [gens.element({basis[int(rng.integers(0, len(basis)))]:
                                  coef(kind) for _ in range(6)})
                    for kind in ("rational", "complex", "float")
                    for _ in range(4)]
        s = gens.zero()
        for k, n in enumerate(gens.names):
            s = s + (k + 1) * gens.gen(n)
        elements.append((s * s) * (s * s))
        for a in elements:
            coeffs, ref = ncalg.to_weyl_basis(a), to_weyl_basis_oracle(a)
            assert list(coeffs) == list(ref)
            assert all(coeffs[m].terms == ref[m].terms for m in ref)
            assert ncalg.from_weyl_basis(gens, coeffs) == a

    def test_weyl_normal_orders_one_letter_times_a_sorted_word(self,
                                                             monkeypatch):
        # The recurrence W(m) = sum_g (m_g / n) y_g W(m - e_g) normal-orders
        # only y_g times a normal-ordered monomial: one letter followed by a
        # sorted word.  q_A p_A q_B p_B q_C p_C takes 7 such words, where
        # the whole word has 720 distinct orderings: p_X q_X times each of
        # the 4, 2 and 1 terms of the averages of the pairs after X.  Three
        # canonical pairs scaled by 2, 3 and 5, a table no other test
        # builds, so the shared structure is cold (checked) and every word
        # is counted.
        gens = GeneratorSet(("q_A", "p_A", "q_B", "p_B", "q_C", "p_C"),
                            {(0, 1): {ncalg.IDENTITY: 2},
                             (2, 3): {ncalg.IDENTITY: 3},
                             (4, 5): {ncalg.IDENTITY: 5}})
        assert not gens.structure.words and not gens.structure.weyl
        calls = count_normal_forms(monkeypatch)
        w = weyl_symmetrize(gens, (1, 1, 1, 1, 1, 1))
        assert all(list(word[1:]) == sorted(word[1:]) for word in calls)
        assert sorted(calls) == [(1, 0), (1, 0, 2, 3), (1, 0, 2, 3, 4, 5),
                                 (1, 0, 4, 5), (3, 2), (3, 2, 4, 5), (5, 4)]
        monkeypatch.undo()
        assert w == weyl_symmetrize_oracle(gens, (1, 1, 1, 1, 1, 1))

    def test_weyl_of_degree_nine_on_a_cold_su2(self, monkeypatch):
        # x^3 y^3 z^3 has 1680 distinct orderings; the recurrence
        # normal-orders 129 distinct words.  A bare su(2) triple scaled by
        # 7, a table no other test builds, so the structure is cold.
        gens = GeneratorSet(("x", "y", "z"), {(0, 1): {2: 7}, (1, 2): {0: 7},
                                              (0, 2): {1: -7}})
        assert not gens.structure.words and not gens.structure.weyl
        calls = count_normal_forms(monkeypatch)
        w = weyl_symmetrize(gens, (3, 3, 3))
        monkeypatch.undo()
        assert len(set(calls)) == len(gens.structure.words) == 129
        assert all(list(word[1:]) == sorted(word[1:]) for word in calls)
        assert max(w.terms, key=lambda m: (sum(m), m)) == (3, 3, 3)
        assert w.coefficient((3, 3, 3)) == 1
        assert all(sum(m) < 9 for m in w.terms if m != (3, 3, 3))
        assert adjoint(w) == w

    def test_monomial_basis_is_sorted_and_fresh(self):
        for n in range(1, 8):
            gens = GeneratorSet([f"y{g}" for g in range(n)], {})
            for d in (3, 0, 6, 2):  # grown, then read back below the top
                basis = gens.monomial_basis(d)
                assert basis == monomial_basis_oracle(n, d)
                basis.append(None)
                basis[0] = None
                assert gens.monomial_basis(d) == monomial_basis_oracle(n, d)
            with pytest.raises(ConfigError, match="degree -1"):
                gens.monomial_basis(-1)


SU2_TABLE = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}

# Run in a fresh interpreter (cold structures) and in this one (warm): the
# normal forms, Weyl averages and one constraint check, as exact reprs and
# float hex strings.
COLD_WARM = """if True:
    import numpy as np
    from qrfkit import algstates as ast, models as md, ncalg

    def report():
        registered = len(ncalg._STRUCTURES)
        su2 = ncalg.GeneratorSet(("x", "y", "z"), {
            (0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
        floaty = ncalg.GeneratorSet(("q", "p"), {(0, 1): {-1: 0.5}})
        lines = [str(registered)]
        for gens, word in [(su2, (2, 1, 0, 2)), (su2, (1, 1, 0, 0)),
                           (floaty, (1, 1, 0, 0))]:
            terms = gens.structure.normal_order_word(word)
            lines.append(repr(sorted((m, c.terms) for m, c in terms.items())))
        model = md.build_model(md.ModelSpec("nparticle"))
        for m in model.gens.monomial_basis(4)[::7]:
            w = ncalg.weyl_symmetrize(model.gens, m)
            lines.append(repr(sorted((k, c.terms) for k, c in w.terms.items())))
        psi = md.random_physical_state(model, np.random.default_rng(3))
        fr = model.frames["A"]
        om = ast.frame_state(model.space, model.constraint, fr, fr.grid[2],
                             psi, model.assignment, model.gens, 5)
        lines.append(ast.check_constraint_surface(
            om, model.constraint_elem, 5).hex())
        return "\\n".join(lines)
"""


class TestSharedStructure:
    """Generator sets with the same number of generators and the same exact
    relation table share one ``Structure``: its normal forms, Weyl averages
    and monomial basis."""

    def test_two_builds_of_one_model_share_the_structure(self):
        spec = md.ModelSpec("su2", lattice_size=6)
        a, b = md.build_model(spec).gens, md.build_model(spec).gens
        assert a is not b and a.structure is b.structure
        # their elements still do not mix
        with pytest.raises(ConfigError, match="different generator sets"):
            a.gen("q_A") * b.gen("q_A")

    def test_names_and_degree_cap_are_not_in_the_key(self):
        a = GeneratorSet.canonical([("q", "p")], centrals=("H",))
        b = GeneratorSet.canonical([("t", "s")], centrals=("G",))
        assert a.structure is b.structure
        # the cap is one module constant, not a field of a generator set
        assert ncalg.DEGREE_CAP == 12 and not hasattr(a, "degree_cap")
        assert b.names == ("t", "s", "G")
        assert not hasattr(a, "__dict__")  # nothing else on the instance

    def test_a_float_table_does_not_share_with_its_exact_twin(self):
        names = ("x", "y", "z")
        exact = GeneratorSet(names, SU2_TABLE)
        exact.structure.normal_order_word((1, 0))  # warm the exact structure
        floats = GeneratorSet(names, {(0, 1): {2: 1.0}, (1, 2): {0: 1},
                                      (0, 2): {1: -1}})
        assert floats.structure is not exact.structure
        assert GeneratorSet(names, {k: {c: Fraction(a) for c, a in v.items()}
                                    for k, v in SU2_TABLE.items()}
                            ).structure is exact.structure
        # y x = x y - i*hbar*z: the float part stays a float, the exact
        # part an int
        for gens, kind in ((floats, float), (exact, int)):
            rewritten = gens.structure.normal_order_word((1, 0))[
                (0, 0, 1)].terms
            assert rewritten == {1: (0, -1)} and type(rewritten[1][1]) is kind

    def test_bad_jacobi_raises_after_a_good_table_of_its_shape(self):
        names = ("x", "y", "z")
        GeneratorSet(names, SU2_TABLE)
        bad = {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}}
        for _ in range(2):  # a bad table is never registered
            with pytest.raises(ConfigError, match="Jacobi"):
                GeneratorSet(names, bad)

    def test_cold_and_warm_structures_give_the_same_bits(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                               if p)
        cold = subprocess.run(
            [sys.executable, "-c", COLD_WARM + "print(report())"],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}).stdout.rstrip("\n")
        ns = {}
        exec(COLD_WARM, ns)
        ns["report"]()
        warm = ns["report"]()
        assert cold.split("\n")[0] == "0"  # nothing registered before
        assert warm.split("\n")[0] != "0"
        assert cold.split("\n")[1:] == warm.split("\n")[1:]

    def test_a_second_build_adds_no_normal_form(self, monkeypatch):
        spec = md.ModelSpec("nparticle", lattice_size=8)

        def check():
            model = md.build_model(spec)
            psi = md.random_physical_state(model, np.random.default_rng(7))
            fr = model.frames["A"]
            om = ast.frame_state(model.space, model.constraint, fr,
                                 fr.grid[1], psi, model.assignment,
                                 model.gens, 4)
            return model.gens, ast.check_constraint_surface(
                om, model.constraint_elem, 4)

        first, value = check()
        words = dict(first.structure.words)
        calls = count_normal_forms(monkeypatch)
        second, again = check()
        assert second is not first and second.structure is first.structure
        # the constraint check reads the shared product table
        assert not calls and first.structure.words == words
        assert again == value


class TestAdjoint:
    def test_qp_adjoint(self, pair):
        q, p = pair.gen("q"), pair.gen("p")
        assert adjoint(q * p) == p * q

    def test_generators_fixed(self, su2set):
        for n in su2set.names:
            assert adjoint(su2set.gen(n)) == su2set.gen(n)

    def test_antihomomorphism_random(self, two_frames):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = rand_element(two_frames, rng)
            b = rand_element(two_frames, rng)
            assert adjoint(a * b) == adjoint(b) * adjoint(a)

    def test_involution(self, su2set):
        rng = np.random.default_rng(31)
        a = rand_element(su2set, rng)
        assert adjoint(adjoint(a)) == a

    def test_antilinear(self, pair):
        a = pair.gen("q") * pair.gen("p")
        assert adjoint(sp.I * a) == -sp.I * adjoint(a)


class TestRepresent:
    def spin_matrices(self, hbar):
        jp = hbar * np.array([[0, np.sqrt(2), 0],
                              [0, 0, np.sqrt(2)],
                              [0, 0, 0]])
        jx = (jp + jp.conj().T) / 2
        jy = (jp - jp.conj().T) / (2j)
        jz = hbar * np.diag([1.0, 0.0, -1.0])
        return jx, jy, jz

    def test_su2_representation_exact(self):
        gens = GeneratorSet(("J_x", "J_y", "J_z"),
                            {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
        sp_lat = ks.tensor_space([ks.FactorSpec.system([1.0, 0.0, -1.0])])
        jx, jy, jz = self.spin_matrices(sp_lat.hbar)
        assign = {"J_x": jx, "J_y": jy, "J_z": jz}
        report = ast.verify_assignment(gens, sp_lat, {
            name: ks.KinOperator.from_matrix(sp_lat, m)
            for name, m in assign.items()})
        assert all(v < 1e-12 for v in report.values())
        el = commutator(gens.gen("J_x"), gens.gen("J_y"))
        mat = represent(el, sp_lat, assign)
        assert np.max(np.abs(mat - 1j * sp_lat.hbar * jz)) < 1e-12

    def test_identity_representation(self, pair):
        sp_lat = ks.tensor_space([ks.FactorSpec.frame(4, 1.0)])
        p_op = ks.momentum_operator(sp_lat, 0)
        from qrfkit.relobs import OrientationFrame, orientation_operator

        q_op = orientation_operator(OrientationFrame(sp_lat, 0))
        mat = represent(pair.one(), sp_lat, {"q": q_op, "p": p_op})
        assert np.allclose(mat, np.eye(4))

    def test_broken_lie_assignment_raises(self):
        gens = GeneratorSet(("J_x", "J_y", "J_z"),
                            {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
        sp_lat = ks.tensor_space([ks.FactorSpec.system([1.0, 0.0, -1.0])])
        jx, jy, jz = self.spin_matrices(sp_lat.hbar)
        with pytest.raises(RelationViolation):
            ast.verify_assignment(gens, sp_lat, {
                name: ks.KinOperator.from_matrix(sp_lat, m)
                for name, m in (("J_x", jx), ("J_y", jy), ("J_z", 2 * jz))})

    def test_canonical_residual_reported_on_localized_states(self):
        pairset = GeneratorSet.canonical([("q", "p")])
        sp_lat = ks.tensor_space([ks.FactorSpec.frame(64, 1.0)])
        from qrfkit.relobs import OrientationFrame, orientation_operator

        fr = OrientationFrame(sp_lat, 0)
        q_op = orientation_operator(fr)
        p_op = ks.momentum_operator(sp_lat, 0)
        F = fr.fourier_matrix()
        j = np.arange(-32, 32)
        prof = np.exp(-j ** 2 / (4 * 4.0 ** 2))
        psi = F @ prof
        psi /= np.linalg.norm(psi)
        report = ast.verify_assignment(pairset, sp_lat,
                                       {"q": q_op, "p": p_op},
                                       test_states=[psi])
        assert report[("q", "p")] < 1e-6


class TestSerialization:
    def test_canonical_text(self, pair):
        a = pair.element({(1, 1): 1, (0, 0): -sp.I * HBAR / 2})
        text = a.serialize()
        assert "q^1*p^1" in text and "hbar" in text

    def test_roundtrip_stability(self, two_frames):
        rng = np.random.default_rng(37)
        a = rand_element(two_frames, rng)
        assert a.serialize() == two_frames.element(dict(a.terms)).serialize()

    def test_exponents_are_stored_as_ints(self, pair):
        # an integral exponent of another type is read as its int
        a = pair.element({(True, np.int64(2)): 1})
        [m] = a.terms
        assert m == (1, 2) and [type(e) for e in m] == [int, int]
        assert repr(a) == "<AlgebraElement 'q^1*p^2 : Coef({0: (1, 0)})'>"
        assert a.coefficient((True, np.int64(2))) == 1
        w = weyl_symmetrize(pair, (np.int64(1), True))
        assert [type(e) for m in w.terms for e in m] == [int] * 4


class TestNumericBoundary:
    def test_numeric_hand_values(self):
        assert ncalg.numeric(-sp.I * HBAR / 2, 0.7) == -0.35j
        assert ncalg.numeric(3 / HBAR + sp.I, 0.7) == 3 / 0.7 + 1j

    def test_float_scalar_times_one(self, two_frames):
        omega = from_table(two_frames, {two_frames.unit_monomial(): 1.0})
        assert omega.evaluate(0.3 * two_frames.one()) == 0.3

    def test_float_orientation_shift(self, two_frames):
        rho = float(np.pi / 16)
        q_a = (1, 0, 0, 0, 0)
        omega = from_table(two_frames, {two_frames.unit_monomial(): 1.0,
                                        q_a: 0.25})
        z = two_frames.gen("q_A") - rho * two_frames.one()
        assert omega.evaluate(z) == 0.25 - rho


def test_represent_leaves_raw_assignment_writeable():
    gens = GeneratorSet(("J_x", "J_y", "J_z"),
                        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    sp_lat = ks.tensor_space([ks.FactorSpec.system([1.0, 0.0, -1.0])])
    jp = np.array([[0, np.sqrt(2), 0], [0, 0, np.sqrt(2)], [0, 0, 0]],
                  dtype=complex)
    assign = {"J_x": (jp + jp.conj().T) / 2, "J_y": (jp - jp.conj().T) / 2j,
              "J_z": np.diag([1.0, 0.0, -1.0]).astype(complex)}
    represent(gens.gen("J_x") * gens.gen("J_y") + gens.gen("J_z"),
              sp_lat, assign)
    assert all(m.flags.writeable for m in assign.values())


# ---------------------------------------------------------------------------
# the product kernel: every exact product is summed by ncalg._expand

KERNEL_SPECS = {
    "nparticle": md.ModelSpec("nparticle"),
    "su2": md.ModelSpec("su2"),
    "su2.beta2": md.ModelSpec("su2", beta=2, dp=0.1),  # C exact: -J_z/5
    "su2.float": md.ModelSpec("su2", dp=math.sqrt(2)),  # C float-tainted
    "newtonian": md.ModelSpec("newtonian", dp=2.0),
    "degenerate": md.ModelSpec("degenerate"),
}


def typed_terms(terms: dict) -> list:
    """A term dict in order, each coefficient part with its type."""
    return [(m, ncalg._coef_key(c)) for m, c in terms.items()]


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_product_rows_are_bitwise_the_products_multiply_builds(name):
    model = md.build_model(KERNEL_SPECS[name])
    g, C = model.gens, model.constraint_elem
    z = g.gen(next(iter(model.frame_pairs.values()))[0])
    if name == "su2.float":
        assert any(type(part) is float for c in C.terms.values()
                   for pair in c.terms.values() for part in pair)
    basis = g.monomial_basis(3)
    rows_c = g.products(g.one(), C, 3).rows
    rows_z = g.products(z, g.one(), 3).rows
    for m, row_c, row_z in zip(basis, rows_c, rows_z, strict=True):
        a = g.element({m: 1})
        assert typed_terms(row_c) == typed_terms(multiply(a, C).terms)
        assert typed_terms(row_z) == typed_terms(multiply(z, a).terms)


# exact identities of the *-algebra, over random elements of degree <= 3
# with Gaussian rational coefficients (hbar powers -1 to 1)
ALGEBRAS = {
    "canonical": GeneratorSet.canonical([("q_A", "p_A"), ("q_B", "p_B")],
                                        centrals=("G",)),
    "su2": GeneratorSet.canonical_with_su2([("q_A", "p_A")]),
}
PART = st.fractions(min_value=-3, max_value=3, max_denominator=3)
COEF = st.builds(lambda k, re, im: ncalg.Coef({k: (re, im)}),
                 st.integers(-1, 1), PART, PART)
ALGEBRA_SETTINGS = settings(max_examples=50)


@st.composite
def elements(draw, n=3):
    """``n`` random elements of one algebra, each of degree <= 3 with at
    most three terms."""
    gens = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    monomials = st.sampled_from(gens.monomial_basis(3))
    return [gens.element(draw(st.dictionaries(monomials, COEF, max_size=3)))
            for _ in range(n)]


@ALGEBRA_SETTINGS
@given(elements())
def test_product_is_associative(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@ALGEBRA_SETTINGS
@given(elements(2))
def test_adjoint_reverses_products(ab):
    a, b = ab
    assert adjoint(a * b) == adjoint(b) * adjoint(a)


@ALGEBRA_SETTINGS
@given(elements(1))
def test_adjoint_is_an_involution(a):
    assert adjoint(adjoint(a[0])) == a[0]


@ALGEBRA_SETTINGS
@given(elements())
def test_commutator_satisfies_jacobi(abc):
    a, b, c = abc
    jacobi = (commutator(a, commutator(b, c)) + commutator(b, commutator(c, a))
              + commutator(c, commutator(a, b)))
    assert jacobi.is_zero()


@ALGEBRA_SETTINGS
@given(elements(1))
def test_weyl_basis_round_trip(a):
    gens = a[0].gens
    assert ncalg.from_weyl_basis(gens, ncalg.to_weyl_basis(a[0])) == a[0]


# relation tables for the normal-form oracle; each example builds a new,
# cold Structure on one of them
ORACLE_TABLES = {
    "canonical": ALGEBRAS["canonical"].structure,
    "su2": ALGEBRAS["su2"].structure,
    "interleaved": interleaved().structure,
    "float": GeneratorSet(("q", "p"),
                          {(0, 1): {ncalg.IDENTITY: 0.5}}).structure,
    # a rule with coefficient zero blocks, so the rewrite engine adds a
    # zero term and drops it; a relation with no rule (as GeneratorSet
    # stores an all-zero one) blocks nothing
    "zero": ncalg.Structure(3, {(0, 1): {ncalg.IDENTITY: ncalg._ZERO},
                                (0, 2): {}, (1, 2): {0: 1}}),
}


@st.composite
def table_words(draw):
    """A relation table's name and a word of length 0-7 over it."""
    name = draw(st.sampled_from(sorted(ORACLE_TABLES)))
    n = ORACLE_TABLES[name].n
    return name, tuple(draw(st.lists(st.integers(0, n - 1), max_size=7)))


@settings(max_examples=300)
@given(table_words())
def test_normal_form_equals_the_rewrite_engine(name_word):
    name, word = name_word
    table = ORACLE_TABLES[name]
    s = ncalg.Structure(table.n, table.relations)
    expected = typed_terms(normal_order_oracle(s, word))
    assert typed_terms(s.normal_order_word(word)) == expected
    assert typed_terms(s.normal_order_word(word)) == expected  # cached


@st.composite
def table_products(draw):
    """A relation table's name, 2-3 normal-ordered monomials over it, each
    of degree <= 3, and whether the kernel is given the product's ``Coef``
    (as ``ProductTable`` gives it) or not (as ``multiply`` does)."""
    name = draw(st.sampled_from(sorted(ORACLE_TABLES)))
    n = ORACLE_TABLES[name].n
    letters = st.lists(st.integers(0, n - 1), max_size=3)
    return (name, [tuple(map(w.count, range(n)))
                   for w in draw(st.lists(letters, min_size=2, max_size=3))],
            draw(st.booleans()))


@settings(max_examples=300)
@given(table_products())
def test_kernel_product_equals_the_rewrite_engine(case):
    # free or not, the kernel's product of normal-ordered monomials is the
    # engine's normal form of their word, typed terms in order
    name, monomials, shared = case
    table = ORACLE_TABLES[name]
    s = ncalg.Structure(table.n, table.relations)
    word = sum(map(ncalg.monomial_word, monomials), ())
    one = ncalg._ONE
    got = ncalg._expand(s, [(tuple(map(s.factor, monomials)), one.terms,
                             one.terms, one if shared else None)])
    assert typed_terms(got) == typed_terms(normal_order_oracle(s, word))


# ---------------------------------------------------------------------------
# commutators: one kernel call over the term pairs that do not commute


@functools.cache
def block_set(name: str) -> GeneratorSet:
    """The generator set ``BLOCK_SETS[name]``, built once."""
    return BLOCK_SETS[name]()


def typed_map(terms: dict) -> dict:
    """A term dict as monomial -> hbar power -> its parts with their types,
    in no order: ``_coef_key`` read as maps."""
    return {m: {key[0]: key[1:] for key in ncalg._coef_key(c)}
            for m, c in terms.items()}


def count_expand(monkeypatch) -> list:
    """The list that every ``ncalg._expand`` call appends its number of
    product tuples to, until ``monkeypatch`` is undone."""
    sizes = []
    plain = ncalg._expand

    def counting(structure, pairs):
        pairs = list(pairs)
        sizes.append(len(pairs))
        return plain(structure, pairs)

    monkeypatch.setattr(ncalg, "_expand", counting)
    return sizes


EXACT_COEFS = {
    "int": st.integers(-5, 5),
    "fraction": PART,
    "complex": st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
    "laurent": COEF,
}
# floats with inexact binary expansions, mixed with the exact kinds; no
# product underflows, so the rounding stays relative to the summands
FLOAT_COEFS = st.one_of(st.integers(-14, 14).map(lambda k: k / 7),
                        *EXACT_COEFS.values())


@st.composite
def commutator_cases(draw):
    """A generator set of ``BLOCK_SETS``, whether its coefficients are exact,
    and two elements of degree <= 3 with at most four terms each."""
    gens = block_set(draw(st.sampled_from(sorted(BLOCK_SETS))))
    exact = draw(st.booleans())
    coefs = (draw(st.sampled_from(list(EXACT_COEFS.values()))) if exact
             else FLOAT_COEFS)
    monomials = st.sampled_from(gens.monomial_basis(3))
    a, b = (gens.element(draw(st.dictionaries(monomials, coefs, min_size=1,
                                              max_size=4)))
            for _ in range(2))
    return exact, a, b


def _size(c) -> float:
    """sum_k |re_k| + |im_k|: a bound on every part of c's products."""
    return sum(abs(re) + abs(im) for re, im in c.terms.values())


@settings(max_examples=300, deadline=None)
@given(commutator_cases())
def test_commutator_equals_the_difference_of_the_products(case):
    # exact coefficients keep their typed terms; a float-tainted monomial
    # may sum its products in another order, within 1e-14 of sum |c_x||c_y|
    exact, a, b = case
    got, expected = commutator(a, b), commutator_oracle(a, b)
    if exact:
        assert typed_map(got.terms) == typed_map(expected.terms)
        return
    tol = 1e-14 * sum(_size(x) * _size(y) for x in a.terms.values()
                      for y in b.terms.values())
    for m in set(got.terms) | set(expected.terms):
        g = got.terms.get(m, ncalg._ZERO).terms
        e = expected.terms.get(m, ncalg._ZERO).terms
        for k in set(g) | set(e):
            for x, y in zip(g.get(k, (0, 0)), e.get(k, (0, 0))):
                assert abs(x - y) <= tol


def test_commutator_expands_only_the_pairs_that_do_not_commute(monkeypatch):
    # s = sum (k+1) y_k and t = sum (6-k) y_k on nparticle: s^2 and t^2
    # have 22 terms each, and 201 of their 484 pairs do not commute, so the
    # kernel gets 402 products where the two full products have 968
    g = block_set("nparticle")
    y = [g.gen(name) for name in g.names]
    s = sum(((k + 1) * y[k] for k in range(6)), g.zero())
    t = sum(((6 - k) * y[k] for k in range(6)), g.zero())
    s2, t2 = s * s, t * t
    expected = commutator_oracle(s2, t2)
    sizes = count_expand(monkeypatch)
    got = commutator(s2, t2)
    assert (len(s2.terms), len(t2.terms), sizes) == (22, 22, [402])
    assert typed_map(got.terms) == typed_map(expected.terms)


def test_commutator_of_different_blocks_forms_no_product(monkeypatch):
    # A's pair against B's and C's: every pair commutes both ways
    g = block_set("nparticle")
    a = g.element({(2, 1, 0, 0, 0, 0): 3, (0, 1, 0, 0, 0, 0): Fraction(1, 2)})
    b = g.element({(0, 0, 1, 2, 0, 0): 1.5, (0, 0, 0, 0, 1, 1): 2j})
    words, sizes = count_normal_forms(monkeypatch), count_expand(monkeypatch)
    assert commutator(a, b).is_zero() and commutator(b, a).is_zero()
    assert (words, sizes) == ([], [0, 0])


def test_commutator_checks_its_factors_when_every_pair_commutes():
    # q_B^7 and q_C^6 commute, but their product passes DEGREE_CAP, and
    # dress_system_element's UnsupportedSupport rests on that error
    g = block_set("nparticle")
    qb7 = g.element({(0, 0, 7, 0, 0, 0): 1})
    qc6 = g.element({(0, 0, 0, 0, 6, 0): 1})
    with pytest.raises(DegreeExceeded,
                       match="product degree 13 exceeds cap 12"):
        commutator(qb7, qc6)
    with pytest.raises(ConfigError, match="different generator sets"):
        commutator(qb7, block_set("interleaved").gen("q1"))


def test_equality_reads_the_stored_form_then_the_difference():
    # equal stored terms are equal at once; otherwise the difference
    # decides, as before: a Fraction 1/3 against the float 1/3 subtracts
    # to 0.0, and a stored zero term is the absent one
    third = ncalg.Coef({0: (Fraction(1, 3), 0)})
    assert third == 1 / 3 and third != 0.3333
    g = ALGEBRAS["canonical"]
    q, p = g.gen("q_A"), g.gen("p_A")
    assert g.element({(1, 0, 0, 0, 0): Fraction(1, 3)}) == (1 / 3) * q
    assert AlgebraElement(g, {**q.terms, (0, 1, 0, 0, 0): ncalg._ZERO}) == q
    assert q != p and q != q + p and q + p != q
