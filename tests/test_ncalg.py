from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from qrfkit import kinspace as ks
from qrfkit import ncalg
from qrfkit.algstates import from_table
from qrfkit.errors import DegreeExceeded, RelationViolation
from qrfkit.ncalg import HBAR, GeneratorSet, adjoint, commutator, weyl_symmetrize


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
        gens = GeneratorSet.canonical([("q", "p")], degree_cap=4)
        q = gens.gen("q")
        high = q * q * q * q
        with pytest.raises(DegreeExceeded):
            high * q

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
                dict(pair.normal_order_word(perm)))
        assert w == sp.Rational(1, n) * acc

    def test_weyl_basis_roundtrip(self, su2set):
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = rand_element(su2set, rng, max_degree=3)
            coeffs = ncalg.to_weyl_basis(a)
            back = ncalg.from_weyl_basis(su2set, coeffs)
            assert back == a


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
        report = ncalg.verify_assignment(gens, sp_lat, assign)
        assert all(v < 1e-12 for v in report.values())
        el = commutator(gens.gen("J_x"), gens.gen("J_y"))
        mat = ncalg.represent(el, sp_lat, assign)
        assert np.max(np.abs(mat - 1j * sp_lat.hbar * jz)) < 1e-12

    def test_identity_representation(self, pair):
        sp_lat = ks.tensor_space([ks.FactorSpec.frame(4, 1.0)])
        p_op = ks.momentum_operator(sp_lat, 0)
        from qrfkit.relobs import OrientationFrame, orientation_operator

        q_op = orientation_operator(OrientationFrame(sp_lat, 0))
        mat = ncalg.represent(pair.one(), sp_lat, {"q": q_op, "p": p_op})
        assert np.allclose(mat, np.eye(4))

    def test_broken_lie_assignment_raises(self):
        gens = GeneratorSet(("J_x", "J_y", "J_z"),
                            {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
        sp_lat = ks.tensor_space([ks.FactorSpec.system([1.0, 0.0, -1.0])])
        jx, jy, jz = self.spin_matrices(sp_lat.hbar)
        with pytest.raises(RelationViolation):
            ncalg.verify_assignment(gens, sp_lat,
                                    {"J_x": jx, "J_y": jy, "J_z": 2 * jz})

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
        report = ncalg.verify_assignment(pairset, sp_lat,
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
