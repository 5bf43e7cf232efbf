import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import commutant_oracle, max_abs_value_oracle, represent
from qrfkit import algstates as ast
from qrfkit import kinspace as ks
from qrfkit import models as md
from qrfkit import ncalg
from qrfkit import reduction_gauge as rg
from qrfkit import relobs as ro
from qrfkit.errors import (ConfigError, DegreeExceeded, NotPhysical,
                           UnsupportedSupport)
from qrfkit.ncalg import HBAR
from test_ncalg import count_normal_forms


@pytest.fixture(scope="module")
def npmodel():
    return md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                       lattice_size=8))


@pytest.fixture(scope="module")
def loc_state(npmodel):
    # localized physical state: momenta solved for particle A
    return md.gaussian_physical_state(
        npmodel,
        centers_x={0: 0.0, 1: 0.6, 2: -0.8},
        sigmas={1: 1.0, 2: 1.0})


def frame_omega(model, label, rho, psi, degree=6):
    return ast.frame_state(model.space, model.constraint,
                           model.frames[label], rho, psi,
                           model.assignment, model.gens, degree)


class TestEvaluation:
    def test_normalization(self, npmodel, loc_state):
        om = frame_omega(npmodel, "A", 0.0, loc_state)
        assert abs(om.evaluate(npmodel.gens.one()) - 1.0) < 1e-12

    def test_matches_direct_matrix_element(self, npmodel, loc_state):
        om = frame_omega(npmodel, "A", 0.0, loc_state)
        el = npmodel.gens.gen("q_B") * npmodel.gens.gen("p_B")
        direct = np.vdot(om.bra, represent(el, npmodel.space,
                                           npmodel.assignment) @ om.ket)
        assert abs(om.evaluate(el) - direct) < 1e-12

    def test_canonical_pair_difference(self, npmodel, loc_state):
        om = frame_omega(npmodel, "B", 0.0, loc_state)
        g = npmodel.gens
        qp = g.gen("q_C") * g.gen("p_C")
        pq = g.gen("p_C") * g.gen("q_C")
        assert abs(om.evaluate(qp) - om.evaluate(pq)
                   - 1j * npmodel.hbar) < 1e-12

    def test_degree_bound(self, npmodel, loc_state):
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=2)
        g = npmodel.gens
        with pytest.raises(DegreeExceeded):
            om.evaluate(g.gen("q_B") * g.gen("q_B") * g.gen("q_B"))

    def test_not_physical_rejected(self, npmodel):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=npmodel.space.dim) + 0j
        with pytest.raises(NotPhysical):
            frame_omega(npmodel, "A", 0.0, psi / np.linalg.norm(psi))

    @pytest.mark.parametrize("scale", [1e-8, 1e-12])
    def test_values_do_not_depend_on_the_scale_of_psi(self, npmodel,
                                                      loc_state, scale):
        want = frame_omega(npmodel, "A", 0.0, loc_state).value_table()
        got = frame_omega(npmodel, "A", 0.0, scale * loc_state).value_table()
        assert got.keys() == want.keys()
        for m, v in want.items():
            assert abs(got[m] - v) <= 1e-12 * abs(v), m

    def test_vanishing_overlaps_raise(self, npmodel, loc_state):
        with pytest.raises(ConfigError, match="vanishing overlap"):
            frame_omega(npmodel, "A", 0.0, 0 * loc_state)
        basis = np.eye(npmodel.space.dim, 2, dtype=complex).T
        for bra, ket in ((basis[0], basis[1]), (basis[0], 0 * basis[0]),
                         (1e-20 * basis[0], 1e-20 * basis[1])):
            with pytest.raises(ConfigError, match="vanishing overlap"):
                ast.from_hilbert(bra, ket, npmodel.space,
                                 npmodel.assignment, npmodel.gens)


class TestFrameConditions:
    def test_constraint_surface(self, npmodel):
        rng = np.random.default_rng(5)
        psi = md.random_physical_state(npmodel, rng)
        om = frame_omega(npmodel, "A", 0.0, psi, degree=5)
        resid = ast.check_constraint_surface(om, npmodel.constraint_elem,
                                             degree=4)
        assert resid < 1e-10

    def test_left_multiplicative(self, npmodel):
        rng = np.random.default_rng(7)
        psi = md.random_physical_state(npmodel, rng)
        rho = npmodel.frames["A"].grid[5]
        om = frame_omega(npmodel, "A", rho, psi, degree=5)
        resid = ast.check_frame_gauge(om, "q_A", rho, degree=4)
        assert resid < 1e-10

    def test_wrong_orientation_detected(self, npmodel):
        rng = np.random.default_rng(9)
        psi = md.random_physical_state(npmodel, rng)
        grid = npmodel.frames["A"].grid
        om = frame_omega(npmodel, "A", grid[5], psi)
        resid = ast.check_frame_gauge(om, "q_A", grid[3], degree=2)
        assert resid >= abs(grid[5] - grid[3]) - 1e-9

    def test_generic_kinematical_state_off_surface(self, npmodel):
        rng = np.random.default_rng(11)
        psi = rng.normal(size=npmodel.space.dim) + 0j
        psi /= np.linalg.norm(psi)
        om = ast.from_hilbert(psi, psi, npmodel.space, npmodel.assignment,
                              npmodel.gens, degree_bound=4)
        resid = ast.check_constraint_surface(om, npmodel.constraint_elem,
                                             degree=3)
        assert resid > 1e-2

    def test_dressed_equals_bare_on_frame_state(self, npmodel):
        # omega(O_A^rho(f_S)) = omega(f_S) for system observables
        rng = np.random.default_rng(13)
        psi = md.random_physical_state(npmodel, rng)
        rho = npmodel.frames["A"].grid[6]
        om = frame_omega(npmodel, "A", rho, psi, degree=6)
        g = npmodel.gens
        g_s = npmodel.g_s_elem("A")
        for f in (g.gen("q_B"), g.gen("p_C"),
                  g.gen("q_C") * g.gen("p_C")):
            dressed = ast.dress_system_element(g, f, g_s, "q_A", rho)
            assert abs(om.evaluate(dressed) - om.evaluate(f)) < 1e-9


class TestVerifyReferenceFrame:
    def test_ideal_frame_passes(self):
        gens = ncalg.GeneratorSet.canonical([("q_R", "p_R")],
                                            centrals=("G",))
        C = gens.gen("p_R") + gens.gen("G")
        report = ast.verify_reference_frame(gens, "q_R", C, degree=6)
        assert report.passed()

    def test_momentum_as_reference_fails_conjugacy(self):
        gens = ncalg.GeneratorSet.canonical([("q_R", "p_R")],
                                            centrals=("G",))
        C = gens.gen("p_R") + gens.gen("G")
        report = ast.verify_reference_frame(gens, "p_R", C, degree=4)
        assert not report.conjugate_commutator
        assert not report.passed()

    def test_degenerate_fails_factor_passes(self):
        gens = ncalg.GeneratorSet.canonical([("q_R", "p_R")],
                                            centrals=("H",))
        C = gens.gen("p_R") * gens.gen("p_R") - gens.gen("H") * gens.gen("H")
        report = ast.verify_reference_frame(gens, "q_R", C, degree=4)
        assert not report.conjugate_commutator
        c_minus = gens.gen("p_R") - gens.gen("H")
        report2 = ast.verify_reference_frame(gens, "q_R", c_minus, degree=4)
        assert report2.passed()


    @staticmethod
    def brute_force_report(gens, z_name, C, degree):
        """The report fields from ranks of the explicitly stacked matrices."""
        basis = gens.monomial_basis(degree)
        idx = {m: i for i, m in enumerate(basis)}

        def column(el):
            v = np.zeros(len(basis), dtype=complex)
            for m, c in el.terms.items():
                v[idx[m]] = ncalg.numeric(c, 1.0)
            return v

        def rank(M):
            return np.linalg.matrix_rank(M, tol=1e-9)

        z = gens.gen(z_name)
        images = [gens.element({m: 1}) * C
                  for m in gens.monomial_basis(degree - C.degree())]
        B_img = np.array([column(el) for el in images]).T
        units = [gens.element({m: 1}) for m in basis]
        B_z = np.array([column(u) for u in units
                        if ncalg.commutator(z, u).is_zero()]).T
        stacked = np.hstack([B_z, B_img])
        return (ncalg.adjoint(z) == z, ncalg.adjoint(C) == C,
                ncalg.commutator(z, C) == sp.I * HBAR * gens.one(),
                rank(B_img) == len(images),
                rank(stacked) == rank(B_z) + rank(B_img),
                rank(stacked) == len(basis))

    @pytest.mark.parametrize("spec", [
        md.ModelSpec("nparticle"), md.ModelSpec("su2"),
        md.ModelSpec("degenerate"), md.ModelSpec("newtonian", dp=2.0)],
        ids=lambda spec: spec.name)
    def test_model_reports_match_brute_force_ranks(self, spec):
        model = md.build_model(spec)
        for q_name, _ in model.frame_pairs.values():
            report = ast.verify_reference_frame(
                model.gens, q_name, model.constraint_elem, degree=4)
            fields = (report.z_selfadjoint, report.c_selfadjoint,
                      report.conjugate_commutator, report.no_left_annihilator,
                      report.commutant_meets_ideal_trivially,
                      report.generates_algebra)
            assert all(type(f) is bool for f in fields)
            assert fields == tuple(bool(f) for f in self.brute_force_report(
                model.gens, q_name, model.constraint_elem, 4))


GAUSSIAN_INT = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
COLUMNS = [(i, j) for i in range(3) for j in range(3)]


def _combination(coeffs, rows) -> dict:
    """sum_k coeffs[k] * rows[k] over Gaussian integers (re, im)."""
    acc = {}
    for (a, b), row in zip(coeffs, rows):
        for m, (c, d) in row.items():
            re, im = acc.get(m, (0, 0))
            acc[m] = (re + a * c - b * d, im + a * d + b * c)
    return {m: v for m, v in acc.items() if v != (0, 0)}


@st.composite
def planted_rows(draw):
    """(columns, rows, r): up to five sparse Gaussian-integer rows and up to
    four Gaussian-integer combinations of them, shuffled, so the rank is at
    most the r drawn rows."""
    cols = draw(st.lists(st.sampled_from(COLUMNS), min_size=1,
                         max_size=len(COLUMNS), unique=True))
    drawn = [{m: v for m, v in row.items() if v != (0, 0)}
             for row in draw(st.lists(st.dictionaries(st.sampled_from(cols),
                                                       GAUSSIAN_INT),
                                      max_size=5))]
    combos = draw(st.lists(st.lists(GAUSSIAN_INT, min_size=len(drawn),
                                    max_size=len(drawn)), max_size=4))
    rows = drawn + [_combination(c, drawn) for c in combos]
    return cols, draw(st.permutations(rows)), len(drawn)


@settings(max_examples=200)
@given(planted_rows())
def test_exact_rank_is_the_numerical_rank(case):
    cols, rows, planted = case
    before = [dict(row) for row in rows]
    M = np.array([[complex(*row.get(m, (0, 0))) for m in cols]
                  for row in rows], dtype=complex).reshape(len(rows), len(cols))
    want = np.linalg.matrix_rank(M) if rows else 0
    assert ast._rank(rows) == want <= planted
    assert rows == before  # the rows are not reduced in place


MODELS = [md.ModelSpec("nparticle"), md.ModelSpec("su2", j=1),
          md.ModelSpec("degenerate"), md.ModelSpec("newtonian", dp=2.0)]


class TestBlockFactoredChecks:
    """The commutant, reports and check values against the oracles that
    commute with, and multiply out, every basis monomial."""

    @pytest.mark.parametrize("spec", MODELS, ids=lambda spec: spec.name)
    def test_commutant_equals_brute_force(self, spec):
        gens = md.build_model(spec).gens
        basis = gens.monomial_basis(5)
        for z_name in gens.names:
            assert (ast._commutant(gens, z_name, basis)
                    == commutant_oracle(gens, z_name, basis)), z_name

    @pytest.mark.parametrize("spec, fields", [
        (md.ModelSpec("nparticle"), (True, True, True)),
        (md.ModelSpec("su2", j=1), (True, True, True)),
        (md.ModelSpec("degenerate"), (True, True, False)),
        (md.ModelSpec("newtonian", dp=2.0), (True, True, False))],
        ids=lambda x: getattr(x, "name", None))
    def test_reports_unchanged(self, spec, fields, monkeypatch):
        """The rank fields of every frame pair at degrees 3-6, the
        orientation as Z (``fields``) and the momentum as Z (injective,
        neither meeting the ideal trivially nor generating), and the same
        reports with the oracle commutant."""
        model = md.build_model(spec)
        for pair in model.frame_pairs.values():
            for z_name, want in zip(pair, (fields, (True, False, False))):
                for degree in range(3, 7):
                    args = (model.gens, z_name, model.constraint_elem, degree)
                    report = ast.verify_reference_frame(*args)
                    assert (report.no_left_annihilator,
                            report.commutant_meets_ideal_trivially,
                            report.generates_algebra) == want, (z_name, degree)
                    with monkeypatch.context() as mp:
                        mp.setattr(ast, "_commutant", commutant_oracle)
                        assert report == ast.verify_reference_frame(*args)

    def test_reports_take_no_numerical_rank(self, monkeypatch):
        model = md.build_model(md.ModelSpec("su2", j=1))

        def refuse(*args, **kwargs):
            raise AssertionError("numerical rank taken")

        monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for degree in (3, 5):
            assert ast.verify_reference_frame(
                model.gens, "q_A", model.constraint_elem, degree).passed()

    @staticmethod
    def states(model):
        """A frame state, and a generic bra/ket pair off both surfaces."""
        rng = np.random.default_rng(43)
        psi = md.random_physical_state(model, rng)
        label = next(iter(model.frames))
        rho = model.frames[label].grid[3]
        bra, ket = (rng.normal(size=(2, model.space.dim))
                    + 1j * rng.normal(size=(2, model.space.dim)))
        return rho, [frame_omega(model, label, rho, psi, degree=5),
                     ast.from_hilbert(bra, ket, model.space, model.assignment,
                                      model.gens, degree_bound=5)]

    @pytest.mark.parametrize("spec", MODELS, ids=lambda spec: spec.name)
    def test_checks_match_the_product_oracle(self, spec):
        model = md.build_model(spec)
        C = model.constraint_elem
        q_name = model.frame_pairs[next(iter(model.frames))][0]
        rho, states = self.states(model)
        z = model.gens.gen(q_name) - rho * model.gens.one()
        for om in states:
            for d in (C.degree(), 4, 5):
                got = ast.check_constraint_surface(om, C, d)
                ref = max_abs_value_oracle(om, d - C.degree(), lambda a: a * C)
                assert abs(got - ref) <= 1e-12 * max(ref, 1e-300)
                got = ast.check_frame_gauge(om, q_name, rho, d)
                ref = max_abs_value_oracle(om, d - 1, lambda a: z * a)
                assert abs(got - ref) <= 1e-12 * max(ref, 1e-300)

    def test_checks_on_a_table_state_match_the_product_oracle(self, npmodel,
                                                              loc_state):
        table = frame_omega(npmodel, "A", 0.0, loc_state, 4).value_table(4)
        om = ast.from_table(npmodel.gens, table, degree_bound=4,
                            hbar=npmodel.hbar)
        C = npmodel.constraint_elem
        z = npmodel.gens.gen("q_B") - 0.25 * npmodel.gens.one()
        assert ast.check_constraint_surface(om, C) == max_abs_value_oracle(
            om, 3, lambda a: a * C)
        assert ast.check_frame_gauge(om, "q_B", 0.25) == max_abs_value_oracle(
            om, 3, lambda a: z * a)

    def test_table_state_lacks_a_monomial(self, npmodel):
        # within the degree bound, but not in the table
        g = npmodel.gens
        om = ast.from_table(g, {g.unit_monomial(): 1.0}, degree_bound=4)
        assert om.evaluate(g.one()) == 1
        with pytest.raises(ConfigError, match="missing from value table"):
            om.evaluate(g.gen("q_A"))

    def test_checks_raise_above_the_bound(self, npmodel, loc_state):
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=4)
        with pytest.raises(DegreeExceeded, match="exceeds bound 4"):
            ast.check_constraint_surface(om, npmodel.constraint_elem, 5)
        with pytest.raises(DegreeExceeded, match="exceeds bound 4"):
            ast.check_frame_gauge(om, "q_A", 0.0, 5)

    @pytest.mark.parametrize("dyadic", [True, False],
                             ids=["dyadic", "random"])
    def test_numeric_rows_are_read_at_their_own_hbar(self, dyadic):
        """Two table states on one structure, at hbar = 1 and 0.5, checked
        alternately: each value is the oracle's at the state's own hbar."""
        gens = ncalg.GeneratorSet.canonical([("q", "p")], centrals=("G",))
        C = gens.gen("p") * gens.gen("q") + gens.gen("G")  # = qp - i hbar + G
        rng = np.random.default_rng(53)
        table = {m: (complex(rng.integers(-8, 9), rng.integers(-8, 9)) / 16
                     if dyadic else complex(*rng.normal(size=2)))
                 for m in gens.monomial_basis(4)}
        table[gens.unit_monomial()] = 1.0
        states = [ast.from_table(gens, table, degree_bound=4, hbar=h)
                  for h in (1.0, 0.5)]
        z = gens.gen("p") - 0.75 * gens.one()
        seen = []
        for om in states * 2:
            checks = [(ast.check_constraint_surface(om, C),
                       max_abs_value_oracle(om, 2, lambda a: a * C)),
                      (ast.check_frame_gauge(om, "p", 0.75),
                       max_abs_value_oracle(om, 3, lambda a: z * a))]
            for got, ref in checks:
                if dyadic:
                    assert got == ref
                else:
                    assert abs(got - ref) <= 1e-12 * ref
            seen.append(checks[0][0])
        assert seen[0] != seen[1] and seen[:2] == seen[2:]

    def test_frame_gauge_tables_do_not_grow_with_rho(self, npmodel,
                                                     loc_state):
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=5)
        tables = npmodel.gens.structure.tables
        ast.check_frame_gauge(om, "q_A", 0.0, 4)
        entries = len(tables)
        for rho in np.linspace(-1.0, 1.0, 20):
            z = npmodel.gens.gen("q_A") - rho * npmodel.gens.one()
            got = ast.check_frame_gauge(om, "q_A", rho, 4)
            ref = max_abs_value_oracle(om, 3, lambda a: z * a)
            assert abs(got - ref) <= 1e-12 * ref
        assert len(tables) == entries

    def test_verify_reference_frame_reads_the_constraint_table(
            self, npmodel, loc_state, monkeypatch):
        """After check_constraint_surface on the same C and degree, the
        images a C add no product table and no normal-form call: the only
        calls are those of the exact symbolic checks."""
        g, C = npmodel.gens, npmodel.constraint_elem
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=5)
        ast.check_constraint_surface(om, C, 5)
        entries = len(g.structure.tables)
        calls = count_normal_forms(monkeypatch)
        assert ast.verify_reference_frame(g, "q_A", C, 5).passed()
        assert len(g.structure.tables) == entries
        made = sorted(calls)
        calls.clear()
        z = g.gen("q_A")
        ncalg.adjoint(z), ncalg.adjoint(C), ncalg.commutator(z, C)
        ast._commutant(g, "q_A", g.monomial_basis(5))
        assert made == sorted(calls)

    def test_constraint_from_another_generator_set_rejected(self, npmodel,
                                                            loc_state):
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=4)
        other = md.build_model(md.ModelSpec("nparticle", lattice_size=8))
        with pytest.raises(ValueError, match="different generator sets"):
            ast.check_constraint_surface(om, other.constraint_elem, 4)


class TestAlmostPositive:
    def test_system_subalgebra_positive(self, npmodel, loc_state):
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=6)
        names = ("q_B", "p_B", "q_C", "p_C")
        assert ast.check_almost_positive(om, names, degree=4) > -1e-10

    def test_full_algebra_fails(self, npmodel, loc_state):
        # Weyl(q_A p_A) takes the complex value q_A p_A - i*hbar/2, so the
        # state cannot be positive on the frame pair
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=6)
        g = npmodel.gens
        sym = sp.Rational(1, 2) * (g.gen("q_A") * g.gen("p_A")
                                   + g.gen("p_A") * g.gen("q_A"))
        val = om.evaluate(sym)
        expected = (om.evaluate(g.gen("q_A")) * om.evaluate(g.gen("p_A"))
                    - 0.5j * npmodel.hbar)
        assert abs(val - expected) < 1e-6
        assert abs(val.imag + npmodel.hbar / 2) < 1e-6

    def test_zero_functional_rejected(self, npmodel):
        with pytest.raises(ValueError):
            ast.from_hilbert(np.zeros(npmodel.space.dim),
                             np.zeros(npmodel.space.dim),
                             npmodel.space, npmodel.assignment, npmodel.gens)


class TestTransformFrame:
    def setup_method(self):
        self.model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                                 lattice_size=32))
        self.psi = md.gaussian_physical_state(
            self.model,
            centers_x={0: 0.0, 1: 0.3, 2: -0.3},
            sigmas={1: 1.7, 2: 1.7},
            shear={(1, 2): -0.05})
        self.grid = self.model.frames["A"].grid
        self.rho_a = self.grid[16]   # 0.0
        self.rho_b = self.grid[17]
        self.om_a = frame_omega(self.model, "A", self.rho_a, self.psi,
                                degree=6)
        self.om_b = frame_omega(self.model, "B", self.rho_b, self.psi,
                                degree=6)

    def transform(self, f):
        return ast.transform_frame(
            self.om_b, frame_a=("q_A", "p_A"), rho_a=self.rho_a,
            frame_b=("q_B", "p_B"), rho_b=self.rho_b, f=f,
            g_s=self.model.g_s_elem("A"))

    def test_change_clock_observable_position(self):
        g = self.model.gens
        lhs = self.om_a.evaluate(g.gen("q_B"))
        rhs = (self.rho_b + self.rho_a
               - self.om_b.evaluate(g.gen("q_A")))
        assert abs(lhs - rhs) < 1e-9
        assert abs(self.transform(g.gen("q_B")) - lhs) < 1e-9

    def test_change_clock_observable_momentum(self):
        g = self.model.gens
        lhs = self.om_a.evaluate(g.gen("p_B"))
        rhs = self.om_b.evaluate(-g.gen("p_A") - self.model.g_s_elem("A"))
        assert abs(lhs - rhs) < 1e-10
        assert abs(self.transform(g.gen("p_B")) - lhs) < 1e-10

    def test_commuting_system_observable_unchanged(self):
        g = self.model.gens
        f = g.gen("p_C")
        assert abs(self.om_a.evaluate(f) - self.om_b.evaluate(f)) < 1e-10
        assert abs(self.transform(f) - self.om_b.evaluate(f)) < 1e-10

    def test_transform_matches_direct_gauge(self):
        g = self.model.gens
        for f in (g.gen("q_C"), g.gen("q_C") * g.gen("q_C"),
                  g.gen("q_B") * g.gen("q_C"),
                  g.gen("q_B") * g.gen("q_B")):
            assert abs(self.transform(f) - self.om_a.evaluate(f)) < 1e-8

    def test_orbit_invariance_dirac_observables(self):
        g = self.model.gens
        for name in ("p_A", "p_B", "p_C"):
            assert abs(self.om_a.evaluate(g.gen(name))
                       - self.om_b.evaluate(g.gen(name))) < 1e-10

    def test_frame_supported_f_rejected(self):
        g = self.model.gens
        with pytest.raises(UnsupportedSupport):
            self.transform(g.gen("q_A"))


class TestSu2Algebraic:
    def test_jz_frame_independent(self):
        model = md.build_model(md.ModelSpec("su2", lattice_size=8, j=1))
        amp = md.spin_coherent(1, 1.1, 0.4)
        psi = md.gaussian_physical_state(model, centers_x={0: 0.0, 1: 0.3},
                                         sigmas={1: 0.9},
                                         system_amp={2: amp})
        g = model.gens
        om_a = frame_omega(model, "A", 0.0, psi)
        om_b = frame_omega(model, "B", 0.0, psi)
        assert abs(om_a.evaluate(g.gen("J_z"))
                   - om_b.evaluate(g.gen("J_z"))) < 1e-10

    def test_noncommuting_dressing_raises(self):
        model = md.build_model(md.ModelSpec("su2", lattice_size=8, j=1))
        g = model.gens
        with pytest.raises(UnsupportedSupport):
            ast.dress_system_element(g, g.gen("J_x"), model.g_s_elem("A"),
                                     "q_A", 0.0)


class TestSerialization:
    def test_value_table_roundtrip(self, npmodel, loc_state):
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=4)
        table = om.value_table(2)
        om2 = ast.from_table(npmodel.gens, table, degree_bound=2,
                             hbar=npmodel.hbar)
        el = npmodel.gens.gen("q_B") * npmodel.gens.gen("p_C")
        assert abs(om.evaluate(el) - om2.evaluate(el)) < 1e-12
        assert om.serialize(2) == om2.serialize(2)

    def test_value_table_above_bound_raises_on_both_backings(
            self, npmodel, loc_state):
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=2)
        om_table = ast.from_table(npmodel.gens, om.value_table(2),
                                  degree_bound=2, hbar=npmodel.hbar)
        for state in (om, om_table):
            for call in (state.value_table, state.serialize):
                with pytest.raises(DegreeExceeded, match="exceeds bound 2"):
                    call(3)


def per_word(gens, assignment, m, vec):
    """y_w1 ... y_wn vec: the word of m applied to vec on its own."""
    for g in reversed(ncalg.monomial_word(m)):
        vec = assignment[gens.names[g]].apply(vec)
    return vec


def drop_lowest(m):
    """m - e_g with g the lowest generator index in m: the word of m without
    its first letter."""
    g = next(g for g, e in enumerate(m) if e)
    return m[:g] + (m[g] - 1,) + m[g + 1:]


def per_word_value(om, m):
    """omega(m) by its definition, vdot(bra, y^m ket), with y^m ket applied
    letter by letter on its own (the unit is <bra|ket>)."""
    return complex(np.vdot(om.bra, per_word(om.gens, om.assignment, m,
                                            om.ket)))


def reduced_per_word_value(om, m):
    """A frame state's omega(m) by its definition: vdot(y^r^dag chi,
    (<y^a^dag v| x 1) ket) for m = a r cut at the frame factor, the letters
    of m's word taken in order on their own side, each value on its own."""
    factor, u, xi, on_f, rest = om.reduction
    for g in ncalg.monomial_word(m):
        if g in on_f:
            u = on_f[g] @ u
        else:
            xi = rest[om.gens.names[g]].apply(xi)
    return complex(np.vdot(xi, om.space.apply_factor(
        factor, u.conj()[None, :], om.ket)))


def cut_scale(om):
    """m -> the largest ||(y^p)^dag bra|| ||y^s ket|| over the cuts p s of
    m's word, both sides taken on the full space: each is a Cauchy-Schwarz
    scale of <bra| y^m |ket>, ||bra|| ||y^m ket|| among them.  A path
    whose intermediate vectors sit at another cut (the reduced walk moves
    the frame letters to the ket) rounds at that cut's scale, which stays
    finite when a word cancels to zero on both full-space sides (J_x^2
    J_y^2 J_z is 0 on spin 1)."""
    bras, kets = {(): om.bra}, {(): om.ket}

    def bra(p):  # (y^p)^dag bra: y_(p_1)^dag acts first
        if p not in bras:
            bras[p] = om.assignment[om.gens.names[p[-1]]].apply_adjoint(
                bra(p[:-1]))
        return bras[p]

    def ket(s):  # y^s ket: y_(s_n) acts first
        if s not in kets:
            kets[s] = om.assignment[om.gens.names[s[0]]].apply(ket(s[1:]))
        return kets[s]

    def scale(m):
        w = ncalg.monomial_word(m)
        return max(np.linalg.norm(bra(w[:c])) * np.linalg.norm(ket(w[c:]))
                   for c in range(len(w) + 1))
    return scale


def plain_state(model, om):
    """The generic (full-space walk) state on ``om``'s bra and ket."""
    return ast.from_hilbert(om.bra, om.ket, model.space, model.assignment,
                            model.gens, om.degree_bound, normalize=False)


class CountingOp:
    """An assignment entry that records the ``out`` of each ``apply`` call
    in one list, and each ``apply_adjoint`` call in another."""

    def __init__(self, op, calls, adjoint_calls):
        self.op, self.calls, self.adjoint_calls = op, calls, adjoint_calls
        self.space = op.space

    def apply(self, vec, out=None):
        self.calls.append(out)
        return self.op.apply(vec, out=out)

    def apply_adjoint(self, vec):
        self.adjoint_calls.append(vec)
        return self.op.apply_adjoint(vec)


def prefix_closure(monomials):
    """The monomials and every m - e_g obtained by repeatedly removing the
    lowest generator index g, down to (but without) the unit monomial: the
    non-empty suffixes of their words, one walk apply each."""
    out = set()
    for m in monomials:
        while any(m):
            out.add(m)
            m = drop_lowest(m)
    return out


def counting_state(model, om, calls, adjoint_calls):
    """``om`` with every assignment entry wrapped in a CountingOp."""
    spy = {name: CountingOp(op, calls, adjoint_calls)
           for name, op in model.assignment.items()}
    return ast.from_hilbert(om.bra, om.ket, model.space, spy, model.gens,
                            degree_bound=om.degree_bound, normalize=False)


class TestPrefixWalk:
    @pytest.mark.parametrize("spec", [
        md.ModelSpec("nparticle"), md.ModelSpec("su2"),
        md.ModelSpec("degenerate"), md.ModelSpec("newtonian", dp=2.0)],
        ids=lambda spec: spec.name)
    def test_value_table_bitwise_per_word(self, spec):
        model = md.build_model(spec)
        psi = md.random_physical_state(model, np.random.default_rng(17))
        labels = list(model.frames)
        om = frame_omega(model, labels[0], model.frames[labels[0]].grid[3],
                         psi, degree=4)
        fr_b = model.frames[labels[-1]]
        om_b = rg.gauge_transform_state(om, rg.theta_gauge(fr_b, fr_b.grid[2]),
                                        model.Pi)
        assert not np.array_equal(om_b.bra, om_b.ket)
        assert om.reduction is not None and om_b.reduction is None
        for state, oracle in ((om, reduced_per_word_value),
                              (om_b, per_word_value)):
            for d in (0, 4):
                table = state.value_table(d)
                assert list(table) == model.gens.monomial_basis(d)
                assert all(v == oracle(state, m) for m, v in table.items())

    def counting_state(self, npmodel, loc_state, calls, adjoint_calls):
        om = frame_omega(npmodel, "A", 0.0, loc_state, degree=5)
        return counting_state(npmodel, om, calls, adjoint_calls)

    def test_value_table_applies_once_per_monomial(self, npmodel, loc_state):
        # every non-unit word of degree <= 5 is a node of the walk, and the
        # bra is never acted on
        g = npmodel.gens
        calls, adjoint_calls = [], []
        om = self.counting_state(npmodel, loc_state, calls, adjoint_calls)
        table = om.value_table(5)
        assert len(calls) == len(g.monomial_basis(5)) - 1 == 461
        assert not adjoint_calls
        assert table == plain_state(npmodel, om).value_table(5)

    def test_evaluate_applies_only_the_prefix_closure(self, npmodel,
                                                      loc_state):
        g = npmodel.gens
        qb, pb, pc = g.gen("q_B"), g.gen("p_B"), g.gen("p_C")
        el = qb * pb * pc * pc + 3 * qb * pc * pc + pb * pc - 2 * g.one()
        calls, adjoint_calls = [], []
        om = self.counting_state(npmodel, loc_state, calls, adjoint_calls)
        value = om.evaluate(el)
        closure = prefix_closure(el.terms)
        assert len(calls) == len(closure)
        assert not adjoint_calls
        assert 0 < len(closure) < sum(sum(m) for m in el.terms)
        om_plain = frame_omega(npmodel, "A", 0.0, loc_state, degree=5)
        assert value == sum((ncalg.numeric(c, npmodel.hbar)
                             * per_word_value(om_plain, m)
                             for m, c in el.terms.items()), 0j)
        om.evaluate(el)
        assert len(calls) == len(closure)
        assert not adjoint_calls

    @pytest.mark.parametrize("check", ["constraint", "frame_gauge",
                                       "positivity"])
    def test_check_walks_the_union_of_its_products_once(self, npmodel,
                                                        loc_state, check):
        g = npmodel.gens
        C = npmodel.constraint_elem
        z = g.gen("q_A") - 0.0 * g.one()
        system = [g.element({m: 1}) for m in g.monomial_basis(2)
                  if not any(m[g.index[n]] for n in ("q_A", "p_A"))]
        products, run = {
            "constraint": (
                [g.element({m: 1}) * C for m in g.monomial_basis(4)],
                lambda om: ast.check_constraint_surface(om, C, 5)),
            "frame_gauge": (
                [z * g.element({m: 1}) for m in g.monomial_basis(4)],
                lambda om: ast.check_frame_gauge(om, "q_A", 0.0, 5)),
            "positivity": (
                [ncalg.adjoint(a) * b for a in system for b in system],
                lambda om: ast.check_almost_positive(
                    om, ["q_B", "p_B", "q_C", "p_C"], 5)),
        }[check]
        calls, adjoint_calls = [], []
        om = self.counting_state(npmodel, loc_state, calls, adjoint_calls)
        value = run(om)
        closure = prefix_closure(m for p in products for m in p.terms)
        assert len(calls) == len(closure) > 0
        assert not adjoint_calls
        # the value the per-product evaluation gives, bit for bit
        om_plain = plain_state(npmodel, om)
        if check == "positivity":
            M = np.array([om_plain.evaluate(p) for p in products])
            M = M.reshape(len(system), len(system))
            ref = float(np.min(np.linalg.eigvalsh((M + M.conj().T) / 2)))
        else:
            ref = max(abs(om_plain.evaluate(p)) for p in products)
        assert value == ref

    def test_walk_applies_into_one_buffer_per_depth(self, npmodel,
                                                   loc_state):
        calls, adjoint_calls = [], []
        om = self.counting_state(npmodel, loc_state, calls, adjoint_calls)
        ket, bra = om.ket.copy(), om.bra.copy()
        table = om.value_table(5)
        assert len(calls) == len(npmodel.gens.monomial_basis(5)) - 1
        assert all(isinstance(out, np.ndarray) for out in calls)
        assert len({id(out) for out in calls}) <= 5
        assert not any(np.shares_memory(out, om.ket) for out in calls)
        assert not adjoint_calls
        assert np.array_equal(om.ket, ket)
        assert np.array_equal(om.bra, bra)
        assert table == plain_state(npmodel, om).value_table(5)

    @pytest.mark.parametrize("spec", [
        md.ModelSpec("nparticle"), md.ModelSpec("su2"),
        md.ModelSpec("degenerate"), md.ModelSpec("newtonian", dp=2.0)],
        ids=lambda spec: spec.name)
    def test_split_values_match_the_full_chain(self, spec):
        # a gauge-transformed bra is valued by the chain <bra, y^m ket> bit
        # for bit.  The frame state's reduced value vdot(y^r^dag chi,
        # (<y^a^dag v| x 1) ket) against the chain taken in extended
        # precision, to 1e-13 of the largest ||(y^p)^dag bra|| ||y^s ket||
        # over the cuts p s of m's word: on su2 (J_x^2 J_y^2 J_z = 0 on spin
        # 1) the full-space sides of some cuts are rounding noise, 1.4e-17,
        # while the reduced walk rounds at its own cut, 1.4e-17 away from 0
        model = md.build_model(spec)
        psi = md.random_physical_state(model, np.random.default_rng(19))
        labels = list(model.frames)
        om = frame_omega(model, labels[0], model.frames[labels[0]].grid[3],
                         psi, degree=6)
        fr_b = model.frames[labels[-1]]
        om_b = rg.gauge_transform_state(om, rg.theta_gauge(fr_b, fr_b.grid[2]),
                                        model.Pi)
        assert om.reduction is not None and om_b.reduction is None
        bra, ket = (x.astype(np.clongdouble) for x in (om.bra, om.ket))
        bound = cut_scale(om)
        for m, v in om.value_table(6).items():
            full = complex(np.vdot(bra, per_word(model.gens, om.assignment,
                                                 m, ket)))
            assert abs(v - full) <= 1e-13 * bound(m)
        for m, v in om_b.value_table(6).items():
            assert v == complex(np.vdot(om_b.bra, per_word(
                model.gens, om_b.assignment, m, om_b.ket)))

    def test_value_table_counts_at_the_benchmarked_shape(self):
        # nparticle L = 32 (D = 32768) at degree 6: the walk applies each of
        # the 923 non-unit words once, into at most 6 buffers of 512 KiB, and
        # acts on no bra
        model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                            lattice_size=32))
        psi = md.random_physical_state(model, np.random.default_rng(5))
        om = frame_omega(model, "A", model.frames["A"].grid[3], psi)
        calls, adjoint_calls = [], []
        counting = counting_state(model, om, calls, adjoint_calls)
        tracemalloc.start()
        try:
            table = counting.value_table(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 924
        assert (len(calls), len(adjoint_calls)) == (923, 0)
        assert peak <= 4 * 2**20
        assert table == plain_state(model, om).value_table(6)

    def test_value_table_counts_on_su2_at_l32(self):
        # su2 L = 32 (D = 3072) at degree 6: each of the 1715 non-unit words
        # over the 7 generators is applied once, and no bra is acted on
        model = md.build_model(md.ModelSpec("su2", lattice_size=32))
        psi = md.random_physical_state(model, np.random.default_rng(5))
        om = frame_omega(model, "A", model.frames["A"].grid[3], psi)
        calls, adjoint_calls = [], []
        table = counting_state(model, om, calls, adjoint_calls).value_table(6)
        assert len(table) == 1716
        assert (len(calls), len(adjoint_calls)) == (1715, 0)
        assert table == plain_state(model, om).value_table(6)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt counts minor faults on Linux")
    def test_value_table_faults_few_pages(self):
        # every apply at D = 32768 writes a 512 KiB vector; with fresh arrays
        # the allocator hands the pages back and they fault in again.  A
        # fresh interpreter, because the allocator's thresholds depend on
        # what the process freed before.
        code = """if True:
            import resource
            import numpy as np
            from qrfkit import algstates as ast, models as md
            model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                                lattice_size=32))
            psi = md.random_physical_state(model, np.random.default_rng(5))
            fr = model.frames["A"]
            om = ast.frame_state(model.space, model.constraint, fr,
                                 fr.grid[3], psi, model.assignment,
                                 model.gens, 6)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            table = om.value_table(6)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            print(len(table), after - before)
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                               if p)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        size, faults = map(int, out.stdout.split())
        assert size == 924
        assert faults < 10_000


def mixed_frames_case(sizes, dp, hbar, rng):
    """(space, C, frames, assignment, gens, psi) for particles on frames of
    the given sizes under C = sum_i p_i (the models give every frame one
    size), psi a random state of the cyclic kernel."""
    labels = md.PARTICLE_LABELS[:len(sizes)]
    space = ks.tensor_space([ks.FactorSpec.frame(n, dp, lab)
                             for n, lab in zip(sizes, labels)], hbar=hbar)
    gens = ncalg.GeneratorSet.canonical([(f"q_{lab}", f"p_{lab}")
                                         for lab in labels])
    assignment = {}
    for i, (n, lab) in enumerate(zip(sizes, labels)):
        assignment[f"q_{lab}"] = ks.factor_operator(
            space, i, md.position_matrix(n, dp, hbar))
        assignment[f"p_{lab}"] = ks.momentum_operator(space, i)
    C = ks.build_constraint(space, {i: 1.0 for i in range(len(sizes))})
    psi = ks.project_physical(ks.group_average(space, C), rng.normal(
        size=space.dim) + 1j * rng.normal(size=space.dim))
    frames = [ro.OrientationFrame(space, i) for i in range(len(sizes))]
    return space, C, frames, assignment, gens, psi


def random_case(kind, size, hbar, j, levels, sizes, rng):
    """(space, C, frames, assignment, gens, Pi, psi) for a worked model of
    ``kind`` (its frames of ``size``) or, for "mixed", particles on frames
    of ``sizes``; psi a random physical state."""
    if kind == "mixed":
        space, C, frames, assignment, gens, psi = mixed_frames_case(
            sizes, 1.0, hbar, rng)
        return space, C, frames, assignment, gens, ks.group_average(
            space, C), psi
    model = md.build_model(md.ModelSpec(
        kind, lattice_size=8 if kind == "degenerate" else size,
        dp=2.0 if kind == "newtonian" else 1.0, j=j, levels=levels,
        hbar=hbar))
    return (model.space, model.constraint, list(model.frames.values()),
            model.assignment, model.gens, model.Pi,
            md.random_physical_state(model, rng))


# the draws of ``random_case``, a frame and an orientation
CASES = dict(kind=st.sampled_from(["nparticle", "su2", "degenerate",
                                   "newtonian", "mixed"]),
             frame=st.integers(0, 2), size=st.sampled_from([4, 6, 8]),
             hbar=st.sampled_from([1.0, 0.7]), j=st.integers(1, 2),
             levels=st.sampled_from([(1.0, 1.0), (0.0, 2.0),
                                     (1.0, 2.0, 3.0)]),
             sizes=st.sampled_from([(4, 6), (8, 6, 4), (6, 8, 8)]),
             rho_index=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))


def reduced_space_matrix(op, factor):
    """B for an operator that is 1 (x) B across ``factor``, read from its
    full matrix at index 0 of both ``factor`` axes."""
    dims = op.space.dims
    n = len(dims)
    block = op.matrix.reshape(dims + dims).take(0, axis=factor).take(
        0, axis=n - 1 + factor)
    rest = op.space.dim // dims[factor]
    return block.reshape(rest, rest)


class TestReducedValues:
    @settings(max_examples=30)
    @given(**CASES)
    @example(kind="nparticle", frame=1, size=6, hbar=0.7, j=1,
             levels=(1.0, 1.0), sizes=(4, 6), rho_index=5, seed=3)
    @example(kind="su2", frame=1, size=4, hbar=0.7, j=2, levels=(1.0, 1.0),
             sizes=(4, 6), rho_index=2, seed=5)
    @example(kind="degenerate", frame=0, size=8, hbar=1.0, j=1,
             levels=(1.0, 1.0), sizes=(4, 6), rho_index=1, seed=7)
    @example(kind="newtonian", frame=0, size=8, hbar=0.7, j=1,
             levels=(1.0, 1.0), sizes=(4, 6), rho_index=6, seed=11)
    @example(kind="mixed", frame=1, size=8, hbar=0.7, j=1, levels=(1.0, 1.0),
             sizes=(8, 6, 4), rho_index=3, seed=13)
    def test_reduced_values_are_the_full_walk_values(
            self, kind, frame, size, hbar, j, levels, sizes, rho_index, seed):
        # the frame state's reduced values against the full-space walk on
        # its own bra and ket, to 1e-12 of the Cauchy-Schwarz bound
        space, C, frames, assignment, gens, _, psi = random_case(
            kind, size, hbar, j, levels, sizes, np.random.default_rng(seed))
        fr = frames[frame % len(frames)]
        om = ast.frame_state(space, C, fr, fr.grid[rho_index % fr.N], psi,
                             assignment, gens, 5)
        assert om.reduction is not None
        plain = ast.from_hilbert(om.bra, om.ket, space, assignment, gens, 5,
                                 normalize=False)
        bound = cut_scale(om)
        ref = plain.value_table(5)
        for m, v in om.value_table(5).items():
            assert abs(v - ref[m]) <= 1e-12 * bound(m)

    @pytest.mark.parametrize("spec, label", [
        (md.ModelSpec("nparticle"), "A"), (md.ModelSpec("nparticle"), "B"),
        (md.ModelSpec("su2", j=2, hbar=0.7), "A"),
        (md.ModelSpec("su2"), "B"), (md.ModelSpec("newtonian", dp=2.0), "C"),
        (md.ModelSpec("degenerate", levels=(0.0, 2.0)), "R")],
        ids=lambda x: getattr(x, "name", x))
    def test_system_values_are_reduced_expectation_values(self, spec, label):
        # omega(f) = <phi|f|phi> / ||phi||^2, phi = reduce_state(frame, rho,
        # psi), for the monomials f free of the frame's generators, with f
        # on the reduced space cut from full matrices
        model = md.build_model(spec)
        fr = model.frames[label]
        rho = fr.grid[3]
        psi = md.random_physical_state(model, np.random.default_rng(31))
        om = frame_omega(model, label, rho, psi, degree=4)
        phi = rg.reduce_state(fr, rho, psi)
        mats = {g: reduced_space_matrix(model.assignment[name], fr.factor)
                for g, name in enumerate(model.gens.names)
                if name not in model.frame_pairs[label]}
        bound = cut_scale(om)
        checked = 0
        for m, v in om.value_table(4).items():
            word = ncalg.monomial_word(m)
            if not set(word) <= mats.keys():
                continue
            f = np.eye(phi.size)
            for g in word:
                f = f @ mats[g]
            ref = np.vdot(phi, f @ phi) / np.vdot(phi, phi)
            assert abs(v - ref) <= 1e-12 * bound(m)
            checked += 1
        assert checked > 1

    def test_a_generator_across_the_frame_takes_the_full_walk(self, npmodel,
                                                              loc_state):
        # p_B + p_A acts on the frame factor A and on B: no cut, so the
        # frame state values by the full-space walk, bit for bit
        assignment = dict(npmodel.assignment)
        assignment["p_B"] = assignment["p_B"] + assignment["p_A"]
        assert assignment["p_B"].support == {0, 1}
        fr = npmodel.frames["A"]
        om = ast.frame_state(npmodel.space, npmodel.constraint, fr,
                             fr.grid[3], loc_state, assignment, npmodel.gens,
                             4)
        assert om.reduction is None
        plain = ast.from_hilbert(om.bra, om.ket, npmodel.space, assignment,
                                 npmodel.gens, 4, normalize=False)
        assert om.value_table(4) == plain.value_table(4)

    def test_reduced_counts_at_the_benchmarked_shape(self, monkeypatch):
        # nparticle L = 32 (D = 32768, D/n = 1024) at degree 6: no generator
        # acts on the full space; the walk applies the 209 non-unit words on
        # q_B, p_B, q_C, p_C into at most 6 buffers of size D/n
        model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                            lattice_size=32))
        psi = md.random_physical_state(model, np.random.default_rng(5))
        om = frame_omega(model, "A", model.frames["A"].grid[3], psi)
        applies, adjoints = [], []
        apply, apply_adjoint = ks.KinOperator.apply, ks.KinOperator.apply_adjoint

        def spy_apply(op, vec, out=None):
            applies.append((op.space.dim, out))
            return apply(op, vec, out)

        def spy_adjoint(op, vec):
            adjoints.append(op.space.dim)
            return apply_adjoint(op, vec)

        monkeypatch.setattr(ks.KinOperator, "apply", spy_apply)
        monkeypatch.setattr(ks.KinOperator, "apply_adjoint", spy_adjoint)
        tracemalloc.start()
        try:
            table = om.value_table(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert len(table) == 924
        assert not adjoints
        assert len(applies) == 209
        assert {dim for dim, _ in applies} == {model.space.dim // 32}
        assert len({id(out) for _, out in applies}) <= 6
        # the full-space walk peaks at 3.2 MiB
        assert peak <= 2 * 2**20
        assert all(v == reduced_per_word_value(om, m)
                   for m, v in list(table.items())[::37])


@settings(max_examples=30)
@given(**CASES)
@example(kind="su2", frame=0, size=4, hbar=1.0, j=1, levels=(1.0, 1.0),
         sizes=(4, 6), rho_index=3, seed=19)
@example(kind="mixed", frame=2, size=8, hbar=0.7, j=1, levels=(1.0, 1.0),
         sizes=(8, 6, 4), rho_index=5, seed=23)
def test_other_states_value_the_word_by_word_chain(
        kind, frame, size, hbar, j, levels, sizes, rho_index, seed):
    # a gauge-transformed state, and a frame state with a generator across
    # the frame, take no reduced walk: each value is vdot(bra, y^m ket)
    # with y^m ket applied letter by letter on its own, bit for bit, and
    # that chain in extended precision to 1e-13 of the largest
    # ||(y^p)^dag bra|| ||y^s ket|| over the cuts p s of m's word.  The cut
    # p = 1 alone, ||bra|| ||y^m ket||, is no scale where a word cancels to
    # zero: on spin 1, J_x^2 J_y^2 J_z ket is rounding noise, 1.5e-17
    space, C, frames, assignment, gens, Pi, psi = random_case(
        kind, size, hbar, j, levels, sizes, np.random.default_rng(seed))
    fr = frames[frame % len(frames)]
    fr_b = frames[(frame + 1) % len(frames)]
    om = ast.frame_state(space, C, fr, fr.grid[rho_index % fr.N], psi,
                         assignment, gens, 5)
    gauged = rg.gauge_transform_state(
        om, rg.theta_gauge(fr_b, fr_b.grid[(rho_index + 3) % fr_b.N]), Pi)
    # a frame generator plus a diagonal on the next factor
    name = next(n for n in gens.names if fr.factor in assignment[n].support)
    other = (fr.factor + 1) % len(space.dims)
    across = dict(assignment)
    across[name] = across[name] + ks.factor_operator(
        space, other, np.diag(np.arange(1.0, space.dims[other] + 1)))
    crossing = ast.frame_state(space, C, fr, fr.grid[rho_index % fr.N], psi,
                               across, gens, 5)
    for state in (gauged, crossing):
        assert state.reduction is None
        bra, ket = (x.astype(np.clongdouble) for x in (state.bra, state.ket))
        bound = cut_scale(state)
        for m, v in state.value_table(5).items():
            assert v == complex(np.vdot(state.bra, per_word(
                gens, state.assignment, m, state.ket)))
            exact = complex(np.vdot(bra, per_word(gens, state.assignment, m,
                                                  ket)))
            assert abs(v - exact) <= 1e-13 * bound(m)


def table_bits(table):
    """A value table as (monomial, hex of the real and imaginary parts)."""
    return [(m, v.real.hex(), v.imag.hex()) for m, v in table.items()]


def evict_plans(gens, state):
    """Fill ``ncalg.PLAN_CACHE`` plans on ``gens``' structure, one per
    single monomial of degree 1 to 4 that ``state`` has not valued: the
    cache then holds those plans only."""
    fresh = [m for m in gens.monomial_basis(4)
             if any(m) and m not in state._cache]
    assert len(fresh) >= ncalg.PLAN_CACHE
    for m in fresh[:ncalg.PLAN_CACHE]:
        state.evaluate(gens.element({m: 1}))


@settings(max_examples=25)
@given(**CASES, degree=st.integers(0, 6),
       subsets=st.lists(st.lists(st.integers(0, 10**4), min_size=1,
                                 max_size=6), max_size=4),
       reset=st.sampled_from(["keep", "clear", "evict"]))
@example(kind="su2", frame=0, size=4, hbar=0.7, j=2, levels=(1.0, 1.0),
         sizes=(4, 6), rho_index=3, seed=29, degree=6,
         subsets=[[5, 70, 400], [0]], reset="evict")
@example(kind="mixed", frame=1, size=8, hbar=1.0, j=1, levels=(1.0, 1.0),
         sizes=(8, 6, 4), rho_index=2, seed=31, degree=5,
         subsets=[[3, 9], [300, 4]], reset="clear")
def test_values_do_not_depend_on_call_history(
        kind, frame, size, hbar, j, levels, sizes, rho_index, seed, degree,
        subsets, reset):
    # a frame state's table is reduced_per_word_value bit for bit, whether
    # one value_table call fills it or evaluate calls fill parts of it
    # first, and whether its walk plan was kept, cleared or evicted between
    space, C, frames, assignment, gens, _, psi = random_case(
        kind, size, hbar, j, levels, sizes, np.random.default_rng(seed))
    fr = frames[frame % len(frames)]
    rho = fr.grid[rho_index % fr.N]
    plans = gens.structure.plans

    def fresh():
        return ast.frame_state(space, C, fr, rho, psi, assignment, gens, 6)

    def between(state):
        if reset == "clear":
            plans.cache_clear()
        elif reset == "evict":
            evict_plans(gens, state)
        assert plans.cache_info().currsize <= ncalg.PLAN_CACHE

    om = fresh()
    assert om.reduction is not None
    table = om.value_table(degree)
    assert all(v == reduced_per_word_value(om, m) for m, v in table.items())
    basis = gens.monomial_basis(degree)
    om_parts = fresh()
    for subset in subsets:
        om_parts.evaluate(gens.element({basis[i % len(basis)]: 1
                                        for i in subset}))
        between(fresh())
    assert table_bits(om_parts.value_table(degree)) == table_bits(table)
    between(fresh())
    misses = plans.cache_info().misses
    assert table_bits(fresh().value_table(degree)) == table_bits(table)
    assert plans.cache_info().misses == misses + (reset != "keep")


class TestWalkPlans:
    def test_a_second_table_reuses_the_plan(self, npmodel, loc_state,
                                           monkeypatch):
        # the plan of a frame, degree and monomial list is built once: a
        # second table on a fresh state splits no monomial
        frame_omega(npmodel, "B", 0.0, loc_state, 5).value_table(5)
        plans = npmodel.gens.structure.plans
        misses = plans.cache_info().misses
        splits = []
        split = ncalg._split_monomial

        def spy(m, mask):
            splits.append(m)
            return split(m, mask)

        monkeypatch.setattr(ncalg, "_split_monomial", spy)
        table = frame_omega(npmodel, "B", 0.0, loc_state, 5).value_table(5)
        assert plans.cache_info().misses == misses
        assert not splits
        plans.cache_clear()
        rebuilt = frame_omega(npmodel, "B", 0.0, loc_state, 5).value_table(5)
        assert plans.cache_info().misses == 1
        assert len(splits) == len(npmodel.gens.monomial_basis(5))
        assert table_bits(rebuilt) == table_bits(table)

    def test_the_bra_is_built_on_first_read(self, npmodel, loc_state,
                                            monkeypatch):
        # frame_state contracts the full space to chi and makes no D-vector
        # until .bra is read; that bra is bitwise the one a state without
        # a reduction builds at once
        dim = npmodel.space.dim
        made = []
        apply_factor = ks.LatticeSpace.apply_factor

        def spy(space, factor, mat, vec, out=None):
            res = apply_factor(space, factor, mat, vec, out)
            made.append(res.shape[0] == dim)
            return res

        monkeypatch.setattr(ks.LatticeSpace, "apply_factor", spy)
        om = frame_omega(npmodel, "A", 0.0, loc_state, 4)
        om.value_table(4)
        assert om.reduction is not None and made and not any(made)
        bra = om.bra
        assert made.count(True) == 1
        assert om.bra is bra and made.count(True) == 1
        assignment = dict(npmodel.assignment)
        assignment["p_B"] = assignment["p_B"] + assignment["p_A"]
        fr = npmodel.frames["A"]
        eager = ast.frame_state(npmodel.space, npmodel.constraint, fr, 0.0,
                                loc_state, assignment, npmodel.gens, 4)
        assert eager.reduction is None and made.count(True) == 2
        assert np.array_equal(bra, eager.bra)
        assert bra.tobytes() == eager.bra.tobytes()

    @pytest.mark.parametrize("reduced", [True, False])
    def test_a_fill_with_nothing_missing_does_no_work(
            self, npmodel, loc_state, monkeypatch, reduced):
        # once the table holds every monomial a call asks for, neither a
        # plan nor an apply is looked at
        om = frame_omega(npmodel, "A", 0.0, loc_state, 4)
        if not reduced:
            om = plain_state(npmodel, om)
        table = om.value_table(4)
        plans = npmodel.gens.structure.plans
        before = plans.cache_info()
        applies = []
        apply = ks.KinOperator.apply

        def spy(op, vec, out=None):
            applies.append(op)
            return apply(op, vec, out)

        monkeypatch.setattr(ks.KinOperator, "apply", spy)
        assert om.value_table(4) == table
        p_b = npmodel.gens.gen("p_B")
        assert om.evaluate(p_b) == table[next(iter(p_b.terms))]
        ast.check_constraint_surface(om, npmodel.constraint_elem, 4)
        assert plans.cache_info() == before
        assert not applies
