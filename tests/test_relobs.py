import json

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import closed_form_oracle, g_twirl_oracle
from test_packaging import run_fresh
from qrfkit import kinspace as ks
from qrfkit import models as md
from qrfkit import relobs as ro
from qrfkit.errors import (ConfigError, IncommensurableSpectrum,
                           IndexOutOfRange, NotAFrameFactor, UnsupportedForm)


def ideal_space(N=8, sys_dim=3):
    # frame + small system whose generator lies on the momentum lattice
    spec = np.array([0.0, 1.0, -1.0][:sys_dim])
    return ks.tensor_space([ks.FactorSpec.frame(N, 1.0, "R"),
                            ks.FactorSpec.system(spec, name="S")])


def rand_system_op(sp, rng, herm=True):
    d = sp.factors[1].N
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if herm:
        m = (m + m.conj().T) / 2
    return ks.factor_operator(sp, 1, m)


class TestOrientationStates:
    def setup_method(self):
        self.sp = ideal_space()
        self.fr = ro.OrientationFrame(self.sp, 0)

    def test_zero_orientation_is_uniform(self):
        v = ro.orientation_state(self.fr, 0)
        assert np.allclose(v, np.ones(8))

    def test_orthogonality(self):
        for j in range(-4, 4):
            for k in range(-4, 4):
                ip = np.vdot(ro.orientation_state(self.fr, j),
                             ro.orientation_state(self.fr, k))
                assert abs(ip - (8.0 if j == k else 0.0)) < 1e-12

    def test_identity_resolution(self):
        acc = np.zeros((8, 8), dtype=complex)
        for j in range(-4, 4):
            v = ro.orientation_state(self.fr, j)
            acc += np.outer(v, v.conj())
        assert np.max(np.abs(acc / 8 - np.eye(8))) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            ro.orientation_state(self.fr, 4)

    def test_system_factor_is_not_a_frame(self):
        with pytest.raises(NotAFrameFactor):
            ro.OrientationFrame(self.sp, 1)


class TestEffectOperator:
    def setup_method(self):
        self.sp = ideal_space()
        self.fr = ro.OrientationFrame(self.sp, 0)

    def test_empty_and_full(self):
        zero = ro.effect_operator(self.fr, [])
        assert np.max(np.abs(zero.matrix)) < 1e-12
        full = ro.effect_operator(self.fr, range(-4, 4))
        assert np.max(np.abs(full.matrix - np.eye(self.sp.dim))) < 1e-12

    @pytest.mark.parametrize("j", [-5, 4])
    def test_out_of_range(self, j):
        with pytest.raises(IndexOutOfRange):
            ro.effect_operator(self.fr, [0, j])

    def test_momentum_eigenstate_probability(self):
        X = [-1, 0, 2]
        eff = ro.effect_operator(self.fr, X)
        for k in range(8):
            basis = np.zeros(self.sp.dim)
            basis[k * 3] = 1.0  # momentum k, first system level
            val = np.vdot(basis, eff.apply(basis))
            assert abs(val - len(X) / 8.0) < 1e-12


class TestOrientationOperator:
    def test_eigenvalues_are_grid(self):
        sp = ideal_space()
        fr = ro.OrientationFrame(sp, 0)
        R = ro.orientation_operator(fr)
        vals = np.sort(np.linalg.eigvalsh(R.matrix))
        expected = np.sort(np.repeat(fr.grid, 3))
        assert np.allclose(vals, expected, atol=1e-10)

    def test_commutator_on_localized_state(self):
        # [R, p] = i*hbar on states far from the wraparound edge (N=64)
        sp = ks.tensor_space([ks.FactorSpec.frame(64, 1.0)])
        fr = ro.OrientationFrame(sp, 0)
        R = ro.orientation_operator(fr).matrix
        p = ks.momentum_operator(sp, 0).matrix
        F = fr.fourier_matrix()
        j = np.arange(-32, 32)
        sigma = 64 / 16
        prof = np.exp(-j ** 2 / (4 * sigma ** 2))
        psi = F @ prof
        psi /= np.linalg.norm(psi)
        comm = R @ p - p @ R
        dev = np.vdot(psi, comm @ psi) - 1j * sp.hbar
        assert abs(dev) < 1e-6

    def test_covariance_modulo_period(self):
        sp = ideal_space()
        fr = ro.OrientationFrame(sp, 0)
        R = ro.orientation_operator(fr)
        p = ks.momentum_operator(sp, 0)
        rho = 2 * fr.spacing
        u = expm(1j * rho * p.matrix / sp.hbar)
        conj = u @ R.matrix @ u.conj().T
        diff = conj - (R.matrix + rho * np.eye(sp.dim))
        # diagonal in the orientation basis with entries 0 or -period
        F = fr.fourier_matrix() / np.sqrt(fr.N)
        Ffull = np.kron(F, np.eye(3))
        d = Ffull.conj().T @ diff @ Ffull
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) < 1e-10
        vals = np.diag(d).real
        mods = np.abs(np.remainder(vals + fr.period / 2, fr.period)
                      - fr.period / 2)
        assert np.max(mods) < 1e-10


class TestGTwirl:
    def setup_method(self):
        self.sp = ideal_space()
        self.C = ks.build_constraint(self.sp, {0: 1.0, 1: 1.0})
        self.rng = np.random.default_rng(23)

    def test_commuting_operator_fixed(self):
        g = ks.generator_operator(self.sp, 1)
        tw = ro.g_twirl(self.sp, self.C, g)
        assert np.max(np.abs(tw.matrix - g.matrix)) < 1e-12

    def test_twirl_commutes_with_constraint(self):
        d = self.sp.dim
        m = self.rng.normal(size=(d, d)) + 1j * self.rng.normal(size=(d, d))
        A = ks.KinOperator.from_matrix(self.sp, m)
        tw = ro.g_twirl(self.sp, self.C, A)
        comm = tw.matrix @ self.C.matrix - self.C.matrix @ tw.matrix
        assert np.max(np.abs(comm)) < 1e-10

    def test_twirl_against_explicit_group_sum(self):
        d = self.sp.dim
        m = self.rng.normal(size=(d, d)) + 1j * self.rng.normal(size=(d, d))
        A = ks.KinOperator.from_matrix(self.sp, m)
        tw = ro.g_twirl(self.sp, self.C, A)
        oracle = g_twirl_oracle(self.sp, self.C, A)
        assert np.max(np.abs(tw.matrix - oracle)) < 1e-10

    def test_twirl_of_theta_is_identity(self):
        fr = ro.OrientationFrame(self.sp, 0)
        theta = ro.theta_gauge(fr, fr.grid[5])
        tw = ro.g_twirl(self.sp, self.C, theta)
        assert np.max(np.abs(tw.matrix - np.eye(self.sp.dim))) < 1e-10

    def test_nondiagonal_constraint_against_explicit_group_sum(self):
        # a rotated C is refused: no eigenbasis is computed
        d = self.sp.dim
        U, _ = np.linalg.qr(self.rng.normal(size=(d, d))
                            + 1j * self.rng.normal(size=(d, d)))
        C = ks.KinOperator.from_matrix(
            self.sp, (U * self.C.diag) @ U.conj().T)
        m = self.rng.normal(size=(d, d)) + 1j * self.rng.normal(size=(d, d))
        A = ks.KinOperator.from_matrix(self.sp, m)
        with pytest.raises(UnsupportedForm):
            ro.g_twirl(self.sp, C, A)


class TestRelationalObservable:
    def setup_method(self):
        self.sp = ideal_space()
        self.fr = ro.OrientationFrame(self.sp, 0)
        self.C = ks.build_constraint(self.sp, {0: 1.0, 1: 1.0})
        self.Pi = ks.group_average(self.sp, self.C)
        self.rng = np.random.default_rng(31)

    def test_unknown_form_rejected(self):
        f_s = rand_system_op(self.sp, self.rng)
        with pytest.raises(UnsupportedForm, match="unknown form"):
            ro.relational_observable(self.sp, self.C, self.fr, 0.0, f_s,
                                     form="dirac")

    def test_kinematical_and_closed_forms_agree(self):
        for _ in range(5):
            f = rand_system_op(self.sp, self.rng)
            rho = self.fr.grid[self.rng.integers(0, 8)]
            kin = ro.relational_observable(self.sp, self.C, self.fr, rho, f,
                                           form="kinematical")
            closed = ro.relational_observable(self.sp, self.C, self.fr, rho, f,
                                              form="closed")
            assert np.max(np.abs(kin.matrix - closed.matrix)) < 1e-10

    def test_closed_form_with_frame_between_systems(self):
        # the frame axis is neither the first nor the last tensor factor
        sp = ks.tensor_space([ks.FactorSpec.system([0.0, 1.0], name="S1"),
                              ks.FactorSpec.frame(8, 1.0, "R"),
                              ks.FactorSpec.system([0.0, 1.0, -1.0],
                                                   name="S2")])
        fr = ro.OrientationFrame(sp, 1)
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0, 2: 1.0})
        m0 = self.rng.normal(size=(2, 2)) + 1j * self.rng.normal(size=(2, 2))
        m2 = self.rng.normal(size=(3, 3)) + 1j * self.rng.normal(size=(3, 3))
        f = ks.factor_operator(sp, 0, m0) @ ks.factor_operator(sp, 2, m2)
        for j in (0, 3, 6):
            kin = ro.relational_observable(sp, C, fr, fr.grid[j], f,
                                           form="kinematical")
            closed = ro.relational_observable(sp, C, fr, fr.grid[j], f,
                                              form="closed")
            assert np.max(np.abs(kin.matrix - closed.matrix)) < 1e-10

    def test_physical_form_identity(self):
        # O^rho(f) Pi == Pi (Theta f) Pi
        f = rand_system_op(self.sp, self.rng)
        rho = self.fr.grid[2]
        kin = ro.relational_observable(self.sp, self.C, self.fr, rho, f,
                                       form="kinematical")
        phys = ro.relational_observable(self.sp, self.C, self.fr, rho, f,
                                        form="physical", Pi=self.Pi)
        P = self.Pi.matrix
        assert np.max(np.abs(kin.matrix @ P - phys.matrix @ P)) < 1e-10

    def test_observable_commutes_with_projector(self):
        f = rand_system_op(self.sp, self.rng)
        kin = ro.relational_observable(self.sp, self.C, self.fr,
                                       self.fr.grid[1], f, form="kinematical")
        P = self.Pi.matrix
        assert np.max(np.abs(kin.matrix @ P - P @ kin.matrix)) < 1e-10

    def test_expectation_matches_reduced_state(self):
        # physical expectation equals reduced-state expectation
        f = rand_system_op(self.sp, self.rng)
        rho = self.fr.grid[6]
        psi = ks.project_physical(
            self.Pi, self.rng.normal(size=self.sp.dim)
            + 1j * self.rng.normal(size=self.sp.dim))
        kin = ro.relational_observable(self.sp, self.C, self.fr, rho, f,
                                       form="kinematical")
        lhs = np.vdot(psi, kin.matrix @ psi)
        bra = ro.orientation_state_at(self.fr, rho)
        red = np.tensordot(bra.conj(), psi.reshape(8, 3), axes=([0], [0]))
        rhs = np.vdot(red, f.matrix.reshape(8, 3, 8, 3)[0, :, 0, :] @ red)
        assert abs(lhs - rhs) < 1e-10

    def test_generator_dressing_trivial_on_kernel(self):
        g = ks.generator_operator(self.sp, 1)
        kin = ro.relational_observable(self.sp, self.C, self.fr,
                                       self.fr.grid[3], g, form="kinematical")
        P = self.Pi.matrix
        assert np.max(np.abs((kin.matrix - g.matrix) @ P)) < 1e-10

    def test_invariant_f_s_undressed(self):
        # [f_S, G_S] = 0 -> O^rho(f_S) Pi = f_S Pi for all rho
        d = np.diag(self.rng.normal(size=3))
        f = ks.factor_operator(self.sp, 1, d)
        for j in (-4, 0, 3):
            kin = ro.relational_observable(self.sp, self.C, self.fr,
                                           self.fr.grid[j + 4], f,
                                           form="kinematical")
            P = self.Pi.matrix
            assert np.max(np.abs((kin.matrix - f.matrix) @ P)) < 1e-10

    def test_rho_covariance(self):
        # O^{rho'}(f) = U_S(rho - rho') O^{rho}(f) U_S(rho - rho')^dag with
        # U_S(s) = exp(-i s G_S / hbar), as follows from the ideal closed form
        f = rand_system_op(self.sp, self.rng)
        gs = ro.frame_system_generator(self.sp, self.C, self.fr)
        rho1, rho2 = self.fr.grid[2], self.fr.grid[5]
        o1 = ro.relational_observable(self.sp, self.C, self.fr, rho1, f,
                                      form="closed")
        o2 = ro.relational_observable(self.sp, self.C, self.fr, rho2, f,
                                      form="closed")
        u = np.diag(np.exp(-1j * (rho1 - rho2) * gs.diag / self.sp.hbar))
        assert np.max(np.abs(o2.matrix - u @ o1.matrix @ u.conj().T)) < 1e-10

    def test_frame_supported_f_rejected(self):
        f = ks.momentum_operator(self.sp, 0)
        with pytest.raises(UnsupportedForm):
            ro.relational_observable(self.sp, self.C, self.fr, 0.0, f)


class TestDerivedSupport:
    """The frame guard reads the support of f_S off its stored form."""

    FORMS = ["kinematical", "closed", "physical"]

    @staticmethod
    def nparticle():
        model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                            lattice_size=8))
        return model, model.frames["A"], model.frames["A"].grid[3]

    @pytest.mark.parametrize("form", FORMS)
    def test_dense_f_on_the_frame_rejected(self, form):
        # 1 x q_C + q_A acts on frame A.  Declared with support {2} it used to
        # pass, and its closed and kinematical forms then differed by 0.39 in
        # norm on the default Gaussian physical state.
        model, fr, rho = self.nparticle()
        q = model.assignment
        f = ks.KinOperator.from_matrix(model.space,
                                       (q["q_C"] + q["q_A"]).matrix)
        with pytest.raises(UnsupportedForm):
            ro.relational_observable(model.space, model.constraint, fr, rho,
                                     f, form=form, Pi=model.Pi)

    @pytest.mark.parametrize("form", FORMS)
    def test_dense_f_off_the_frame_matches_factor_local(self, form):
        model, fr, rho = self.nparticle()
        rng = np.random.default_rng(173)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = (m + m.conj().T) / 2
        local = ks.factor_operator(model.space, 2, m)
        dense = ks.KinOperator.from_matrix(model.space, np.kron(np.eye(64), m))
        got, want = (ro.relational_observable(model.space, model.constraint,
                                              fr, rho, f, form=form,
                                              Pi=model.Pi)
                     for f in (dense, local))
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12


class TestComposedForms:
    """Each form stores its parts; its matrix and adjoint match dense
    oracles built without the composed form."""

    @pytest.mark.parametrize("spec,f_name", [
        (md.ModelSpec("nparticle", n_particles=3, lattice_size=8), "q_C"),
        (md.ModelSpec("su2", lattice_size=8, j=2), "J_x")],
        ids=["nparticle", "su2"])
    def test_forms_match_dense_oracles(self, spec, f_name):
        model = md.build_model(spec)
        sp, C, Pi = model.space, model.constraint, model.Pi
        fr = model.frames["A"]
        rho = fr.grid[3]
        f_s = model.assignment[f_name]
        theta_f = ro.theta_gauge(fr, rho).matrix @ f_s.matrix
        refs = {"kinematical": g_twirl_oracle(
                    sp, C, ks.KinOperator.from_matrix(sp, theta_f)),
                "closed": closed_form_oracle(sp, C, fr, rho, f_s),
                "physical": Pi.matrix @ theta_f}
        rng = np.random.default_rng(211)
        V = rng.normal(size=(sp.dim, 3)) + 1j * rng.normal(size=(sp.dim, 3))
        for form, ref in refs.items():
            obs = ro.relational_observable(sp, C, fr, rho, f_s, form=form,
                                           Pi=Pi)
            assert obs.kind == ("twirl" if form == "kinematical" else "@")
            tol = 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(obs.matrix - ref)) < tol, form
            assert np.max(np.abs(obs.apply_adjoint(V)
                                 - ref.conj().T @ V)) < tol, form

    def test_class_spanning_the_tolerance_raises(self):
        sp = ideal_space()
        A = rand_system_op(sp, np.random.default_rng(223), herm=False)
        # largest eigenvalue 5, so the twirl tolerance is 5e-9
        vals = np.full(sp.dim, 5.0)
        vals[:3] = [0.0, 3e-9, 6e-9]  # neighbours within it, ends not
        with pytest.raises(IncommensurableSpectrum):
            ro.g_twirl(sp, ks.KinOperator.from_diag(sp, vals), A)
        vals[2] = 9e-9  # classes {0, 3e-9} and {9e-9}, 6e-9 apart
        tw = ro.g_twirl(sp, ks.KinOperator.from_diag(sp, vals), A)
        mask = np.abs(vals[:, None] - vals[None, :]) < 5e-9
        assert np.count_nonzero(mask[:3, :3]) == 5
        assert np.array_equal(tw.matrix, A.matrix * mask)

    def test_rotated_class_spanning_the_tolerance_raises(self):
        # the chain raises IncommensurableSpectrum; in a rotated basis the
        # constraint is refused before its classes are formed
        sp = ks.tensor_space([ks.FactorSpec.system(np.arange(8.0))])
        rng = np.random.default_rng(227)
        A = ks.KinOperator.from_matrix(
            sp, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        vals = np.array([0.0, 0.6e-9, 1.2e-9, 0.5, 0.6, 0.7, 0.8, 0.9])
        U, _ = np.linalg.qr(rng.normal(size=(8, 8))
                            + 1j * rng.normal(size=(8, 8)))
        with pytest.raises(IncommensurableSpectrum):
            ro.g_twirl(sp, ks.KinOperator.from_diag(sp, vals), A)
        with pytest.raises(UnsupportedForm):
            ro.g_twirl(sp, ks.KinOperator.from_matrix(
                sp, (U * vals) @ U.conj().T), A)

    @staticmethod
    def many_class_twirl(lattice_size, n_classes, seed):
        """g_twirl(C, A) on three frames, C diagonal with ``n_classes``
        integer eigenvalues in a random order and A a dense operator."""
        model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                            lattice_size=lattice_size))
        sp = model.space
        rng = np.random.default_rng(seed)
        vals = (rng.permutation(sp.dim) % n_classes).astype(float)
        A = ks.KinOperator.from_matrix(sp, rng.normal(size=(sp.dim, sp.dim))
                                       + 1j * rng.normal(size=(sp.dim, sp.dim)))
        C = ks.KinOperator.from_diag(sp, vals)
        V = rng.normal(size=(sp.dim, 3)) + 1j * rng.normal(size=(sp.dim, 3))
        return sp, C, A, ro.g_twirl(sp, C, A), V

    def test_grouped_classes_match_the_group_sum(self, monkeypatch):
        # groups of at most 4 classes: 24 classes at D = 64 take six groups
        monkeypatch.setattr(ks, "_COLUMN_BLOCK", 4)
        sp, C, A, tw, V = self.many_class_twirl(4, 24, 229)
        ref = g_twirl_oracle(sp, C, A)
        tol = 1e-12 * np.max(np.abs(ref))
        for v in (V, V[:, 0]):
            assert np.max(np.abs(tw.apply(v) - ref @ v)) < tol
            assert np.max(np.abs(tw.apply_adjoint(v) - ref.conj().T @ v)) < tol

    def test_more_classes_than_a_block_at_d512(self):
        # 300 classes at D = 512: two groups of at most 256
        sp, C, A, tw, V = self.many_class_twirl(8, 300, 233)
        vals = C.diag.real
        ref = A.matrix * (vals[:, None] == vals[None, :])
        tol = 1e-12 * np.max(np.abs(ref))
        for v in (V, V[:, 0]):
            assert np.max(np.abs(tw.apply(v) - ref @ v)) < tol
            assert np.max(np.abs(tw.apply_adjoint(v) - ref.conj().T @ v)) < tol

    def test_all_distinct_classes_apply_in_bounded_blocks(self):
        """C = diag(0, ..., D - 1) on three 12-site frames (D = 1728): each
        basis state is its own class, so the twirl keeps A's diagonal.  One
        vector apply stays under 16 MiB of tracemalloc peak; one D x D
        complex array is 45.6 MiB."""
        import tracemalloc

        model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                            lattice_size=12))
        sp = model.space
        assert sp.dim == 1728
        rng = np.random.default_rng(239)
        A = ks.factor_operator(sp, 1, rng.normal(size=(12, 12))
                               + 1j * rng.normal(size=(12, 12)))
        C = ks.KinOperator.from_diag(sp, np.arange(sp.dim, dtype=float))
        tw = ro.g_twirl(sp, C, A)
        v = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
        tracemalloc.start()
        try:
            y = tw.apply(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak / 2 ** 20
        d = A.diagonal()
        assert np.max(np.abs(y - d * v)) < 1e-12 * np.max(np.abs(d * v))
        assert np.max(np.abs(tw.apply_adjoint(v) - d.conj() * v)) \
            < 1e-12 * np.max(np.abs(d * v))

    def test_all_forms_at_d32768_in_a_fresh_interpreter(self):
        """nparticle L = 32 under a 3 GB address-space limit: the forms agree
        on two physical probes, and each build plus two applies stays under
        64 MiB of tracemalloc peak (a D x D complex array is 16 GiB)."""
        code = """if True:
            import json, resource, tracemalloc
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            limit = 3_000_000 * 1024
            if hard != resource.RLIM_INFINITY:
                limit = min(limit, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
            import numpy as np
            from qrfkit import models as md, relobs as ro
            model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                                lattice_size=32))
            fr = model.frames["A"]
            probes = [md.gaussian_physical_state(model),
                      md.random_physical_state(model,
                                               np.random.default_rng(227))]
            peaks, outs = {}, {}
            for form in ("kinematical", "closed", "physical"):
                tracemalloc.start()
                obs = ro.relational_observable(
                    model.space, model.constraint, fr, fr.grid[13],
                    model.assignment["q_C"], form=form, Pi=model.Pi)
                outs[form] = [obs.apply(p) for p in probes]
                peaks[form] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            errs = {form: max(float(np.linalg.norm(a - b) / np.linalg.norm(b))
                              for a, b in zip(outs[form], outs["kinematical"]))
                    for form in ("closed", "physical")}
            print(json.dumps({"dim": model.space.dim, "peaks": peaks,
                              "errs": errs}))
        """
        rep = json.loads(run_fresh(code).splitlines()[-1])
        assert rep["dim"] == 32768
        assert all(peak < 64 for peak in rep["peaks"].values()), rep
        assert all(err < 1e-9 for err in rep["errs"].values()), rep


class TestSu2ClosedForm:
    def test_spin_dirac_observable(self):
        # system algebra su(2), j=1: the dressed J_x is an exact rotation
        hbar = 1.0
        jz = hbar * np.diag([1.0, 0.0, -1.0])
        # standard spin-1 ladder: <m|J+|m-1> = hbar*sqrt(j(j+1)-m(m-1))
        jp = hbar * np.array([[0, np.sqrt(2), 0],
                              [0, 0, np.sqrt(2)],
                              [0, 0, 0]])
        jx = (jp + jp.conj().T) / 2
        jy = (jp - jp.conj().T) / (2j)
        beta = 1.0
        sp = ks.tensor_space(
            [ks.FactorSpec.frame(16, 1.0, "A"), ks.FactorSpec.frame(16, 1.0, "B"),
             ks.FactorSpec.system(-beta * np.diag(jz).real, name="S")],
            hbar=hbar)
        fr = ro.OrientationFrame(sp, 0)
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0, 2: 1.0})
        f = ks.factor_operator(sp, 2, jx)
        rho = fr.grid[9]
        kin = ro.relational_observable(sp, C, fr, rho, f, form="kinematical")
        R = ro.orientation_operator(fr).matrix
        # cos/sin of beta*(R - rho) via the spectral calculus of R
        fr_mat = fr.fourier_matrix()
        diag_cos = np.cos(beta * (fr.grid - rho))
        diag_sin = np.sin(beta * (fr.grid - rho))
        cos_R = (fr_mat * diag_cos) @ fr_mat.conj().T / fr.N
        sin_R = (fr_mat * diag_sin) @ fr_mat.conj().T / fr.N
        expected = (sp.embed_matrix(0, cos_R) @ sp.embed_matrix(2, jx)
                    - sp.embed_matrix(0, sin_R) @ sp.embed_matrix(2, jy))
        assert np.max(np.abs(kin.matrix - expected)) < 1e-10


class TestClosedFormMemory:
    def test_peak_below_one_and_a_half_dense_arrays(self):
        import tracemalloc

        from qrfkit import models as md

        model = md.build_model(md.ModelSpec("su2", lattice_size=10, j=2))
        D = model.space.dim
        assert D == 500
        f_s = model.assignment["J_x"]
        assert f_s.local is not None
        fr = model.frames["A"]
        tracemalloc.start()
        try:
            obs = ro.relational_observable(model.space, model.constraint, fr,
                                           fr.grid[3], f_s, form="closed")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * D * D * 16
        kin = ro.relational_observable(model.space, model.constraint, fr,
                                       fr.grid[3], f_s, form="kinematical")
        assert np.max(np.abs(obs.matrix - kin.matrix)) < 1e-10


class TestWraparoundWeight:
    def setup_method(self):
        self.sp = ideal_space(N=16)
        self.fr = ro.OrientationFrame(self.sp, 0)
        self.rng = np.random.default_rng(41)

    def test_physical_state_is_uniform(self):
        C = ks.build_constraint(self.sp, {0: 1.0, 1: 1.0})
        psi = ks.project_physical(
            ks.group_average(self.sp, C),
            self.rng.normal(size=self.sp.dim)
            + 1j * self.rng.normal(size=self.sp.dim))
        for margin in (0, 1, 2, 3, 8):
            w = ro.wraparound_weight(self.fr, psi, margin)
            assert abs(w - 2 * margin / 16) < 1e-12

    @pytest.mark.parametrize("margin", [-1, 9])
    def test_margin_outside_half_the_range_raises(self, margin):
        psi = np.ones(self.sp.dim, dtype=complex)
        with pytest.raises(ConfigError, match="margin"):
            ro.wraparound_weight(self.fr, psi, margin)

    def test_edge_orientation_state(self):
        sys = self.rng.normal(size=3) + 1j * self.rng.normal(size=3)
        psi = np.kron(ro.orientation_state(self.fr, -8), sys)
        assert abs(ro.wraparound_weight(self.fr, psi) - 1.0) < 1e-12
