import json
import tracemalloc
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import represent
from test_packaging import run_fresh
from qrfkit import algstates as ast
from qrfkit import kinspace as ks
from qrfkit import models as md
from qrfkit import reduction_gauge as rg
from qrfkit import relobs as ro
from qrfkit.errors import (IllConditionedFlow, IncommensurableSpectrum,
                           IndexOutOfRange, NotPhysical, SameFrame,
                           UnsupportedForm, UnsupportedSupport)


@pytest.fixture(scope="module")
def model():
    return md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                       lattice_size=8))


@pytest.fixture(scope="module")
def psi(model):
    rng = np.random.default_rng(41)
    return md.random_physical_state(model, rng, unwrapped=False)


class TestReduceEmbed:
    def test_embed_then_reduce_is_identity(self, model):
        rng = np.random.default_rng(43)
        fr = model.frames["A"]
        rho = fr.grid[3]
        red_dim = model.space.dim // 8
        phi = rng.normal(size=red_dim) + 1j * rng.normal(size=red_dim)
        full = rg.embed_state(fr, rho, phi, model.Pi)
        back = rg.reduce_state(fr, rho, full)
        assert np.max(np.abs(back - phi)) < 1e-12

    def test_embedded_state_is_physical(self, model):
        rng = np.random.default_rng(47)
        fr = model.frames["B"]
        red_dim = model.space.dim // 8
        phi = rng.normal(size=red_dim) + 0j
        full = rg.embed_state(fr, fr.grid[1], phi, model.Pi)
        assert np.linalg.norm(model.constraint.apply(full)) < 1e-10

    def test_reduce_then_embed_fixes_physical_states(self, model, psi):
        fr = model.frames["A"]
        rho = fr.grid[6]
        red = rg.reduce_state(fr, rho, psi, C=model.constraint)
        back = rg.embed_state(fr, rho, red, model.Pi)
        assert np.max(np.abs(back - psi)) < 1e-10

    def test_norm_preservation(self, model, psi):
        fr = model.frames["A"]
        red = rg.reduce_state(fr, fr.grid[2], psi)
        phys_norm = ks.physical_inner_product(model.space, model.Pi, psi, psi)
        assert abs(np.vdot(red, red) - phys_norm) < 1e-10

    def test_embed_norm_matches_reduced_block(self, model):
        rng = np.random.default_rng(53)
        fr = model.frames["A"]
        red_dim = model.space.dim // 8
        phi = rng.normal(size=red_dim) + 1j * rng.normal(size=red_dim)
        full = rg.embed_state(fr, fr.grid[4], phi, model.Pi)
        ip = ks.physical_inner_product(model.space, model.Pi, full, full)
        # ideal frame: reduce(embed(phi)) = phi, so the norm is |phi|^2
        assert abs(ip - np.vdot(phi, phi)) < 1e-10

    @pytest.mark.parametrize("factor", [7, 3, -1])
    def test_reduced_space_rejects_a_factor_outside_the_space(self, model,
                                                              factor):
        assert len(model.space.factors) == 3
        with pytest.raises(IndexOutOfRange):
            ks.reduced_space(model.space, factor)

    def test_reduced_space_drops_one_factor_and_validates(self, model):
        factors = model.space.factors
        for k in range(len(factors)):
            rest = ks.reduced_space(model.space, k)
            assert rest.factors == factors[:k] + factors[k + 1:]
            assert rest.hbar == model.space.hbar
        # a space built without tensor_space, whose frames disagree on dp
        bad = ks.LatticeSpace((ks.FactorSpec.frame(4, 1.0),
                               ks.FactorSpec.frame(4, 2.0),
                               ks.FactorSpec.system([0.0, 2.0])))
        with pytest.raises(IncommensurableSpectrum):
            ks.reduced_space(bad, 2)

    def test_reorientation_covariance(self, model, psi):
        fr = model.frames["A"]
        rho1, rho2 = fr.grid[3], fr.grid[5]
        red1 = rg.reduce_state(fr, rho1, psi)
        red2 = rg.reduce_state(fr, rho2, psi)
        gs = ro.frame_system_generator(model.space, model.constraint, fr)
        rest = ks.reduced_space(model.space, fr.factor)
        gs_red = gs.diag.reshape(model.space.dims)[0].reshape(-1)
        u = np.exp(-1j * (rho1 - rho2) * gs_red / model.hbar)
        assert np.max(np.abs(red1 - u * red2)) < 1e-10

    def test_expectation_equality(self, model, psi):
        rng = np.random.default_rng(59)
        fr = model.frames["A"]
        rho = fr.grid[5]
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = (m + m.conj().T) / 2
        f = ks.factor_operator(model.space, 2, m)
        obs = ro.relational_observable(model.space, model.constraint, fr,
                                       rho, f, form="kinematical")
        lhs = np.vdot(psi, obs.apply(psi))
        red = rg.reduce_state(fr, rho, psi)
        red_space = ks.reduced_space(model.space, fr.factor)
        f_red = ks.factor_operator(red_space, 1, m)
        rhs = np.vdot(red, f_red.apply(red))
        assert abs(lhs - rhs) < 1e-10

    def test_not_physical_rejected(self, model):
        rng = np.random.default_rng(61)
        bad = rng.normal(size=model.space.dim) + 0j
        with pytest.raises(NotPhysical):
            rg.reduce_state(model.frames["A"], 0.0, bad, C=model.constraint)


class CountingPi:
    """A projector on ``Pi.space`` that counts its ``apply`` calls."""

    def __init__(self, Pi):
        self.Pi, self.space, self.calls = Pi, Pi.space, 0

    def apply(self, vec):
        self.calls += 1
        return self.Pi.apply(vec)


def unit_vector_reference(fr_a, rho_a, fr_b, rho_b, Pi):
    """V built column by column: reduce_B(embed_A(e_i)) for each unit e_i."""
    n_a = fr_a.space.dim // fr_a.N
    return np.column_stack([
        rg.reduce_state(fr_b, rho_b, rg.embed_state(fr_a, rho_a, e, Pi))
        for e in np.eye(n_a)])


class TestColumnBlocks:
    def test_block_equals_column_by_column(self, model, psi):
        rng = np.random.default_rng(131)
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        rho_a, rho_b = fr_a.grid[2], fr_b.grid[5]
        red_dim = model.space.dim // 8
        phi = (rng.normal(size=(red_dim, 3))
               + 1j * rng.normal(size=(red_dim, 3)))
        v = rg.qrf_transform(fr_a, rho_a, fr_b, rho_b, model.Pi)
        full = rg.embed_state(fr_a, rho_a, phi, model.Pi)
        kets = np.stack([psi, full[:, 0], full[:, 2]], axis=1)
        red = rg.reduce_state(fr_b, rho_b, kets, C=model.constraint)
        moved = v.apply(phi)
        assert full.shape == (model.space.dim, 3)
        assert red.shape == moved.shape == (red_dim, 3)
        for j in range(3):
            col = rg.embed_state(fr_a, rho_a, phi[:, j], model.Pi)
            assert np.max(np.abs(full[:, j] - col)) < 1e-12
            col = rg.reduce_state(fr_b, rho_b, kets[:, j], C=model.constraint)
            assert np.max(np.abs(red[:, j] - col)) < 1e-12
            assert np.max(np.abs(moved[:, j] - v.apply(phi[:, j]))) < 1e-12

    def test_unphysical_column_in_block_rejected(self, model, psi):
        bad = np.random.default_rng(137).normal(size=model.space.dim)
        with pytest.raises(NotPhysical):
            rg.reduce_state(model.frames["A"], 0.0,
                            np.stack([psi, bad, psi], axis=1),
                            C=model.constraint)

    def test_frame_state_and_reduction_share_the_tolerance(self, model, psi,
                                                           monkeypatch):
        # a state off the constraint by 1e-6 relative is rejected by both,
        # and accepted by both once the shared tolerance is raised above it
        rng = np.random.default_rng(139)
        noise = rng.normal(size=model.space.dim)
        off = psi + 1e-6 * noise / np.linalg.norm(noise)
        fr = model.frames["A"]
        checks = [
            lambda: rg.reduce_state(fr, 0.0, off, C=model.constraint),
            lambda: ast.frame_state(model.space, model.constraint, fr, 0.0,
                                    off, model.assignment, model.gens, 2)]
        for check in checks:
            with pytest.raises(NotPhysical):
                check()
        monkeypatch.setattr(ks, "PHYS_RTOL", 1e-3)
        for check in checks:
            check()


class TestQRFTransform:
    def test_roundtrip_identity(self, model):
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        rho_a, rho_b = fr_a.grid[4], fr_b.grid[5]
        v_ab = rg.qrf_transform(fr_a, rho_a, fr_b, rho_b, model.Pi)
        v_ba = rg.qrf_transform(fr_b, rho_b, fr_a, rho_a, model.Pi)
        comp = v_ba.apply(v_ab.apply(np.eye(model.space.dim // 8)))
        assert np.max(np.abs(comp - np.eye(comp.shape[0]))) < 1e-10

    def test_transforms_reduced_states(self, model, psi):
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        rho_a, rho_b = fr_a.grid[4], fr_b.grid[6]
        v = rg.qrf_transform(fr_a, rho_a, fr_b, rho_b, model.Pi)
        red_a = rg.reduce_state(fr_a, rho_a, psi)
        red_b = rg.reduce_state(fr_b, rho_b, psi)
        assert np.max(np.abs(v.apply(red_a) - red_b)) < 1e-10

    def test_stores_maps_and_applies_pi_once(self, model):
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        spy = CountingPi(model.Pi)
        v = rg.qrf_transform(fr_a, fr_a.grid[1], fr_b, fr_b.grid[6], spy)
        assert spy.calls == 0
        x = np.random.default_rng(149).normal(size=(model.space.dim // 8, 4))
        v.apply(x[:, 0])
        assert spy.calls == 1
        v.apply(x)
        assert spy.calls == 2

    @pytest.mark.parametrize("spec", [
        md.ModelSpec("nparticle", n_particles=3, lattice_size=8),
        md.ModelSpec("su2", lattice_size=10, j=2)], ids=lambda s: s.name)
    def test_matrix_matches_unit_vector_reference(self, spec):
        m = md.build_model(spec)
        fr_a, fr_b = m.frames["A"], m.frames["B"]
        rho_a, rho_b = fr_a.grid[3], fr_b.grid[1]
        v = rg.qrf_transform(fr_a, rho_a, fr_b, rho_b, m.Pi)
        ref = unit_vector_reference(fr_a, rho_a, fr_b, rho_b, m.Pi)
        mat = v.apply(np.eye(m.space.dim // fr_a.N))
        assert mat.shape == ref.shape
        assert np.max(np.abs(mat - ref)) < 1e-12

    def test_matrix_of_frames_of_different_sizes(self):
        space = ks.tensor_space([ks.FactorSpec.frame(4, 1.0, "A"),
                                 ks.FactorSpec.system([0.0, 1.0, -1.0]),
                                 ks.FactorSpec.frame(8, 1.0, "B")])
        Pi = ks.group_average(space, ks.build_constraint(
            space, {0: 1.0, 1: 1.0, 2: 1.0}))
        fr_a, fr_b = ro.OrientationFrame(space, 2), ro.OrientationFrame(space, 0)
        v = rg.qrf_transform(fr_a, fr_a.grid[5], fr_b, fr_b.grid[1], Pi)
        ref = unit_vector_reference(fr_a, fr_a.grid[5], fr_b, fr_b.grid[1], Pi)
        mat = v.apply(np.eye(12))
        assert mat.shape == ref.shape == (24, 12)
        assert np.max(np.abs(mat - ref)) < 1e-12

    def test_same_frame_rejected(self, model):
        fr = model.frames["A"]
        with pytest.raises(SameFrame):
            rg.qrf_transform(fr, 0.0, fr, 0.0, model.Pi)

    def test_position_conjugation_modulo_period(self, model):
        # V q_B V^dag = -q_A + (rho_A + rho_B) modulo the lattice period
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        rho_a, rho_b = fr_a.grid[4], fr_b.grid[5]
        v = rg.qrf_transform(fr_a, rho_a, fr_b, rho_b, model.Pi)
        # on the A-reduced space (factors B, C) the position of B acts first
        qmat = md.position_matrix(8, 1.0, model.hbar)
        q_b = np.kron(qmat, np.eye(8))
        conj = rg.conjugate_observable(v, q_b).apply(np.eye(64))
        q_a = np.kron(qmat, np.eye(8))  # on the B-reduced space (A, C)
        target = -q_a + (rho_a + rho_b) * np.eye(64)
        diff = conj - target
        # diagonal in the A-position basis, entries multiples of the period
        F = fr_a.fourier_matrix() / np.sqrt(8)
        Ffull = np.kron(F, np.eye(8))
        d = Ffull.conj().T @ diff @ Ffull
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) < 1e-9
        period = fr_a.period
        vals = np.diag(d).real
        mods = np.abs(np.remainder(vals + period / 2, period) - period / 2)
        assert np.max(mods) < 1e-9

    def test_momentum_conjugation(self, model):
        # V p_B V^dag = -p_A - G_S modulo the momentum period
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        rho_a, rho_b = fr_a.grid[4], fr_b.grid[4]
        v = rg.qrf_transform(fr_a, rho_a, fr_b, rho_b, model.Pi)
        pvals = model.space.factors[0].generator_spectrum
        p_b = np.kron(np.diag(pvals), np.eye(8))
        conj = rg.conjugate_observable(v, p_b).apply(np.eye(64))
        p_a = np.kron(np.diag(pvals), np.eye(8))
        p_c = np.kron(np.eye(8), np.diag(pvals))
        target = -p_a - p_c
        diff = np.diag(conj - target).real
        period = 8 * 1.0
        mods = np.abs(np.remainder(diff + period / 2, period) - period / 2)
        assert np.max(np.abs(conj - np.diag(np.diag(conj)))) < 1e-9
        assert np.max(mods) < 1e-9

    def test_identity_observable_fixed(self, model):
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        v = rg.qrf_transform(fr_a, 0.0, fr_b, 0.0, model.Pi)
        conj = rg.conjugate_observable(v, np.eye(64)).apply(np.eye(64))
        assert np.max(np.abs(conj - np.eye(64))) < 1e-10

    @pytest.mark.parametrize("shape", [(512, 512), (64, 8), (64,)])
    def test_observable_off_the_source_space_rejected(self, model, shape):
        # the A-reduced space has dimension 64
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        v = rg.qrf_transform(fr_a, 0.0, fr_b, 0.0, model.Pi)
        with pytest.raises(UnsupportedSupport):
            rg.conjugate_observable(v, np.ones(shape))

    def test_invariant_system_observable_unchanged(self, model):
        # f_S commuting with G_S stays put under the frame change
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        v = rg.qrf_transform(fr_a, 0.0, fr_b, 0.0, model.Pi)
        pvals = model.space.factors[2].generator_spectrum
        f = np.kron(np.eye(8), np.diag(pvals))  # p_C on either reduced space
        conj = rg.conjugate_observable(v, f).apply(np.eye(64))
        assert np.max(np.abs(conj - f)) < 1e-10


@cache
def qrf_case(kind, size, j, hbar):
    """(frames, Pi) of the nparticle or su2 model on frames of ``size``
    (spin ``j``), or of particles on frames of 8, 6 and 8 points ("8-6-8"),
    or of frames of 4 and 8 points around a 3-level system ("4-3-8"),
    under C = sum_i p_i."""
    if kind in ("nparticle", "su2"):
        model = md.build_model(md.ModelSpec(kind, lattice_size=size, j=j,
                                            hbar=hbar))
        return list(model.frames.values()), model.Pi
    if kind == "8-6-8":
        factors = [ks.FactorSpec.frame(n, 1.0, lab)
                   for n, lab in zip((8, 6, 8), "ABC")]
    else:
        factors = [ks.FactorSpec.frame(4, 1.0, "A"),
                   ks.FactorSpec.system([0.0, 1.0, -1.0]),
                   ks.FactorSpec.frame(8, 1.0, "B")]
    space = ks.tensor_space(factors, hbar=hbar)
    Pi = ks.group_average(space, ks.build_constraint(space, {0: 1.0, 1: 1.0,
                                                             2: 1.0}))
    return [ro.OrientationFrame(space, i) for i, fac in enumerate(factors)
            if fac.is_frame], Pi


@settings(max_examples=40)
@given(kind=st.sampled_from(["nparticle", "su2", "8-6-8", "4-3-8"]),
       size=st.sampled_from([4, 6, 8]), j=st.integers(1, 2),
       hbar=st.sampled_from([1.0, 0.7]), pair=st.integers(0, 5),
       ja=st.integers(0, 15), jb=st.integers(0, 15),
       seed=st.integers(0, 2**32 - 1))
@example(kind="nparticle", size=16, j=1, hbar=0.7, pair=1, ja=11, jb=3,
         seed=7)
@example(kind="su2", size=8, j=2, hbar=1.0, pair=0, ja=5, jb=2, seed=11)
@example(kind="8-6-8", size=8, j=1, hbar=0.7, pair=2, ja=7, jb=4, seed=13)
@example(kind="4-3-8", size=8, j=1, hbar=1.0, pair=1, ja=6, jb=1, seed=17)
def test_conjugate_observable_is_the_dense_conjugation(kind, size, j, hbar,
                                                       pair, ja, jb, seed):
    # V f V^dag through V's maps against R f R^dag with R the unit-vector
    # reference of V; V^dag is the reverse change bit for bit; the reverse
    # change undoes V on the A-reduction of a physical state, in every
    # direction (also where V^dag V != 1); and where V^dag V = 1 (the
    # source frame at least as large as the target), V^dag (V f V^dag) V = f
    frames, Pi = qrf_case(kind, size, j, hbar)
    pairs = [(a, b) for a in frames for b in frames if a is not b]
    fa, fb = pairs[pair % len(pairs)]
    rho_a, rho_b = fa.grid[ja % fa.N], fb.grid[jb % fb.N]
    n_a, n_b = fa.space.dim // fa.N, fa.space.dim // fb.N
    rng = np.random.default_rng(seed)

    def sample(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    f = sample(n_a, n_a)
    f = f + f.conj().T
    v = rg.qrf_transform(fa, rho_a, fb, rho_b, Pi)
    back = rg.qrf_transform(fb, rho_b, fa, rho_a, Pi)
    R = unit_vector_reference(fa, rho_a, fb, rho_b, Pi)
    conj = rg.conjugate_observable(v, f)
    for X in (sample(n_b, 3), sample(n_b)):
        want = R @ (f @ (R.conj().T @ X))
        assert np.max(np.abs(conj.apply(X) - want)) \
            <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(v.apply_adjoint(X), back.apply(X))
    chi = rg.reduce_state(fa, rho_a, Pi.apply(sample(fa.space.dim)))
    assert np.max(np.abs(back.apply(v.apply(chi)) - chi)) \
        <= 1e-12 * np.max(np.abs(chi))
    if n_a <= n_b:
        x = sample(n_a, 3)
        assert np.max(np.abs(v.apply_adjoint(v.apply(x)) - x)) \
            <= 1e-12 * np.max(np.abs(x))
        want = f @ x
        assert np.max(np.abs(back.apply(conj.apply(v.apply(x))) - want)) \
            <= 1e-12 * np.max(np.abs(want))


class TestThetaGauge:
    def test_pi_theta_pi(self, model):
        fr = model.frames["A"]
        for j in (0, 3, 6):
            theta = rg.theta_gauge(fr, fr.grid[j])
            rep = rg.verify_gauge(theta, model.Pi)
            assert rep["valid"], rep

    def test_theta_identity_resolution(self, model):
        fr = model.frames["A"]
        acc = np.zeros((model.space.dim, model.space.dim), dtype=complex)
        for j in range(-4, 4):
            acc += rg.theta_gauge(fr, fr.grid[j + 4]).matrix
        assert np.max(np.abs(acc / 8 - np.eye(model.space.dim))) < 1e-10

    def test_theta_covariance(self, model):
        from scipy.linalg import expm

        fr = model.frames["A"]
        rho1, rho2 = fr.grid[2], fr.grid[5]
        t1 = rg.theta_gauge(fr, rho1).matrix
        t2 = rg.theta_gauge(fr, rho2).matrix
        u = expm(-1j * (rho2 - rho1) * model.constraint.matrix / model.hbar)
        assert np.max(np.abs(t2 - u @ t1 @ u.conj().T)) < 1e-9

    def test_system_projector_identities(self, model):
        fr = model.frames["A"]
        pi_hat = rg.system_projector(fr, model.Pi)
        P = model.Pi.matrix
        H = pi_hat.matrix
        # commensurate lattice frames are ideal: pi_hat is the identity
        assert np.max(np.abs(H - np.eye(model.space.dim))) < 1e-10
        theta = rg.theta_gauge(fr, fr.grid[3]).matrix
        assert np.max(np.abs(theta @ P @ theta - theta @ H)) < 1e-9
        assert np.max(np.abs(H @ P - P)) < 1e-10
        assert np.max(np.abs(P @ H - P)) < 1e-10

    def test_system_projector_dense_and_diagonal_pi(self):
        # unequal factor sizes with the frame in the middle, so a misplaced
        # frame slot cannot go unnoticed
        space = ks.tensor_space([ks.FactorSpec.frame(4, 1.0, "A"),
                                 ks.FactorSpec.frame(8, 1.0, "B"),
                                 ks.FactorSpec.system([0.0, 1.0, -1.0])])
        fr = ro.OrientationFrame(space, 1)
        rng = np.random.default_rng(101)
        d = rng.normal(size=96)
        v = ro.orientation_state_at(fr, fr.grid[0])
        R = np.kron(np.kron(np.eye(4), v.conj()[None, :]), np.eye(3))
        block = (R @ np.diag(d) @ R.conj().T).reshape(4, 3, 4, 3)
        expected = np.einsum("kl,ijmn->ikjmln", np.eye(8),
                             block).reshape(96, 96)
        from_diag = rg.system_projector(
            fr, ks.KinOperator.from_diag(space, d))
        assert from_diag.is_diagonal
        assert np.max(np.abs(from_diag.matrix - expected)) < 1e-12
        P = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        for dense in (P, np.diag(d)):
            with pytest.raises(UnsupportedForm):
                rg.system_projector(fr, ks.KinOperator.from_matrix(space,
                                                                   dense))

    def test_composite_gauge_is_gauge(self, model):
        rng = np.random.default_rng(67)
        fr = model.frames["A"]
        theta = rg.theta_gauge(fr, fr.grid[4])
        # hermitian Dirac observables commuting with C: functions of momenta
        o1 = np.diag(rng.normal(size=model.space.dim))
        o1 = model.Pi.matrix @ o1 @ model.Pi.matrix  # supported on the kernel
        o2 = np.diag(rng.normal(size=model.space.dim))
        o2 = model.Pi.matrix @ o2 @ model.Pi.matrix
        comp = rg.composite_gauge(theta,
                                  ks.KinOperator.from_matrix(model.space, o1),
                                  ks.KinOperator.from_matrix(model.space, o2),
                                  model.constraint)
        rep = rg.verify_gauge(comp, model.Pi)
        assert rep["valid"], rep

    def test_composite_gauge_with_nonzero_exponents(self, model):
        # O1 C != 0: O1 is a non-diagonal Dirac observable (the twirl of a
        # hermitian on one factor), so its exponential takes the Taylor
        # steps, and O2 an unprojected diagonal, a phase
        rng = np.random.default_rng(239)
        sp, C = model.space, model.constraint
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        o1 = ro.g_twirl(sp, C, ks.factor_operator(sp, 2, (m + m.conj().T) / 4))
        o2 = ks.KinOperator.from_diag(sp, rng.normal(size=sp.dim))
        assert not o1.is_diagonal
        fr = model.frames["A"]
        theta = rg.theta_gauge(fr, fr.grid[4])
        comp = rg.composite_gauge(theta, o1, o2, C)
        ref = (expm(1j * o1.matrix @ C.matrix) @ theta.matrix
               @ expm(1j * o2.matrix @ C.matrix))
        assert np.max(np.abs(comp.matrix - ref)) < 1e-12
        assert np.max(np.abs(ref - theta.matrix)) > 0.5  # not Theta itself
        rep = rg.verify_gauge(comp, model.Pi)
        assert rep["valid"], rep

    def test_zero_map_invalid(self, model):
        zero = ks.KinOperator.from_matrix(
            model.space, np.zeros((model.space.dim, model.space.dim)))
        rep = rg.verify_gauge(zero, model.Pi)
        assert not rep["valid"]
        assert rep["pi_phi_pi"] >= 1.0 - 1e-12


class TestGaugeStateOperations:
    def frame_omega(self, model, label, rho, psi, degree=5):
        return ast.frame_state(model.space, model.constraint,
                               model.frames[label], rho, psi,
                               model.assignment, model.gens, degree)

    def test_gauge_transform_matches_direct_conditioning(self, model, psi):
        fr_b = model.frames["B"]
        rho_a, rho_b = model.frames["A"].grid[4], fr_b.grid[5]
        om_a = self.frame_omega(model, "A", rho_a, psi)
        om_b_direct = self.frame_omega(model, "B", rho_b, psi)
        theta_b = rg.theta_gauge(fr_b, rho_b)
        om_b = rg.gauge_transform_state(om_a, theta_b, model.Pi)
        g = model.gens
        assert abs(om_b.evaluate(g.one()) - 1.0) < 1e-10
        for el in (g.gen("q_A"), g.gen("p_A"), g.gen("q_C") * g.gen("p_C")):
            assert abs(om_b.evaluate(el) - om_b_direct.evaluate(el)) < 1e-9

    def test_dirac_values_invariant(self, model, psi):
        om_a = self.frame_omega(model, "A", 0.0, psi)
        theta_b = rg.theta_gauge(model.frames["B"], model.frames["B"].grid[2])
        om_b = rg.gauge_transform_state(om_a, theta_b, model.Pi)
        g = model.gens
        for name in ("p_A", "p_B", "p_C"):
            assert abs(om_a.evaluate(g.gen(name))
                       - om_b.evaluate(g.gen(name))) < 1e-10

    def test_idempotent_on_own_gauge(self, model, psi):
        rho = model.frames["A"].grid[4]
        om_a = self.frame_omega(model, "A", rho, psi)
        theta_a = rg.theta_gauge(model.frames["A"], rho)
        om2 = rg.gauge_transform_state(om_a, theta_a, model.Pi)
        g = model.gens
        for el in (g.gen("q_B"), g.gen("p_B"), g.gen("q_C")):
            assert abs(om2.evaluate(el) - om_a.evaluate(el)) < 1e-10


class TestGaugeFlow:
    def frame_omega(self, model, label, rho, psi, degree=5):
        return ast.frame_state(model.space, model.constraint,
                               model.frames[label], rho, psi,
                               model.assignment, model.gens, degree)

    def test_identity_flow_trivial_on_dirac(self, model, psi):
        om = self.frame_omega(model, "A", 0.0, psi)
        one = ks.identity_operator(model.space)
        flowed = rg.gauge_flow(om, one, 0.7, model.constraint)
        g = model.gens
        for name in ("p_A", "p_B", "p_C"):
            assert abs(flowed.evaluate(g.gen(name))
                       - om.evaluate(g.gen(name))) < 1e-10

    def test_finite_difference_derivative(self, model, psi):
        rng = np.random.default_rng(71)
        om = self.frame_omega(model, "A", 0.0, psi, degree=6)
        m = rng.normal(size=(8, 8))
        a = ks.factor_operator(model.space, 2, (m + m.T) / 2)
        g = model.gens
        b = g.gen("q_C") * g.gen("p_C")
        b_mat = represent(b, model.space, model.assignment)
        eps = 1e-5
        om_p = rg.gauge_flow(om, a, +eps, model.constraint)
        om_m = rg.gauge_flow(om, a, -eps, model.constraint)
        fd = (om_p.evaluate(b) - om_m.evaluate(b)) / (2 * eps)
        X = a.matrix @ model.constraint.matrix
        comm = b_mat @ X - X @ b_mat
        expected = np.vdot(om.bra, comm @ om.ket) / (1j * model.hbar)
        assert abs(fd - expected) / max(abs(expected), 1.0) < 1e-6

    def test_unit_flow_shifts_frame_reading(self):
        # flow by a = 1 advances the frame orientation reading by lam
        model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                            lattice_size=32))
        psi = md.gaussian_physical_state(
            model, centers_x={0: 0.0, 1: 0.3, 2: -0.3},
            sigmas={1: 1.7, 2: 1.7})
        rho = model.frames["A"].grid[16]
        om = ast.frame_state(model.space, model.constraint,
                             model.frames["A"], rho, psi,
                             model.assignment, model.gens, 4)
        lam = model.frames["A"].spacing * 3
        flowed = rg.gauge_flow(om, ks.identity_operator(model.space), lam,
                               model.constraint)
        g = model.gens
        before = om.evaluate(g.gen("q_A"))
        after = flowed.evaluate(g.gen("q_A"))
        assert abs(after - before - lam) < 1e-8

    def test_ill_conditioned_flow_rejected(self, model, psi):
        # a diagonal a C is bounded on the real part of i lam a C / hbar:
        # an imaginary a makes it -1000 C, far past MAX_EXPONENT
        om = self.frame_omega(model, "A", 0.0, psi)
        big = ks.factor_operator(model.space, 2,
                                 100.0j * np.eye(8))
        with pytest.raises(IllConditionedFlow):
            rg.gauge_flow(om, big, 10.0, model.constraint)

    def test_phase_flow_is_not_refused(self):
        # C = p_R^2 - G_S reaches 64: |s| ||C||_2 = 3 dr 64 = 75 > 50, yet
        # exp(i lam C / hbar) is a phase that cannot overflow
        model = md.build_model(md.ModelSpec("degenerate", lattice_size=16,
                                            levels=(0, 1, 2)))
        fr = model.frames["R"]
        psi = md.random_physical_state(model, np.random.default_rng(233))
        om = self.frame_omega(model, "R", fr.grid[6], psi, degree=4)
        lam = 3 * fr.spacing
        C = model.constraint
        assert lam * np.max(np.abs(C.diag)) / model.hbar > ks.MAX_EXPONENT
        flowed = rg.gauge_flow(om, ks.identity_operator(model.space), lam, C)
        ref = expm(1j * lam * C.matrix / model.hbar).conj().T @ om.bra
        assert np.max(np.abs(flowed.bra - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_ill_conditioned_general_flow_rejected(self, model, psi):
        # non-diagonal a: the guard runs on the estimated ||aC||_2
        om = self.frame_omega(model, "A", 0.0, psi)
        m = np.random.default_rng(79).normal(size=(8, 8))
        a = ks.factor_operator(model.space, 2, (m + m.T) / 2)
        assert not a.is_diagonal
        X = a.matrix @ model.constraint.matrix
        # lam with lam ||X||_2 / hbar at MAX_EXPONENT / 0.99 and / 1.01
        lam = ks.MAX_EXPONENT * model.hbar / np.linalg.norm(X, 2)
        with pytest.raises(IllConditionedFlow):
            rg.gauge_flow(om, a, lam / 0.99, model.constraint)
        rg.gauge_flow(om, a, lam / 1.01, model.constraint)
        with pytest.raises(IllConditionedFlow):
            rg.gauge_flow(om, 100.0 * a, 10.0, model.constraint)

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "general",
                                      "dense"])
    def test_matches_dense_exponential(self, kind):
        # the dense formula the flow replaced, where it is still affordable
        model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                            lattice_size=8, hbar=0.7))
        assert model.space.dim == 512
        rng = np.random.default_rng(83)
        psi = md.random_physical_state(model, rng, unwrapped=False)
        om = self.frame_omega(model, "A", model.frames["A"].grid[2], psi)
        # complex, non-hermitian a, so the adjoint in the flow is exercised
        if kind == "identity":
            a = ks.identity_operator(model.space)
        elif kind == "diagonal":
            a = ks.factor_operator(model.space, 1, rng.normal(size=8)
                                   + 1j * rng.normal(size=8))
        elif kind == "general":
            a = ks.factor_operator(model.space, 2, rng.normal(size=(8, 8))
                                   + 1j * rng.normal(size=(8, 8)))
        else:
            d = model.space.dim
            a = ks.KinOperator.from_matrix(
                model.space, (rng.normal(size=(d, d))
                              + 1j * rng.normal(size=(d, d))) / np.sqrt(d))
        assert a.is_diagonal == (kind in ("identity", "diagonal"))
        # a dense a makes a @ C composed, so the Taylor steps take it
        lam = -0.37
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flowed = rg.gauge_flow(om, a, lam, model.constraint)
        X = a.matrix @ model.constraint.matrix
        expected = expm(1j * lam * X / model.hbar).conj().T @ om.bra
        assert np.max(np.abs(flowed.bra - expected)) < 1e-12


def _relational(form):
    return lambda model, om, C: ro.relational_observable(
        model.space, C, model.frames["A"], 0.0, model.assignment["q_C"],
        form=form, Pi=model.Pi)


# each function that reads a constraint, G_S or Pi, given ``op`` in its place
GUARDED_CALLS = {
    "group_average": lambda model, om, op: ks.group_average(model.space, op),
    "g_twirl": lambda model, om, op: ro.g_twirl(model.space, op, model.Pi),
    "relational_observable.kinematical": _relational("kinematical"),
    "relational_observable.closed": _relational("closed"),
    "relational_observable.physical": _relational("physical"),
    "factorize_constraint": lambda model, om, op: ks.factorize_constraint(
        model.space, 0, op),
    "system_projector": lambda model, om, op: rg.system_projector(
        model.frames["A"], op),
    "gauge_flow": lambda model, om, op: rg.gauge_flow(
        om, ks.identity_operator(model.space), 0.1, op),
    # O1 and O2 are never read: the constraint is refused first
    "composite_gauge": lambda model, om, op: rg.composite_gauge(
        model.Pi, None, None, op),
}


class TestLargeLattice:
    """At D = 32768 a dense D x D operator would need 16 GiB; none is built."""

    @pytest.fixture(scope="class")
    def big(self):
        model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                            lattice_size=32))
        assert model.space.dim == 32768
        psi = md.gaussian_physical_state(
            model, centers_x={0: 0.0, 1: 0.3, 2: -0.3},
            sigmas={1: 1.7, 2: 1.7})
        return model, psi

    def test_theta_gauge_matches_reduce_and_embed(self, big):
        model, psi = big
        fr = model.frames["B"]
        rho = fr.grid[13]
        theta = rg.theta_gauge(fr, rho)
        lhs = model.Pi.apply(theta.apply(psi))
        rhs = rg.embed_state(fr, rho, rg.reduce_state(fr, rho, psi), model.Pi)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        assert np.max(np.abs(lhs - psi)) < 1e-10

    @pytest.mark.parametrize("kind", ["factor", "orientation", "effect"])
    def test_single_factor_operators_match_apply_factor(self, big, kind):
        model, psi = big
        space = model.space
        fr = model.frames["C"]
        F = fr.fourier_matrix()
        rng = np.random.default_rng(97)
        if kind == "factor":
            mat = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
            op = ks.factor_operator(space, 2, mat)
        elif kind == "orientation":
            mat = (F * fr.grid) @ F.conj().T / fr.N
            op = ro.orientation_operator(fr)
        else:
            X = range(-3, 5)
            sel = np.isin(np.arange(-16, 16), X)
            mat = (F * sel) @ F.conj().T / fr.N
            op = ro.effect_operator(fr, X)
        assert not op.is_diagonal
        v = psi + 1j * rng.normal(size=space.dim)
        assert np.max(np.abs(op.apply(v) - space.apply_factor(2, mat, v))) \
            < 1e-12
        assert np.max(np.abs(op.apply_adjoint(v) - space.apply_factor(
            2, mat.conj().T, v))) < 1e-12

    def test_system_projector_is_diagonal_identity(self, big):
        model, psi = big
        pi_hat = rg.system_projector(model.frames["A"], model.Pi)
        assert pi_hat.is_diagonal
        assert np.max(np.abs(pi_hat.apply(psi) - psi)) < 1e-10

    @pytest.mark.parametrize("bad", ["composed", "non-hermitian"])
    @pytest.mark.parametrize("call", sorted(GUARDED_CALLS))
    def test_unsupported_form_raises_without_a_dense_form(self, big, call,
                                                          bad, monkeypatch):
        model, psi = big
        sp = model.space
        if bad == "composed":
            # hermitian, off frame A, and not stored diagonal
            m = np.random.default_rng(233).normal(size=(32, 32))
            op = ks.generator_operator(sp, 2) + ks.factor_operator(
                sp, 2, m + m.T)
            assert op.kind == "+"
        else:
            op = ks.KinOperator.from_diag(sp, 1j * np.ones(sp.dim))
        om = ast.from_hilbert(psi, psi, sp, model.assignment, model.gens, 2)

        def dense(*args):
            raise AssertionError("a dense D x D form was read")

        monkeypatch.setattr(ks.KinOperator, "matrix", property(dense))
        monkeypatch.setattr(ks.LatticeSpace, "embed_matrix", dense)
        with pytest.raises(UnsupportedForm):
            GUARDED_CALLS[call](model, om, op)

    def test_gauge_transform_keeps_dirac_values(self, big):
        model, psi = big
        rho_a = model.frames["A"].grid[16]
        om_a = ast.frame_state(model.space, model.constraint,
                               model.frames["A"], rho_a, psi,
                               model.assignment, model.gens, 2)
        fr_b = model.frames["B"]
        om_b = rg.gauge_transform_state(om_a, rg.theta_gauge(fr_b,
                                                             fr_b.grid[15]),
                                        model.Pi)
        g = model.gens
        for el in (g.one(), g.gen("p_A"), g.gen("p_B"), g.gen("p_C")):
            assert abs(om_b.evaluate(el) - om_a.evaluate(el)) < 1e-10

    def test_qrf_transform_on_probes(self, big):
        model, psi = big
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        rho_a, rho_b = fr_a.grid[16], fr_b.grid[15]
        v_ab = rg.qrf_transform(fr_a, rho_a, fr_b, rho_b, model.Pi)
        v_ba = rg.qrf_transform(fr_b, rho_b, fr_a, rho_a, model.Pi)
        red_a = rg.reduce_state(fr_a, rho_a, psi, C=model.constraint)
        red_b = rg.reduce_state(fr_b, rho_b, psi)
        assert np.max(np.abs(v_ab.apply(red_a) - red_b)) < 1e-10
        rng = np.random.default_rng(151)
        x = rng.normal(size=(32 * 32, 3)) + 1j * rng.normal(size=(32 * 32, 3))
        assert np.max(np.abs(v_ba.apply(v_ab.apply(x)) - x)) < 1e-10

    def test_conjugate_observable_reads_no_dense_form(self, big,
                                                      monkeypatch):
        # V f V^dag built and applied to one vector through V's maps: no
        # KinOperator.matrix or embed_matrix read, and a tracemalloc peak
        # of at most 4 MiB (an n_B x n_A form of V alone is 16 MiB)
        model, psi = big
        fr_a, fr_b = model.frames["A"], model.frames["B"]
        rho_a, rho_b = fr_a.grid[16], fr_b.grid[15]
        rng = np.random.default_rng(163)
        m = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        f = np.kron(np.eye(32), m + m.conj().T)  # on C, of the A-reduced (B, C)
        v = rg.qrf_transform(fr_a, rho_a, fr_b, rho_b, model.Pi)
        red = rg.reduce_state(fr_a, rho_a, psi)
        moved, want = v.apply(red), v.apply(f @ red)

        def dense(*args):
            raise AssertionError("a dense D x D form was read")

        monkeypatch.setattr(ks.KinOperator, "matrix", property(dense))
        monkeypatch.setattr(ks.LatticeSpace, "embed_matrix", dense)
        tracemalloc.start()
        try:
            got = rg.conjugate_observable(v, f).apply(moved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert np.max(np.abs(got - want)) < 1e-10

    def test_composite_gauge_in_a_fresh_interpreter(self):
        """Under a 3 GB address-space limit the composite gauge with
        unprojected diagonal O1, O2 is a gauge, and transforming a state by
        it keeps the Dirac values (a D x D complex array is 16 GiB)."""
        code = """if True:
            import json, resource
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            limit = 3_000_000 * 1024
            if hard != resource.RLIM_INFINITY:
                limit = min(limit, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
            import numpy as np
            from qrfkit import algstates as ast, kinspace as ks, models as md
            from qrfkit import reduction_gauge as rg
            model = md.build_model(md.ModelSpec("nparticle", n_particles=3,
                                                lattice_size=32))
            sp, g = model.space, model.gens
            psi = md.gaussian_physical_state(
                model, centers_x={0: 0.0, 1: 0.3, 2: -0.3},
                sigmas={1: 1.7, 2: 1.7})
            rng = np.random.default_rng(241)
            o1, o2 = (ks.KinOperator.from_diag(sp, rng.normal(size=sp.dim) / 8)
                      for _ in range(2))
            fa, fb = model.frames["A"], model.frames["B"]
            comp = rg.composite_gauge(rg.theta_gauge(fb, fb.grid[15]), o1, o2,
                                      model.constraint)
            rep = rg.verify_gauge(comp, model.Pi)
            om_a = ast.frame_state(sp, model.constraint, fa, fa.grid[16], psi,
                                   model.assignment, g, 2)
            om_b = rg.gauge_transform_state(om_a, comp, model.Pi)
            drift = max(abs(om_b.evaluate(el) - om_a.evaluate(el))
                        for el in (g.one(), g.gen("p_A"), g.gen("p_B"),
                                   g.gen("p_C")))
            print(json.dumps({"dim": sp.dim, "rep": rep, "drift": drift}))
        """
        out = json.loads(run_fresh(code).splitlines()[-1])
        assert out["dim"] == 32768
        assert out["rep"]["valid"], out
        assert out["drift"] < 1e-10, out

    def test_verify_gauge(self, big):
        model, _ = big
        fr = model.frames["B"]
        rep = rg.verify_gauge(rg.theta_gauge(fr, fr.grid[13]), model.Pi)
        assert rep["valid"], rep
        assert rep["pi_phi_pi"] < 1e-10 and rep["phi_pi_phi"] < 1e-10

    def test_verify_assignment_on_a_gaussian_state(self, big):
        model, psi = big
        report = ast.verify_assignment(model.gens, model.space,
                                       model.assignment, test_states=[psi])
        assert set(report) == {(f"q_{lab}", f"p_{lab}") for lab in "ABC"}
        assert all(np.isfinite(v) for v in report.values())


def test_frame_paths_read_no_dense_form(model, psi, monkeypatch):
    """Conditioning, the QRF change, the closed form with a factor-local f_S
    and the system projector with a diagonal Pi never build a D x D form."""
    rng = np.random.default_rng(157)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    f_s = ks.factor_operator(model.space, 2, m + m.conj().T)
    assert not f_s.is_diagonal and model.Pi.is_diagonal

    def dense(*args):
        raise AssertionError("a dense D x D form was read")

    monkeypatch.setattr(ks.KinOperator, "matrix", property(dense))
    monkeypatch.setattr(ks.LatticeSpace, "embed_matrix", dense)
    fr_a, fr_b = model.frames["A"], model.frames["B"]
    rho_a, rho_b = fr_a.grid[4], fr_b.grid[5]
    red = rg.reduce_state(fr_a, rho_a, psi, C=model.constraint)
    back = rg.embed_state(fr_a, rho_a, red, model.Pi)
    assert np.max(np.abs(back - psi)) < 1e-10
    v = rg.qrf_transform(fr_a, rho_a, fr_b, rho_b, model.Pi)
    moved = v.apply(red)
    obs = rg.conjugate_observable(v, np.kron(np.eye(8), m))
    assert np.max(np.abs(obs.apply(moved)
                         - v.apply(np.kron(np.eye(8), m) @ red))) < 1e-10
    closed = ro.relational_observable(model.space, model.constraint, fr_a,
                                      rho_a, f_s, form="closed")
    f_red = ks.factor_operator(ks.reduced_space(model.space, fr_a.factor), 1,
                               m + m.conj().T)
    assert abs(np.vdot(psi, closed.apply(psi))
               - np.vdot(red, f_red.apply(red))) < 1e-10
    pi_hat = rg.system_projector(fr_a, model.Pi)
    assert np.max(np.abs(pi_hat.apply(psi) - psi)) < 1e-10


def test_gauge_and_assignment_checks_read_no_dense_form(model, psi,
                                                        monkeypatch):
    """verify_gauge with a diagonal Pi and verify_assignment on test states
    read the operators only through ``apply``."""
    assert model.Pi.is_diagonal

    def dense(*args):
        raise AssertionError("a dense D x D form was read")

    monkeypatch.setattr(ks.KinOperator, "matrix", property(dense))
    monkeypatch.setattr(ks.LatticeSpace, "embed_matrix", dense)
    fr = model.frames["A"]
    rep = rg.verify_gauge(rg.theta_gauge(fr, fr.grid[3]), model.Pi)
    assert rep["valid"], rep
    report = ast.verify_assignment(model.gens, model.space,
                                   model.assignment, test_states=[psi])
    assert len(report) == 3
    assert all(np.isfinite(v) for v in report.values())


TRACE_FORMS = ["diag", "local0", "local2", "dense", "product", "sum"]


@pytest.mark.parametrize("right", TRACE_FORMS)
@pytest.mark.parametrize("left", TRACE_FORMS)
def test_trace_of_product_matches_einsum(left, right):
    # tr(ab) of any two stored forms, from the diagonal of the composed
    # product; unequal factor sizes, so a misplaced factor slot shows
    space = ks.tensor_space([ks.FactorSpec.system([0.0, 1.0, -1.0]),
                             ks.FactorSpec.frame(6, 1.0, "R"),
                             ks.FactorSpec.system([0.0, 1.0, 2.0, -1.0])])
    rng = np.random.default_rng(229)

    def sample(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def make(form):
        if form == "diag":
            return ks.KinOperator.from_diag(space, sample(space.dim))
        if form.startswith("local"):
            k = int(form[-1])
            n = space.dims[k]
            return ks.factor_operator(space, k, sample(n, n))
        if form == "dense":
            return ks.KinOperator.from_matrix(space,
                                              sample(space.dim, space.dim))
        a, b = make("local0"), make("local2")
        return a @ make("diag") @ b if form == "product" else a + b

    a, b = make(left), make(right)
    ref = np.einsum("ij,ji->", a.matrix, b.matrix)
    tol = 1e-12 * max(1.0, abs(ref))
    assert abs(np.sum((a @ b).diagonal()) - ref) <= tol
    if b.is_diagonal:
        # tr(aC) for a diagonal C: one dot product with a's diagonal
        assert abs(np.dot(a.diagonal(), b.diag) - ref) <= tol
