from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import cyclic_group, on_lattice_oracle, support_oracle
from qrfkit import algstates as ast
from qrfkit import kinspace as ks
from qrfkit import models as md
from qrfkit import ncalg
from qrfkit import reduction_gauge as rg
from qrfkit import relobs as ro
from qrfkit.errors import (
    ConfigError,
    DenseBudgetExceeded,
    EmptyKernel,
    IllConditionedFlow,
    IncommensurableSpectrum,
    IndexOutOfRange,
    NegativeGenerator,
    NotAFrameFactor,
    NotPhysical,
    QRFError,
    UnsupportedForm,
    UnsupportedSupport,
)


def two_frame_space(N=8, dp=1.0, hbar=1.0):
    return ks.tensor_space(
        [ks.FactorSpec.frame(N, dp, "A"), ks.FactorSpec.frame(N, dp, "B")],
        hbar=hbar)


def test_tensor_space_dims():
    sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0),
                          ks.FactorSpec.system([0.0, 1.0, -1.0])])
    assert sp.dim == 24
    assert two_frame_space().dim == 64


def test_incommensurable_spectrum_rejected():
    with pytest.raises(IncommensurableSpectrum):
        ks.tensor_space([ks.FactorSpec.frame(8, 1.0),
                         ks.FactorSpec.system([0.5])])


def test_mixed_frame_spacings_rejected():
    with pytest.raises(IncommensurableSpectrum):
        ks.tensor_space([ks.FactorSpec.frame(8, 1.0),
                         ks.FactorSpec.frame(8, 2.0)])


def test_momentum_diagonal_values():
    sp = ks.tensor_space([ks.FactorSpec.frame(4, 1.0)])
    p = ks.momentum_operator(sp, 0)
    assert np.allclose(p.diag.real, [-2, -1, 0, 1])
    assert p.hermitian


def test_momentum_rejects_system_factor():
    sp = ks.tensor_space([ks.FactorSpec.frame(4, 1.0),
                          ks.FactorSpec.system([0.0, 1.0])])
    with pytest.raises(NotAFrameFactor):
        ks.momentum_operator(sp, 1)


def test_constraint_needs_a_frame():
    sp = ks.tensor_space([ks.FactorSpec.system([0.0, 1.0])])
    with pytest.raises(NotAFrameFactor):
        ks.build_constraint(sp, {0: 1.0})


def test_disjoint_support_commutes():
    rng = np.random.default_rng(7)
    sp = ks.tensor_space([ks.FactorSpec.frame(4, 1.0),
                          ks.FactorSpec.system([0.0, 1.0, 2.0])])
    p = ks.momentum_operator(sp, 0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    f = ks.factor_operator(sp, 1, m)
    comm = p @ f - f @ p
    assert np.max(np.abs(comm.matrix)) < 1e-12


def test_momentum_generates_orientation_shifts():
    # exp(-i rho p/hbar)|rho'> = |rho'+rho> for grid shifts, N=8
    from qrfkit.relobs import OrientationFrame, orientation_state

    sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0)])
    fr = OrientationFrame(sp, 0)
    p = ks.momentum_operator(sp, 0)
    dr = fr.spacing
    for j in (-2, 0, 3):
        for shift in (1, 2, -3):
            u = expm(-1j * shift * dr * p.matrix / sp.hbar)
            lhs = u @ orientation_state(fr, j)
            jj = ((j + shift + 4) % 8) - 4
            assert np.allclose(lhs, orientation_state(fr, jj), atol=1e-12)


class TestBuildConstraint:
    def test_two_frame_kernel_dimension(self):
        sp = two_frame_space()
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0})
        Pi = ks.group_average(sp, C)
        # p_A + p_B = 0 on the cyclic lattice: one partner per momentum value
        assert int(round(np.sum(Pi.diag.real))) == 8

    def test_single_factor_kernel_is_zero_eigenspace(self):
        sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0)])
        C = ks.build_constraint(sp, {0: 1.0})
        Pi = ks.group_average(sp, C)
        expected = np.zeros(8)
        expected[4] = 1.0  # k = 0 sits at index N/2
        assert np.allclose(Pi.diag.real, expected)

    def test_newtonian_form(self):
        # C = p_C + p_S^2/2 with the system spectrum declared on the lattice
        dp = 2.0
        m = np.arange(-4, 4) * dp
        sp = ks.tensor_space([ks.FactorSpec.frame(16, dp, "C"),
                              ks.FactorSpec.system(m * m / 2.0, name="S")])
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0})
        assert C.hermitian
        Pi = ks.group_average(sp, C)
        # every system level finds exactly one clock momentum partner
        assert int(round(np.sum(Pi.diag.real))) == 8

    def test_off_lattice_coefficient_rejected(self):
        sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0)])
        with pytest.raises(IncommensurableSpectrum):
            ks.build_constraint(sp, {0: 0.5})

    def test_zero_not_in_spectrum_flag(self):
        sp = ks.tensor_space([ks.FactorSpec.frame(4, 1.0)])
        C = ks.build_constraint(sp, {0: np.array([1.0, 1.0, 1.0, 1.0])})
        assert C.warnings


class TestGroupAverage:
    def test_projector_identities(self):
        sp = two_frame_space()
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0})
        Pi = ks.group_average(sp, C)
        P = Pi.matrix
        assert np.max(np.abs(P @ P - P)) < 1e-12
        assert np.max(np.abs(P - P.conj().T)) < 1e-12
        assert np.max(np.abs(C.matrix @ P)) < 1e-12
        assert np.max(np.abs(P @ C.matrix)) < 1e-12

    def test_cyclic_group_oracle(self):
        sp = two_frame_space()
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0})
        Pi = ks.group_average(sp, C)
        _, order, step = cyclic_group(C)
        acc = np.zeros((sp.dim, sp.dim), dtype=complex)
        for j in range(order):
            acc += expm(1j * j * step * C.matrix / sp.hbar)
        acc /= order
        assert np.max(np.abs(acc - Pi.matrix)) < 1e-10

    def test_kernel_state_fixed(self):
        sp = two_frame_space()
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0})
        Pi = ks.group_average(sp, C)
        rng = np.random.default_rng(3)
        psi = ks.project_physical(Pi, rng.normal(size=sp.dim)
                                  + 1j * rng.normal(size=sp.dim))
        assert np.allclose(Pi.apply(psi), psi, atol=1e-12)

    def test_near_kernel_eigenvalue_is_noted(self):
        # 1e-7 is above the kernel threshold (1e-9) but within 1e-6
        sp = two_frame_space()
        c = np.ones(sp.dim)
        c[:2] = 0.0, 1e-7
        Pi = ks.group_average(sp, ks.KinOperator.from_diag(sp, c))
        assert np.array_equal(np.flatnonzero(Pi.diag), [0])
        assert len(Pi.warnings) == 1 and "near-zero" in Pi.warnings[0]
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0})
        assert ks.group_average(sp, C).warnings == ()

    def test_empty_kernel(self):
        sp = ks.tensor_space([ks.FactorSpec.frame(4, 1.0)])
        C = ks.build_constraint(sp, {0: np.full(4, 1.0)})
        with pytest.raises(EmptyKernel):
            ks.group_average(sp, C)

    def test_non_hermitian_diagonal_constraint_rejected(self):
        # C = i 1 has a trivial kernel; its real part, 0, would give the
        # identity as the kernel projector
        sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0)])
        with pytest.raises(UnsupportedForm):
            ks.group_average(sp, ks.KinOperator.from_diag(
                sp, 1j * np.ones(sp.dim)))


class TestPhysicalInnerProduct:
    def setup_method(self):
        self.sp = two_frame_space()
        self.C = ks.build_constraint(self.sp, {0: 1.0, 1: 1.0})
        self.Pi = ks.group_average(self.sp, self.C)
        self.rng = np.random.default_rng(11)

    def test_normalized_kernel_state(self):
        psi = ks.project_physical(self.Pi, self.rng.normal(size=self.sp.dim))
        ip = ks.physical_inner_product(self.sp, self.Pi, psi, psi)
        assert abs(ip - 1.0) < 1e-12

    def test_orthogonal_complement_gives_zero(self):
        psi = self.rng.normal(size=self.sp.dim) + 0j
        psi -= self.Pi.apply(psi)  # now orthogonal to ker(C)
        phi = self.rng.normal(size=self.sp.dim) + 0j
        assert abs(ks.physical_inner_product(self.sp, self.Pi, psi, phi)) < 1e-12

    def test_gauge_invariance(self):
        psi = self.rng.normal(size=self.sp.dim) + 1j * self.rng.normal(size=self.sp.dim)
        phi = self.rng.normal(size=self.sp.dim) + 1j * self.rng.normal(size=self.sp.dim)
        base = ks.physical_inner_product(self.sp, self.Pi, psi, phi)
        for s in self.rng.uniform(-5, 5, size=10):
            u = expm(1j * s * self.C.matrix / self.sp.hbar)
            val = ks.physical_inner_product(self.sp, self.Pi, psi, u @ phi)
            assert abs(val - base) < 1e-10


class TestSectorsAndFactorization:
    def degenerate_space(self, N=8):
        return ks.tensor_space([ks.FactorSpec.frame(N, 1.0, "R"),
                                ks.FactorSpec.system([1.0, 4.0, 9.0], name="S")])

    def test_sector_ranks_and_orthogonality(self):
        sp = ks.tensor_space([ks.FactorSpec.frame(4, 1.0),
                              ks.FactorSpec.system([0.0, 1.0])])
        plus, minus = ks.sector_projectors(sp, 0)
        assert int(round(np.sum(plus.diag.real))) == 2 * 2
        assert int(round(np.sum(minus.diag.real))) == 2 * 2
        assert np.max(np.abs((plus @ minus).diag)) < 1e-12
        assert np.allclose((plus + minus).diag, 1.0)

    def test_sectors_commute_with_degenerate_constraint(self):
        sp = self.degenerate_space()
        p = ks.momentum_operator(sp, 0)
        g = ks.generator_operator(sp, 1)
        C = p @ p - g
        plus, minus = ks.sector_projectors(sp, 0)
        for proj in (plus, minus):
            comm = proj @ C - C @ proj
            assert np.max(np.abs(comm.diag)) < 1e-12

    def test_scalar_square_root(self):
        sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0),
                              ks.FactorSpec.system([4.0, 4.0], name="S")])
        g = ks.generator_operator(sp, 1)
        cp, cm = ks.factorize_constraint(sp, 0, g)
        p = ks.momentum_operator(sp, 0)
        assert np.allclose(cp.diag, (p.diag + 2.0))
        assert np.allclose(cm.diag, (p.diag - 2.0))

    def test_product_reproduces_constraint(self):
        rng = np.random.default_rng(5)
        sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0),
                              ks.FactorSpec.system(
                                  rng.choice([0.0, 1.0, 4.0, 9.0], size=5))])
        g = ks.generator_operator(sp, 1)
        p = ks.momentum_operator(sp, 0)
        C = p @ p - g
        cp, cm = ks.factorize_constraint(sp, 0, g)
        assert np.max(np.abs((cp @ cm).diag - C.diag)) < 1e-12
        comm = cp @ cm - cm @ cp
        assert np.max(np.abs(comm.diag)) < 1e-12

    def test_negative_generator_rejected(self):
        sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0),
                              ks.FactorSpec.system([-1.0, 1.0])])
        g = ks.generator_operator(sp, 1)
        with pytest.raises(NegativeGenerator):
            ks.factorize_constraint(sp, 0, g)

    def test_non_hermitian_generator_rejected(self):
        # the real part of G_S = (4 + 3i) 1 would give p +- 2
        sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0),
                              ks.FactorSpec.system([4.0, 4.0], name="S")])
        g = ks.KinOperator.from_diag(sp, (4.0 + 3.0j) * np.ones(sp.dim))
        with pytest.raises(UnsupportedForm):
            ks.factorize_constraint(sp, 0, g)

    def test_dense_generator_on_the_frame_rejected(self):
        sp = self.degenerate_space()
        p = ks.momentum_operator(sp, 0)
        g = ks.generator_operator(sp, 1)
        with pytest.raises(UnsupportedSupport):
            ks.factorize_constraint(
                sp, 0, ks.KinOperator.from_matrix(sp, (g + p @ p).matrix))

    def test_kernel_splits_into_sector_factor_kernels(self):
        sp = self.degenerate_space()
        p = ks.momentum_operator(sp, 0)
        g = ks.generator_operator(sp, 1)
        C = p @ p - g
        cp, cm = ks.factorize_constraint(sp, 0, g)
        plus, minus = ks.sector_projectors(sp, 0)
        ker_c = set(np.flatnonzero(np.abs(C.diag) < 1e-9))
        ker_minus_plus = set(np.flatnonzero(
            (np.abs(cm.diag) < 1e-9) & (plus.diag.real > 0.5)))
        ker_plus_minus = set(np.flatnonzero(
            (np.abs(cp.diag) < 1e-9) & (minus.diag.real > 0.5)))
        assert ker_c == ker_minus_plus | ker_plus_minus
        assert ker_minus_plus.isdisjoint(ker_plus_minus)

    def test_sector_decomposition_of_projector(self):
        sp = self.degenerate_space()
        p = ks.momentum_operator(sp, 0)
        g = ks.generator_operator(sp, 1)
        C = p @ p - g
        Pi = ks.group_average(sp, C)
        plus, minus = ks.sector_projectors(sp, 0)
        recomposed = (plus @ Pi @ plus) + (minus @ Pi @ minus)
        assert np.max(np.abs(recomposed.diag - Pi.diag)) < 1e-10


class TestOperatorForms:
    """Each stored form agrees with its dense matrix as the reference."""

    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("form", ["diag", "local", "dense"])
    def test_form_matches_dense_reference(self, form, hermitian):
        sp = ks.tensor_space([ks.FactorSpec.frame(8, 1.0, name)
                              for name in "ABC"])
        assert sp.dim == 512
        rng = np.random.default_rng(89)

        def sample(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        if form == "diag":
            d = sample(sp.dim)
            op = ks.KinOperator.from_diag(sp, d.real if hermitian else d)
        else:
            m = sample(8, 8) if form == "local" else sample(sp.dim, sp.dim)
            if hermitian:
                m = (m + m.conj().T) / 2
            op = (ks.factor_operator(sp, 1, m) if form == "local"
                  else ks.KinOperator.from_matrix(sp, m))
        assert op.is_diagonal == (form == "diag")
        assert (op.local is not None) == (form == "local")
        M = op.matrix
        v = sample(sp.dim)
        assert np.max(np.abs(op.apply(v) - M @ v)) < 1e-12
        assert np.max(np.abs(op.apply_adjoint(v) - M.conj().T @ v)) < 1e-12
        assert np.max(np.abs(op.diagonal() - np.diagonal(M))) < 1e-12
        assert op.hermitian == bool(
            np.max(np.abs(M - M.conj().T)) < ks.HERM_TOL) == hermitian
        s = 0.3 - 1.7j
        scaled = s * op
        assert scaled.is_diagonal == op.is_diagonal
        assert (scaled.local is None) == (op.local is None)
        assert np.max(np.abs(scaled.matrix - s * M)) < 1e-12
        assert np.max(np.abs(scaled.apply(v) - s * (M @ v))) < 1e-12

    @staticmethod
    def mixed_space():
        # unequal factor sizes with the frame in the middle
        return ks.tensor_space([ks.FactorSpec.system([0.0, 1.0, -1.0]),
                                ks.FactorSpec.frame(6, 1.0, "R"),
                                ks.FactorSpec.system([0.0, 1.0, 2.0, -1.0])])

    @staticmethod
    def operator(sp, form, factor, rng):
        def sample(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        if form == "diag":
            return ks.KinOperator.from_diag(sp, sample(sp.dim))
        if form == "local":
            n = sp.dims[factor]
            return ks.factor_operator(sp, factor, sample(n, n))
        return ks.KinOperator.from_matrix(sp, sample(sp.dim, sp.dim))

    @pytest.mark.parametrize("right", ["diag", "local", "dense"])
    @pytest.mark.parametrize("left", ["diag", "local", "dense"])
    def test_matmul_matches_dense_product(self, left, right):
        sp = self.mixed_space()
        rng = np.random.default_rng(97)
        for lf, rf in [(1, 0), (1, 1), (2, 1), (0, 2)]:
            a = self.operator(sp, left, lf, rng)
            b = self.operator(sp, right, rf, rng)
            prod = a @ b
            assert prod.is_diagonal == (left == right == "diag")
            assert prod.support == a.support | b.support
            assert np.max(np.abs(prod.matrix - a.matrix @ b.matrix)) < 1e-12

    @pytest.mark.parametrize("form", ["diag", "local", "dense"])
    def test_apply_to_column_block(self, form):
        sp = self.mixed_space()
        rng = np.random.default_rng(101)
        op = self.operator(sp, form, 1, rng)
        block = rng.normal(size=(sp.dim, 3)) + 1j * rng.normal(size=(sp.dim, 3))
        for act in (op.apply, op.apply_adjoint):
            out = act(block)
            assert out.shape == block.shape
            cols = np.stack([act(block[:, i]) for i in range(3)], axis=1)
            assert np.max(np.abs(out - cols)) < 1e-12

    @pytest.mark.parametrize("cols", [None, 3], ids=["vector", "block"])
    @pytest.mark.parametrize("factor", [0, 1, 2], ids=["first", "middle",
                                                       "last"])
    @pytest.mark.parametrize("form", ["diag", "local", "dense"])
    def test_apply_into_out_is_bitwise_apply(self, form, factor, cols):
        sp = self.mixed_space()
        rng = np.random.default_rng(131)
        op = self.operator(sp, form, factor, rng)
        shape = (sp.dim,) + (() if cols is None else (cols,))
        vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = np.full(shape, np.nan, dtype=complex)
        assert op.apply(vec, out=out) is out
        assert np.array_equal(out, op.apply(vec))

    @pytest.mark.parametrize("form", ["diag", "local", "dense"])
    def test_apply_rejects_unusable_out(self, form):
        sp = self.mixed_space()
        rng = np.random.default_rng(137)
        op = self.operator(sp, form, 1, rng)
        vec = rng.normal(size=(sp.dim, 3)) + 0j
        for bad in (np.empty((sp.dim, 2), dtype=complex),
                    np.empty(sp.dim * 3, dtype=complex),
                    np.empty((sp.dim, 3)),
                    np.empty((3, sp.dim), dtype=complex).T):
            with pytest.raises(ValueError, match="C-contiguous complex"):
                op.apply(vec, out=bad)

    @pytest.mark.parametrize("frame", [0, 1, 2], ids=["first", "middle",
                                                      "last"])
    @pytest.mark.parametrize("form", ["diag", "local", "dense"])
    def test_support_matches_oracle(self, form, frame):
        factors = [ks.FactorSpec.system([0.0, 1.0, -1.0]),
                   ks.FactorSpec.system([0.0, 1.0, 2.0, -1.0])]
        factors.insert(frame, ks.FactorSpec.frame(6, 1.0, "R"))
        sp = ks.tensor_space(factors)
        rng = np.random.default_rng(139)

        def sample(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for acts_on in (s for r in range(4)
                        for s in combinations(range(3), r)):
            if form == "diag":
                op = ks.KinOperator.from_diag(sp, np.ones(sp.dim) + sum(
                    sp.embed_diag(k, sample(sp.dims[k])) for k in acts_on))
            elif form == "local":
                if len(acts_on) != 1:
                    continue
                n = sp.dims[acts_on[0]]
                op = ks.factor_operator(sp, acts_on[0], sample(n, n))
            else:
                op = ks.KinOperator.from_matrix(sp, np.eye(sp.dim) + sum(
                    sp.embed_matrix(k, sample(sp.dims[k], sp.dims[k]))
                    for k in acts_on))
            assert op.support == support_oracle(op) == frozenset(acts_on)

    def test_stale_support_argument_raises(self):
        sp = self.mixed_space()
        with pytest.raises(TypeError):
            ks.KinOperator.from_matrix(sp, np.eye(sp.dim), {0})
        with pytest.raises(TypeError):
            ks.KinOperator.from_diag(sp, np.ones(sp.dim), {0})

    def test_constructors_leave_caller_arrays_writeable(self):
        sp = self.mixed_space()
        m = np.eye(sp.dim, dtype=complex)
        d = np.ones(sp.dim, dtype=complex)
        ks.KinOperator.from_matrix(sp, m)
        ks.KinOperator.from_diag(sp, d)
        assert m.flags.writeable and d.flags.writeable


class TestComposedForm:
    """Products and sums that the diagonal rule does not cover hold their
    operands; every read agrees with the dense reference."""

    @staticmethod
    def operands(rng):
        sp = TestOperatorForms.mixed_space()
        make = TestOperatorForms.operator
        return sp, (make(sp, "diag", 0, rng), make(sp, "local", 1, rng),
                    make(sp, "local", 2, rng), make(sp, "dense", 0, rng))

    def test_reads_match_dense_reference(self):
        rng = np.random.default_rng(181)
        sp, (d, l1, l2, m) = self.operands(rng)
        D, L1, L2, M = (x.matrix for x in (d, l1, l2, m))
        s = 0.4 - 0.9j
        exp_d = ks.KinOperator.exp(d, s)
        cases = [(l1 @ l2, L1 @ L2), (d @ l1 @ m, D @ L1 @ M),
                 (l1 + m, L1 + M), (m + m, M + M),
                 (s * (l1 @ d + m @ l2), s * (L1 @ D + M @ L2)),
                 ((l1 + d) @ (l2 - m), (L1 + D) @ (L2 - M)), (m @ m, M @ M),
                 # exp(s X) for a diagonal X (itself diagonal), a product
                 # with one non-diagonal operand, and a scaled dense X: the
                 # scalar stays outside
                 (exp_d, expm(s * D)),
                 (ks.KinOperator.exp(l1 @ d, 0.3j), expm(0.3j * L1 @ D)),
                 (s * ks.KinOperator.exp(m, 0.1j), s * expm(0.1j * M))]
        v = rng.normal(size=(sp.dim, 3)) + 1j * rng.normal(size=(sp.dim, 3))
        assert exp_d.is_diagonal
        for op, ref in cases:
            tol = 1e-12 * np.max(np.abs(ref))
            assert op is exp_d or (op.kind in ("@", "+", "exp")
                                   and op._matrix is None)
            assert np.max(np.abs(op.matrix - ref)) < tol
            assert np.max(np.abs(op.diagonal() - np.diagonal(ref))) < tol
            for x in (v, v[:, 0], np.asfortranarray(v)):
                assert np.max(np.abs(op.apply(x) - ref @ x)) < 10 * tol
                assert np.max(np.abs(op.apply_adjoint(x)
                                     - ref.conj().T @ x)) < 10 * tol
            out = np.full(v.shape, np.nan, dtype=complex)
            assert op.apply(v, out=out) is out
            assert np.array_equal(out, op.apply(v))
        # a composed form does not decide ``hermitian``: its matrix is read
        herm = (l1 + ks.factor_operator(sp, 1, l1.local.conj().T)).matrix
        assert np.max(np.abs(herm - herm.conj().T)) < ks.HERM_TOL
        for op in (l1 + m, l1 @ d):
            M = op.matrix
            assert not np.max(np.abs(M - M.conj().T)) < ks.HERM_TOL
            with pytest.raises(UnsupportedForm, match="matrix"):
                op.hermitian

    def test_composition_rules(self):
        sp, (d, l1, l2, m) = self.operands(np.random.default_rng(191))
        assert (d @ d).is_diagonal and (d + d).is_diagonal
        for a, b in [(d, l1), (l1, l2), (l1, m), (m, d), (m, m)]:
            assert (a @ b).kind == "@" and (a + b).kind == "+"
        # nested products are spliced into one, and the scalar rides along
        prod = 2.0 * (l1 @ l2) @ (d @ m)
        assert prod.operands == (l1, l2, d, m) and prod.scalar == 2.0
        assert (l1 + l2 + m).operands == (l1, l2, m)
        # an exp is never spliced, and a scalar multiplies it
        e = ks.KinOperator.exp(l1, 0.1)
        assert ks.KinOperator._composed("exp", (e,)).operands == (e,)
        assert (2.0 * e).operands == e.operands and (2.0 * e).scalar == 2.0
        assert (e @ e).operands == (e, e)

    def test_product_diagonal_reads_no_columns(self, monkeypatch):
        # all operands of a product but one diagonal: d_1 diag(A) d_2
        sp, (d, l1, _, m) = self.operands(np.random.default_rng(211))
        cases = [(2.0 * (d @ l1 @ d), 2.0 * d.diag * l1.diagonal() * d.diag),
                 (m @ d, np.diagonal(m.matrix) * d.diag)]

        def columns(dim):
            raise AssertionError("unit columns were read")

        monkeypatch.setattr(ks, "_unit_blocks", columns)
        for op, ref in cases:
            assert op.kind == "@"
            assert np.max(np.abs(op.diagonal() - ref)) \
                < 1e-12 * np.max(np.abs(ref))

    def test_dense_exp_is_bit_reproducible(self):
        # the Taylor steps draw no random numbers: every apply gives the
        # same bits, and numpy's global random state does not move
        sp = TestOperatorForms.mixed_space()
        rng = np.random.default_rng(223)
        M = rng.normal(size=(sp.dim, sp.dim)) + 1j * rng.normal(
            size=(sp.dim, sp.dim))
        e = ks.KinOperator.exp(ks.KinOperator.from_matrix(sp, M), 0.1j)
        v = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
        before = np.random.get_state()
        first = e.apply(v)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
        assert all(np.array_equal(e.apply(v), first) for _ in range(49))
        assert np.max(np.abs(first - expm(0.1j * M) @ v)) < 1e-12 * np.max(
            np.abs(first))

    def test_ill_conditioned_exponential_rejected(self):
        sp, (d, l1, _, _) = self.operands(np.random.default_rng(199))
        # real diagonal X: the bound is max |Re(s X_ii)| = |s| max |X_ii|
        x = d.diag.real
        big = ks.KinOperator.from_diag(sp, 10.0 / np.max(np.abs(x)) * x)
        with pytest.raises(IllConditionedFlow):
            ks.KinOperator.exp(big, 6.0)
        ks.KinOperator.exp(big, 4.9)
        # an imaginary s makes a phase, which passes whatever |s| max |X_ii|
        assert np.allclose(np.abs(ks.KinOperator.exp(big, 60.0j).diag), 1)
        # any other X: a power-iteration estimate of ||X||_2, guarded at
        # MAX_EXPONENT; s = i t with t |X|_2 just past or below the bound
        exact = np.linalg.norm(l1.matrix, 2)
        with pytest.raises(IllConditionedFlow):
            ks.KinOperator.exp(l1, 1j * ks.MAX_EXPONENT / (0.99 * exact))
        ks.KinOperator.exp(l1, 1j * ks.MAX_EXPONENT / (1.01 * exact))

    def test_non_finite_exponent_rejected(self):
        # a NaN |s| ||X||_2 would otherwise reach the step count ceil(NaN)
        sp, (d, l1, _, _) = self.operands(np.random.default_rng(227))
        inf = ks.KinOperator.from_diag(sp, np.full(sp.dim, np.inf))
        for X, s in ((l1, np.nan), (d, np.nan), (inf, 0.0)):
            with pytest.raises(IllConditionedFlow):
                ks.KinOperator.exp(X, s)

    @settings(max_examples=40)
    @given(kind=st.sampled_from(["local", "dense", "twirl", "nilpotent"]),
           lam=st.floats(-3.0, 3.0), hbar=st.sampled_from([0.7, 1.6]),
           size=st.floats(0.1, 2.5), width=st.sampled_from([None, 3]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(kind="local", lam=3.0, hbar=0.7, size=2.5, width=None, seed=1)
    @example(kind="dense", lam=-3.0, hbar=0.7, size=2.5, width=3, seed=2)
    @example(kind="twirl", lam=3.0, hbar=0.7, size=2.5, width=3, seed=3)
    @example(kind="nilpotent", lam=-3.0, hbar=0.7, size=2.5, width=None,
             seed=4)
    def test_taylor_steps_match_expm(self, kind, lam, hbar, size, width,
                                     seed):
        # exp(i lam a C / hbar) for a hermitian a of norm ``size``, local,
        # dense or twirled, against the dense oracle: |s| ||X|| reaches 43,
        # where one series without steps loses five digits or more; the
        # nilpotent local X (strictly upper triangular on one factor) has
        # terms that hit an exact zero
        model = md.build_model(md.ModelSpec("nparticle", n_particles=2,
                                            lattice_size=8, hbar=hbar))
        sp, C = model.space, model.constraint
        rng = np.random.default_rng(seed)
        n = sp.dims[1] if kind in ("local", "nilpotent") else sp.dim
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = np.triu(m, 1) if kind == "nilpotent" else m + m.conj().T
        m *= size / np.linalg.norm(m, 2)
        if kind in ("local", "nilpotent"):
            a = ks.factor_operator(sp, 1, m)
        else:
            a = ks.KinOperator.from_matrix(sp, m)
        if kind == "twirl":
            a = ro.g_twirl(sp, C, a)
        X = a if kind == "nilpotent" else a @ C
        s = 1j * lam / hbar
        e = ks.KinOperator.exp(X, s)
        ref = expm(s * X.matrix)
        shape = (sp.dim,) if width is None else (sp.dim, width)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for got, want in ((e.apply(v), ref @ v),
                          (e.apply_adjoint(v), ref.conj().T @ v)):
            assert np.all(np.linalg.norm(got - want, axis=0)
                          <= 1e-12 * np.linalg.norm(want, axis=0))

    @settings(max_examples=40)
    @given(form=st.sampled_from(["diag", "local", "dense", "@", "+", "twirl",
                                 "exp", "scaled"]),
           factor=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
    def test_adjoint_is_the_conjugate_transpose(self, form, factor, seed):
        # every stored form and composed kind: adjoint.apply is M^dag on a
        # vector and a block, a product's adjoint holds the reversed
        # adjoints and the conjugate scalar, and adjoint.adjoint acts as op
        sp = TestOperatorForms.mixed_space()
        rng = np.random.default_rng(seed)
        make = TestOperatorForms.operator
        loc = make(sp, "local", factor, rng)
        if form in ("diag", "local", "dense"):
            op = make(sp, form, factor, rng)
        elif form == "twirl":
            C = ks.build_constraint(sp, {0: 1.0, 1: 1.0, 2: 1.0})
            op = ro.g_twirl(sp, C, loc @ make(sp, "diag", 0, rng))
        elif form == "exp":
            # one Taylor step (kind "exp") or a product of two or three
            X = loc @ make(sp, "diag", 0, rng)
            op = ks.KinOperator.exp(X, 0.9j * (1 + seed % 3)
                                    / np.linalg.norm(X.matrix, 2))
            assert op.kind == ("exp" if seed % 3 == 0 else "@")
        else:
            other = make(sp, "dense", 0, rng)
            op = loc + other if form == "+" else loc @ other
            if form == "scaled":
                op = complex(*rng.normal(size=2)) * op
        adj = op.adjoint
        X = rng.normal(size=(sp.dim, 3)) + 1j * rng.normal(size=(sp.dim, 3))
        for x in (X, X[:, 0]):
            want = op.matrix.conj().T @ x
            assert np.max(np.abs(adj.apply(x) - want)) \
                <= 1e-12 * np.max(np.abs(want))
            assert np.array_equal(op.apply_adjoint(x), adj.apply(x))
            assert np.array_equal(adj.adjoint.apply(x), op.apply(x))
        if op.operands is not None:
            ops = op.operands[::-1] if op.kind == "@" else op.operands
            assert adj.kind == op.kind and adj.classes is op.classes
            assert all(a is o.adjoint for a, o in zip(adj.operands, ops))
            assert adj.scalar == np.conj(op.scalar)

    def test_support_is_the_union_of_operand_supports(self):
        sp = TestOperatorForms.mixed_space()
        rng = np.random.default_rng(193)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = ks.factor_operator(sp, 1, m)
        b = ks.factor_operator(sp, 1, np.linalg.inv(m))
        c = ks.factor_operator(sp, 2, rng.normal(size=(4, 4)))
        # an upper bound: a b is the identity, yet factor 1 stays in it
        assert (a @ b).support == frozenset({1})
        assert support_oracle(a @ b) == frozenset()
        assert (a + c).support == frozenset({1, 2}) == support_oracle(a + c)

    def test_twirl_support_adds_the_classes(self):
        # a factor-2 local twirled over C = p_A + p_B commutes with C, so
        # the twirl is A itself; the bound also holds the factors of C
        sp = _nparticle4()
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0})
        rng = np.random.default_rng(229)
        A = ks.factor_operator(sp, 2, rng.normal(size=(4, 4)))
        tw = ro.g_twirl(sp, C, A)
        assert tw.kind == "twirl"
        assert tw.support == frozenset({0, 1, 2})
        assert support_oracle(tw) == frozenset({2})

    def test_matrix_above_the_budget_raises(self):
        sp = ks.tensor_space([ks.FactorSpec.frame(32, 1.0, name)
                              for name in "ABC"])
        assert sp.dim == 32768 and sp.dim ** 2 > ks.DENSE_BUDGET
        rng = np.random.default_rng(197)
        a, b = (ks.factor_operator(sp, k, rng.normal(size=(32, 32)))
                for k in (0, 1))
        prod = a @ b
        assert prod.kind == "@"
        assert issubclass(DenseBudgetExceeded, QRFError)
        for read in (lambda: prod.matrix, lambda: a.matrix,
                     lambda: ks.identity_operator(sp).matrix,
                     lambda: sp.embed_matrix(0, np.eye(32))):
            with pytest.raises(DenseBudgetExceeded):
                read()
        # a composed constraint is refused before any D x D form is read
        with pytest.raises(UnsupportedForm):
            ks.group_average(sp, prod + a)
        v = rng.normal(size=sp.dim)
        ref = a.apply(b.apply(v))
        assert np.array_equal(prod.apply(v), ref)

    def test_constructor_refuses_a_malformed_form(self):
        # the forms the operator algebra builds pass; every other
        # combination of stored fields is refused before any apply
        sp, other = two_frame_space(), two_frame_space()
        eye = ks.identity_operator(sp)
        local = ks.factor_operator(sp, 0, np.ones((8, 8)))
        classes = np.zeros(sp.dim, dtype=int)
        for op in (local + eye, local @ local, ks.KinOperator.exp(local, 0.1),
                   ks.KinOperator(sp, operands=(local,), kind="twirl",
                                  classes=classes)):
            assert op.apply(np.ones(sp.dim)).shape == (sp.dim,)
        bad = [
            {},
            {"diag": eye.diag, "_matrix": np.eye(sp.dim)},
            {"diag": eye.diag, "operands": (eye,), "kind": "@"},
            {"diag": eye.diag, "kind": "@"},
            {"diag": eye.diag, "classes": classes},
            {"operands": (eye,)},
            {"operands": (eye,), "kind": "?"},
            {"operands": (), "kind": "@"},
            {"operands": (eye, eye), "kind": "exp"},
            {"operands": (eye, eye), "kind": "twirl", "classes": classes},
            {"operands": (eye,), "kind": "twirl"},
            {"operands": (eye,), "kind": "twirl", "classes": classes[1:]},
            {"operands": (eye,), "kind": "@", "classes": classes},
            {"operands": (eye, 2.0), "kind": "+"},
            {"operands": (eye, ks.identity_operator(other)), "kind": "+"},
        ]
        for fields in bad:
            with pytest.raises(ConfigError):
                ks.KinOperator(sp, **fields)


class TestRectangularApplyFactor:
    """An m x n matrix on one factor: n in that slot goes in, m comes out."""

    @staticmethod
    def space():
        return ks.tensor_space([ks.FactorSpec.frame(4, 1.0, "A"),
                                ks.FactorSpec.frame(6, 1.0, "B"),
                                ks.FactorSpec.system([0.0, 1.0, -1.0])])

    @pytest.mark.parametrize("factor", [0, 1, 2], ids=["first", "middle",
                                                       "last"])
    @pytest.mark.parametrize("shape", ["bra", "ket", "general"])
    @pytest.mark.parametrize("cols", [None, 3], ids=["vector", "block"])
    def test_matches_kron_reference(self, factor, shape, cols):
        sp = self.space()
        N = sp.dims[factor]
        m, n = {"bra": (1, N), "ket": (N, 1), "general": (5, 2)}[shape]
        rng = np.random.default_rng(113)
        mat = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        before = int(np.prod(sp.dims[:factor]))
        after = int(np.prod(sp.dims[factor + 1:]))
        size = (before * n * after,) + (() if cols is None else (cols,))
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        ref = np.kron(np.kron(np.eye(before), mat), np.eye(after)) @ vec
        out = sp.apply_factor(factor, mat, vec)
        assert out.shape == ref.shape == (before * m * after,) + size[1:]
        assert np.max(np.abs(out - ref)) < 1e-12


    @pytest.mark.parametrize("factor", [0, 1, 2], ids=["first", "middle",
                                                       "last"])
    @pytest.mark.parametrize("cols", [None, 3], ids=["vector", "block"])
    def test_out_is_bitwise_the_allocated_result(self, factor, cols):
        sp = self.space()
        rng = np.random.default_rng(139)
        mat = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        rows = sp.dim // sp.dims[factor] * 2
        size = (rows,) + (() if cols is None else (cols,))
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        ref = sp.apply_factor(factor, mat, vec)
        out = np.full(ref.shape, np.nan, dtype=complex)
        assert sp.apply_factor(factor, mat, vec, out=out) is out
        assert np.array_equal(out, ref)

    def test_missized_input_raises(self):
        sp = self.space()
        N = sp.dims[1]
        mat = np.eye(N, dtype=complex)
        # twice the rows would reshape to a two-column block without the
        # row check
        for vec in (np.ones(sp.dim + 1), np.ones(2 * sp.dim),
                    np.ones((sp.dim - 1, 2))):
            with pytest.raises(ConfigError):
                sp.apply_factor(1, mat, vec)
        with pytest.raises(ConfigError):
            sp.apply_factor(1, np.ones((N, N - 1)), np.ones(sp.dim))

    @pytest.mark.parametrize("factor", [3, 7, -1])
    def test_factor_outside_the_space_raises(self, factor):
        sp = self.space()
        with pytest.raises(IndexOutOfRange):
            sp.apply_factor(factor, np.eye(3), np.ones(sp.dim))

    def test_unusable_out_raises(self):
        sp = self.space()
        mat = np.ones((1, sp.dims[0]), dtype=complex)
        vec = np.ones((sp.dim, 2), dtype=complex)
        rows = sp.dim // sp.dims[0]
        for bad in (np.empty((rows, 3), dtype=complex),
                    np.empty((rows, 2)),
                    np.empty((2, rows), dtype=complex).T,
                    np.empty((rows, 4), dtype=complex)[:, ::2]):
            with pytest.raises(ValueError, match="C-contiguous complex"):
                sp.apply_factor(0, mat, vec, out=bad)


def _other_space_operands():
    """Operators on a 4-site and an 8-site two-frame space."""
    small, large = two_frame_space(N=4), two_frame_space(N=8)
    return (small, ks.build_constraint(small, {0: 1.0, 1: 1.0}),
            ks.build_constraint(large, {0: 1.0, 1: 1.0}))


WRONG_SPACE_CALLS = {
    "from_diag": lambda sp, c, c_other: ks.KinOperator.from_diag(
        sp, c_other.diag),
    "group_average": lambda sp, c, c_other: ks.group_average(sp, c_other),
    "g_twirl_C": lambda sp, c, c_other: ro.g_twirl(sp, c_other, c),
    "g_twirl_A": lambda sp, c, c_other: ro.g_twirl(sp, c, c_other),
}


@pytest.mark.parametrize("call", sorted(WRONG_SPACE_CALLS))
def test_operator_on_another_space_raises(call):
    with pytest.raises(ConfigError):
        WRONG_SPACE_CALLS[call](*_other_space_operands())


def _physical_form_without_pi():
    sp = two_frame_space()
    C = ks.build_constraint(sp, {0: 1.0, 1: 1.0})
    return ro.relational_observable(sp, C, ro.OrientationFrame(sp, 0), 0.0,
                                    ks.identity_operator(sp), form="physical")


def _pair():
    # each call a new generator set, so elements of two calls do not mix
    return ncalg.GeneratorSet.canonical([("q", "p")])


def _table_state():
    g = _pair()
    return ast.from_table(g, {g.unit_monomial(): 1.0})


def _two_models():
    """Two builds of one model: equal dimensions, distinct spaces, and a
    physical state and a Hilbert-backed state of the first."""
    spec = md.ModelSpec("nparticle", lattice_size=4)
    m, o = md.build_model(spec), md.build_model(spec)
    psi = md.random_physical_state(m, np.random.default_rng(0))
    return m, o, psi, ast.from_hilbert(psi, psi, m.space, m.assignment, m.gens)


def _nparticle4():
    """The space of nparticle L = 4: three frames of 4, D = 64."""
    return md.build_model(md.ModelSpec("nparticle", lattice_size=4)).space


def _foreign(call):
    """A CONFIG_ERRORS case: ``call`` on ``_two_models()``."""
    return lambda: call(*_two_models())


def _on_nparticle4(call):
    """A CONFIG_ERRORS case: ``call`` on nparticle L = 4 (D = 64) and its
    frame A."""
    def run():
        m = md.build_model(md.ModelSpec("nparticle", lattice_size=4))
        return call(m, m.frames["A"])
    return run


def _frame_state(m, fr):
    """A frame state of model ``m`` on frame ``fr`` at orientation 0."""
    psi = md.random_physical_state(m, np.random.default_rng(0))
    return ast.frame_state(m.space, m.constraint, fr, 0.0, psi, m.assignment,
                           m.gens)


def _physical_observable(space, C, m):
    return ro.relational_observable(space, C, m.frames["A"], 0.0,
                                    ks.identity_operator(m.space),
                                    form="physical", Pi=m.Pi)


CONFIG_ERRORS = {
    # two spaces of equal dimension, so only the space check can catch it
    "different_spaces": lambda: (ks.identity_operator(two_frame_space())
                                 + ks.identity_operator(two_frame_space())),
    "relational_observable.physical": _physical_form_without_pi,
    "build_constraint": lambda: ks.build_constraint(two_frame_space(),
                                                    {0: np.ones(3)}),
    "build_constraint.nan": lambda: ks.build_constraint(two_frame_space(),
                                                        {0: np.nan}),
    "FactorSpec.system": lambda: ks.FactorSpec.system([]),
    "FactorSpec.system.nan": lambda: ks.tensor_space(
        [ks.FactorSpec.frame(4), ks.FactorSpec.system([np.nan])]),
    "FactorSpec.system.inf": lambda: ks.tensor_space(
        [ks.FactorSpec.frame(4), ks.FactorSpec.system([np.inf])]),
    "apply.out": lambda: ks.identity_operator(two_frame_space()).apply(
        np.ones(64, complex), out=np.empty(3, complex)),
    # malformed stored forms, refused by the constructor itself
    "KinOperator.no_form": lambda: ks.KinOperator(two_frame_space()),
    "KinOperator.kind": lambda: (lambda sp: ks.KinOperator(
        sp, operands=(ks.identity_operator(sp),), kind="?"))(
            two_frame_space()),
    "KinOperator.twirl_classes": lambda: (lambda sp: ks.KinOperator(
        sp, operands=(ks.identity_operator(sp),), kind="twirl"))(
            two_frame_space()),
    # wrong shapes, caught at construction rather than at the first apply
    "KinOperator.from_matrix.shape": lambda: ks.KinOperator.from_matrix(
        _nparticle4(), np.eye(3)),
    "factor_operator.5x5": lambda: ks.factor_operator(
        _nparticle4(), 0, np.ones((5, 5))),
    "factor_operator.4x3": lambda: ks.factor_operator(
        _nparticle4(), 0, np.ones((4, 3))),
    "factor_operator.3d": lambda: ks.factor_operator(
        _nparticle4(), 0, np.ones((4, 4, 4))),
    "gauge_transform_state": lambda: rg.gauge_transform_state(
        _table_state(), ks.identity_operator(two_frame_space()),
        ks.identity_operator(two_frame_space())),
    "gauge_flow": lambda: rg.gauge_flow(
        _table_state(), ks.identity_operator(two_frame_space()), 0.1,
        ks.build_constraint(two_frame_space(), {0: 1.0, 1: 1.0})),
    "evaluate_all": lambda: _table_state().evaluate(_pair().gen("q")),
    # orthogonal bra and ket
    "from_hilbert": _on_nparticle4(lambda m, fr: ast.from_hilbert(
        np.eye(64)[0], np.eye(64)[1], m.space, m.assignment, m.gens)),
    "from_table": lambda: ast.from_table(
        _pair(), {_pair().unit_monomial(): 2.0}),
    "check_constraint_surface": lambda: ast.check_constraint_surface(
        _table_state(), _pair().gen("p")),
    "check_almost_positive.name": lambda: ast.check_almost_positive(
        _table_state(), ["nope"]),
    "transform_frame.name": lambda: (lambda om: ast.transform_frame(
        om, frame_a=("nope", "p"), rho_a=0.0, frame_b=("q", "p"), rho_b=0.0,
        f=om.gens.gen("q"), g_s=om.gens.zero()))(_table_state()),
    "GeneratorSet.names": lambda: ncalg.GeneratorSet(("x", "x"), {}),
    "GeneratorSet.relation_key": lambda: ncalg.GeneratorSet(
        ("x", "y"), {(1, 0): {0: 1}}),
    # a component outside range(n), a negative one (not read as a Python
    # index), one that is not an int, and a key that is not a pair
    "GeneratorSet.relation_component.range": lambda: ncalg.GeneratorSet(
        ("x", "y", "z"), {(0, 1): {3: 1}}),
    "GeneratorSet.relation_component.negative": lambda: ncalg.GeneratorSet(
        ("x", "y", "z"), {(0, 1): {-2: 1}}),
    "GeneratorSet.relation_component.type": lambda: ncalg.GeneratorSet(
        ("x", "y", "z"), {(0, 1): {"z": 1}}),
    "GeneratorSet.relation_key.pair": lambda: ncalg.GeneratorSet(
        ("x", "y", "z"), {(0, 1, 2): {2: 1}}),
    # [x,y]=z, [x,z]=x, [y,z]=y violates the Jacobi identity
    "GeneratorSet.jacobi": lambda: ncalg.GeneratorSet(
        ("x", "y", "z"), {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}}),
    "GeneratorSet.gen": lambda: _pair().gen("nope"),
    "GeneratorSet.element.length": lambda: _pair().element({(1,): 1}),
    "GeneratorSet.element.negative": lambda: _pair().element({(1, -1): 1}),
    "GeneratorSet.element.fraction": lambda: _pair().element({(0.5, 0): 1}),
    # exponent vectors of the wrong length
    "weyl_symmetrize.length": lambda: ncalg.weyl_symmetrize(_pair(), (1,)),
    "from_weyl_basis.length": lambda: ncalg.from_weyl_basis(
        _pair(), {(1, 2, 0): 1}),
    "AlgebraElement.coefficient.length": lambda: _pair().gen(
        "q").coefficient((1,)),
    # checks below their minimum degree, deg C and 1
    "check_constraint_surface.degree": _on_nparticle4(
        lambda m, fr: ast.check_constraint_surface(
            _frame_state(m, fr), m.constraint_elem, 0)),
    "check_frame_gauge.degree": _on_nparticle4(
        lambda m, fr: ast.check_frame_gauge(_frame_state(m, fr), "q_A", 0.0,
                                            0)),
    "verify_reference_frame.degree": lambda: (
        lambda g: ast.verify_reference_frame(g, "q", g.gen("p"), -1))(_pair()),
    "AlgebraElement.add": lambda: _pair().gen("q") + _pair().gen("q"),
    # su2 has factors 0, 1 (frames) and 2 (spin)
    "gaussian_physical_state.system_amp": lambda: md.gaussian_physical_state(
        md.build_model(md.ModelSpec("su2")), system_amp={5: [1.0]}),
    "gaussian_physical_state.shear": lambda: md.gaussian_physical_state(
        md.build_model(md.ModelSpec("su2")), shear={(0, 9): 0.1}),
    "multiply": lambda: ncalg.multiply(_pair().gen("q"), _pair().gen("p")),
    # an operator, frame or state of a second model of equal dimension
    "frame_state.C": _foreign(lambda m, o, psi, om: ast.frame_state(
        m.space, o.constraint, m.frames["A"], 0.0, psi, m.assignment,
        m.gens)),
    "frame_state.frame": _foreign(lambda m, o, psi, om: ast.frame_state(
        m.space, m.constraint, o.frames["A"], 0.0, psi, m.assignment,
        m.gens)),
    "frame_state.assignment": _foreign(lambda m, o, psi, om: ast.frame_state(
        m.space, m.constraint, m.frames["A"], 0.0, psi, o.assignment,
        m.gens)),
    "from_hilbert.assignment": _foreign(lambda m, o, psi, om: ast.from_hilbert(
        psi, psi, m.space, o.assignment, m.gens)),
    "verify_assignment": _foreign(lambda m, o, psi, om: ast.verify_assignment(
        m.gens, m.space, o.assignment)),
    "system_projector": _foreign(lambda m, o, psi, om: rg.system_projector(
        o.frames["A"], m.Pi)),
    "embed_state": _foreign(lambda m, o, psi, om: rg.embed_state(
        o.frames["A"], 0.0, np.ones(m.space.dim // 4), m.Pi)),
    "qrf_transform": _foreign(lambda m, o, psi, om: rg.qrf_transform(
        o.frames["A"], 0.0, o.frames["B"], 0.0, m.Pi)),
    "reduce_state.C": _foreign(lambda m, o, psi, om: rg.reduce_state(
        m.frames["A"], 0.0, psi, o.constraint)),
    "gauge_transform_state.Pi": _foreign(
        lambda m, o, psi, om: rg.gauge_transform_state(
            om, rg.theta_gauge(m.frames["A"], 0.0), o.Pi)),
    "gauge_transform_state.phi_b": _foreign(
        lambda m, o, psi, om: rg.gauge_transform_state(
            om, rg.theta_gauge(o.frames["A"], 0.0), m.Pi)),
    "gauge_flow.space": _foreign(lambda m, o, psi, om: rg.gauge_flow(
        om, ks.identity_operator(o.space), 0.1, o.constraint)),
    "physical_inner_product": _foreign(
        lambda m, o, psi, om: ks.physical_inner_product(o.space, m.Pi, psi,
                                                        psi)),
    "relational_observable.physical.space": _foreign(
        lambda m, o, psi, om: _physical_observable(o.space, m.constraint, m)),
    "relational_observable.physical.C": _foreign(
        lambda m, o, psi, om: _physical_observable(m.space, o.constraint, m)),
    # a vector with the wrong number of rows, not numpy's reshape error
    "apply.rows": _on_nparticle4(lambda m, fr: m.constraint.apply(
        np.ones(63))),
    "apply.local.rows": _on_nparticle4(lambda m, fr: m.assignment[
        "q_A"].apply(np.ones(63))),
    "reduce_state.rows": _on_nparticle4(lambda m, fr: rg.reduce_state(
        fr, 0.0, np.ones(68))),
    "embed_state.rows": _on_nparticle4(lambda m, fr: rg.embed_state(
        fr, 0.0, np.ones(5), m.Pi)),
    "project_physical.rows": _on_nparticle4(lambda m, fr: ks.project_physical(
        m.Pi, np.ones(63))),
    "check_physical.rows": _on_nparticle4(lambda m, fr: ks.check_physical(
        m.constraint, np.ones(63))),
    "frame_state.rows": _on_nparticle4(lambda m, fr: ast.frame_state(
        m.space, m.constraint, fr, 0.0, np.ones(63), m.assignment, m.gens)),
    "physical_inner_product.rows": _on_nparticle4(
        lambda m, fr: ks.physical_inner_product(m.space, m.Pi, np.ones(63),
                                                np.ones(64))),
    "from_hilbert.bra.rows": _on_nparticle4(lambda m, fr: ast.from_hilbert(
        np.ones(63), np.ones(64), m.space, m.assignment, m.gens)),
    "from_hilbert.ket.rows": _on_nparticle4(lambda m, fr: ast.from_hilbert(
        np.ones(64), np.ones(63), m.space, m.assignment, m.gens)),
    "qrf_transform.apply.rows": _on_nparticle4(lambda m, fr: rg.qrf_transform(
        fr, 0.0, m.frames["B"], 0.0, m.Pi).apply(np.ones(3))),
    "wraparound_weight.block": _on_nparticle4(
        lambda m, fr: ro.wraparound_weight(fr, np.ones((64, 2)))),
    # a state vector that is not finite, refused by the norm or total the
    # call computes anyway rather than passed on as NaN
    "wraparound_weight.nan": _on_nparticle4(
        lambda m, fr: ro.wraparound_weight(fr, np.full(64, np.nan))),
    "project_physical.nan": _on_nparticle4(lambda m, fr: ks.project_physical(
        m.Pi, np.full(64, np.nan))),
    "physical_inner_product.nan": _on_nparticle4(
        lambda m, fr: ks.physical_inner_product(m.space, m.Pi,
                                                np.full(64, np.nan),
                                                np.ones(64))),
    "check_physical.nan": _on_nparticle4(lambda m, fr: ks.check_physical(
        m.constraint, np.full(64, np.nan))),
    # an infinite entry, refused before any arithmetic reaches it (the
    # suite turns numpy's RuntimeWarning of 0 * inf into an error), and
    # the two entry points that took no norm of their input
    "physical_inner_product.inf": _on_nparticle4(
        lambda m, fr: ks.physical_inner_product(m.space, m.Pi, np.ones(64),
                                                _with_inf(64))),
    "project_physical.inf": _on_nparticle4(lambda m, fr: ks.project_physical(
        m.Pi, _with_inf(64))),
    "check_physical.inf": _on_nparticle4(lambda m, fr: ks.check_physical(
        m.constraint, _with_inf(64))),
    "check_physical.block.inf": _on_nparticle4(
        lambda m, fr: ks.check_physical(m.constraint, np.column_stack(
            [np.ones(64), _with_inf(64)]))),
    "frame_state.inf": _on_nparticle4(lambda m, fr: ast.frame_state(
        m.space, m.constraint, fr, 0.0, _with_inf(64), m.assignment, m.gens)),
    "reduce_state.C.inf": _on_nparticle4(lambda m, fr: rg.reduce_state(
        fr, 0.0, _with_inf(64), m.constraint)),
    "wraparound_weight.inf": _on_nparticle4(
        lambda m, fr: ro.wraparound_weight(fr, _with_inf(64))),
    "embed_state.nan": _on_nparticle4(lambda m, fr: rg.embed_state(
        fr, 0.0, np.full(16, np.nan), m.Pi)),
    "embed_state.inf": _on_nparticle4(lambda m, fr: rg.embed_state(
        fr, 0.0, _with_inf(16), m.Pi)),
    "from_hilbert.inf": _on_nparticle4(lambda m, fr: ast.from_hilbert(
        _with_inf(64), np.ones(64), m.space, m.assignment, m.gens)),
    "from_hilbert.nan": _on_nparticle4(lambda m, fr: ast.from_hilbert(
        np.ones(64), np.full(64, np.nan), m.space, m.assignment, m.gens,
        normalize=False)),
    # a table state's hbar, checked as tensor_space checks it
    "from_table.hbar.nan": lambda: ast.from_table(
        _pair(), {(0, 0): 1.0}, hbar=np.nan),
    "from_table.hbar.negative": lambda: ast.from_table(
        _pair(), {(0, 0): 1.0}, hbar=-1),
    "from_table.hbar.zero": lambda: ast.from_table(
        _pair(), {(0, 0): 1.0}, hbar=0),
    # integer sizes and indices that are not integers
    "FactorSpec.frame.N": lambda: ks.FactorSpec.frame(8.0),
    "ModelSpec.n_particles": lambda: md.build_model(
        md.ModelSpec("nparticle", n_particles=2.5)),
    "orientation_state.index": _on_nparticle4(
        lambda m, fr: ro.orientation_state(fr, 1.5)),
    "effect_operator.index": _on_nparticle4(
        lambda m, fr: ro.effect_operator(fr, [0.5])),
    "wraparound_weight.margin": _on_nparticle4(
        lambda m, fr: ro.wraparound_weight(fr, np.ones(64), margin=1.5)),
    # degrees that are not non-negative integers
    "monomial_basis.fraction": lambda: _pair().monomial_basis(1.5),
    "value_table.fraction": lambda: _table_state().value_table(1.5),
    "check_constraint_surface.fraction": _on_nparticle4(
        lambda m, fr: ast.check_constraint_surface(
            _frame_state(m, fr), m.constraint_elem, 3.5)),
    "verify_reference_frame.fraction": lambda: (
        lambda g: ast.verify_reference_frame(g, "q", g.gen("p"), 2.5))(
            _pair()),
    "from_hilbert.degree_bound": _on_nparticle4(
        lambda m, fr: ast.from_hilbert(np.ones(64), np.ones(64), m.space,
                                       m.assignment, m.gens, -1)),
    "from_table.degree_bound": lambda: ast.from_table(
        _pair(), {(0, 0): 1.0}, degree_bound=-1),
    "frame_state.degree_bound": _on_nparticle4(
        lambda m, fr: ast.frame_state(
            m.space, m.constraint, fr, 0.0,
            md.random_physical_state(m, np.random.default_rng(0)),
            m.assignment, m.gens, -1)),
    # non-finite coefficients, never stored
    "Coef.nan": lambda: ncalg._coef(float("nan")),
    "Coef.inf": lambda: ncalg._coef(-np.inf),
    "Coef.complex.nan": lambda: ncalg._coef(complex(np.nan, 0)),
    "GeneratorSet.element.nan": lambda: _pair().element({(1, 0): np.nan}),
    "AlgebraElement.rmul.inf": lambda: np.inf * _pair().gen("q"),
    "check_frame_gauge.rho.nan": _on_nparticle4(
        lambda m, fr: ast.check_frame_gauge(_frame_state(m, fr), "q_A",
                                            np.nan)),
    "transform_frame.rho.nan": lambda: (lambda om: ast.transform_frame(
        om, frame_a=("q", "p"), rho_a=np.nan, frame_b=("q", "p"), rho_b=0.0,
        f=om.gens.one(), g_s=om.gens.zero()))(_table_state()),
    # a non-finite orientation value on the lattice
    "orientation_state_at.nan": _on_nparticle4(
        lambda m, fr: ro.orientation_state_at(fr, np.nan)),
    "reduce_state.rho.inf": _on_nparticle4(lambda m, fr: rg.reduce_state(
        fr, np.inf, np.ones(64))),
    "frame_state.rho.nan": _on_nparticle4(lambda m, fr: ast.frame_state(
        m.space, m.constraint, fr, np.nan,
        md.random_physical_state(m, np.random.default_rng(0)), m.assignment,
        m.gens)),
    "relational_observable.closed.nan": _on_nparticle4(
        lambda m, fr: ro.relational_observable(
            m.space, m.constraint, fr, np.nan, m.assignment["q_B"],
            form="closed")),
    # an assignment without p_B
    "from_hilbert.missing": _on_nparticle4(lambda m, fr: ast.from_hilbert(
        np.ones(64), np.ones(64), m.space, _without_p_b(m), m.gens)),
    "frame_state.missing": _on_nparticle4(lambda m, fr: ast.frame_state(
        m.space, m.constraint, fr, 0.0,
        md.random_physical_state(m, np.random.default_rng(0)),
        _without_p_b(m), m.gens)),
    "verify_assignment.missing": _on_nparticle4(
        lambda m, fr: ast.verify_assignment(m.gens, m.space,
                                            _without_p_b(m))),
    # value tables: not a mapping, a key that is no exponent vector, NaN
    "from_table.list": lambda: ast.from_table(_pair(), [((0, 0), 1.0)]),
    "from_table.key": lambda: ast.from_table(
        _pair(), {(0, 0): 1.0, (1,): 0.5}),
    "from_table.nan": lambda: ast.from_table(
        _pair(), {(0, 0): 1.0, (1, 0): np.nan}),
}


def _with_inf(n):
    """Ones of length ``n`` with one infinite entry."""
    x = np.ones(n, dtype=complex)
    x[n // 3] = np.inf
    return x


def _without_p_b(m):
    """The assignment of model ``m`` without its entry for p_B."""
    return {k: v for k, v in m.assignment.items() if k != "p_B"}


def test_a_missing_generator_is_named():
    for site in ("from_hilbert", "frame_state", "verify_assignment"):
        with pytest.raises(ConfigError, match="generator 'p_B'"):
            CONFIG_ERRORS[f"{site}.missing"]()


@pytest.mark.parametrize("site", sorted(CONFIG_ERRORS))
def test_bad_input_raises_config_error(site):
    # a QRFError that existing ``pytest.raises(ValueError)`` still catch
    assert issubclass(ConfigError, QRFError)
    assert issubclass(ConfigError, ValueError)
    with pytest.raises(ConfigError):
        CONFIG_ERRORS[site]()


FACTOR_ENTRY_POINTS = {
    "build_constraint": lambda sp, k: ks.build_constraint(sp, {k: 1.0}),
    "momentum_operator": ks.momentum_operator,
    "generator_operator": ks.generator_operator,
    "sector_projectors": ks.sector_projectors,
    "embed_diag": lambda sp, k: sp.embed_diag(k, np.ones(4)),
    "embed_matrix": lambda sp, k: sp.embed_matrix(k, np.eye(4)),
    "factor_operator_dense": lambda sp, k: ks.factor_operator(
        sp, k, np.ones((4, 4))),
    "factor_operator_diag": lambda sp, k: ks.factor_operator(
        sp, k, np.eye(4)),
    "OrientationFrame": ro.OrientationFrame,
}


@pytest.mark.parametrize("factor", [3, -1])
@pytest.mark.parametrize("entry", sorted(FACTOR_ENTRY_POINTS))
def test_factor_index_outside_the_space_raises(entry, factor):
    # three frames, so a wrapped -1 would name a valid frame
    sp = ks.tensor_space([ks.FactorSpec.frame(4, 1.0, name) for name in "ABC"])
    assert len(sp.dims) == 3
    with pytest.raises(IndexOutOfRange):
        FACTOR_ENTRY_POINTS[entry](sp, factor)


class TestPhysicalCheck:
    def test_one_unphysical_column_rejected(self):
        sp = two_frame_space()
        C = ks.build_constraint(sp, {0: 1.0, 1: 1.0})
        Pi = ks.group_average(sp, C)
        rng = np.random.default_rng(127)
        good = Pi.apply(rng.normal(size=(sp.dim, 2)))
        bad = rng.normal(size=sp.dim)
        ks.check_physical(C, good)
        with pytest.raises(NotPhysical):
            ks.check_physical(C, bad)
        # a large physical column must not hide a small unphysical one
        block = np.stack([1e9 * good[:, 0], 1e-3 * bad, good[:, 1]], axis=1)
        with pytest.raises(NotPhysical):
            ks.check_physical(C, block)


class TestSplitAdjoint:
    SPACE = ks.tensor_space([ks.FactorSpec.frame(4), ks.FactorSpec.frame(6),
                             ks.FactorSpec.system([0.0, 1.0, 2.0])])

    def cases(self, rng):
        """(name, operator, its support) on every factor: a non-hermitian
        local matrix, a complex diagonal, a constant (empty support), and
        three that do not cut: a diagonal across two factors, a dense form
        and a composed one."""
        sp = self.SPACE
        for k, n in enumerate(sp.dims):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            d = rng.normal(size=n) + 1j * rng.normal(size=n)
            yield f"local{k}", ks.factor_operator(sp, k, m), {k}
            yield f"diag{k}", ks.factor_operator(sp, k, d), {k}
        yield "constant", ks.factor_operator(sp, 1, (2 - 1j) * np.eye(6)), set()
        two = ks.factor_operator(sp, 0, np.arange(4.0)) + \
            ks.factor_operator(sp, 2, np.arange(3.0))
        yield "across", two, {0, 2}
        yield "dense", ks.KinOperator.from_matrix(
            sp, ks.factor_operator(sp, 1, np.arange(6.0)).matrix), {1}
        yield "composed", ks.factor_operator(sp, 0, np.ones((4, 4))) @ \
            ks.factor_operator(sp, 0, np.ones((4, 4))), {0}

    @pytest.mark.parametrize("factor", [0, 1, 2])
    def test_the_cut_acts_as_the_adjoint(self, factor):
        sp = self.SPACE
        rest = ks.reduced_space(sp, factor)
        rng = np.random.default_rng(41)
        x = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
        for name, op, support in self.cases(rng):
            part = ks.split_adjoint(op, factor, rest)
            want = op.apply_adjoint(x)
            if name in ("dense", "composed") or (factor in support
                                                 and len(support) > 1):
                assert part is None, name
            elif factor in support:
                assert isinstance(part, np.ndarray), name
                assert part.shape == (sp.dims[factor],) * 2
                got = sp.apply_factor(factor, part, x)
                assert np.max(np.abs(got - want)) < 1e-12, name
            else:
                assert part.space is rest, name
                # the rest operator on every slice of the frame axis
                xs = np.moveaxis(x.reshape(sp.dims), factor, 0)
                got = np.stack([part.apply(s.reshape(-1)).reshape(s.shape)
                                for s in xs])
                got = np.moveaxis(got, 0, factor).reshape(-1)
                assert np.max(np.abs(got - want)) < 1e-12, name


# values k*dp moved by 0, 1e-10, 1e-8 or 0.3 steps off dp*Z, and a spacing
# an exact Fraction reproduces or not
LATTICE_DP = st.sampled_from([1.0, 0.5, 0.1, 0.7, np.pi / 4])
LATTICE_VALUE = st.tuples(st.integers(-40, 40), st.sampled_from(
    [0.0, 1e-10, -1e-10, 1e-8, -1e-8, 0.3, -0.3]))


@settings(max_examples=300)
@given(LATTICE_DP, st.lists(LATTICE_VALUE, min_size=1, max_size=4))
def test_lattice_checks_match_the_fraction_criterion(dp, steps):
    values = [(k + off) * dp for k, off in steps]
    off_lattice = [v for v in values if not on_lattice_oracle(v, dp)]
    frame = ks.FactorSpec.frame(4, dp)
    system = ks.FactorSpec.system(values, name="S")
    if off_lattice:
        # tensor_space names the first value off the lattice
        with pytest.raises(IncommensurableSpectrum) as err:
            ks.tensor_space([frame, system])
        assert str(err.value) == (
            f"system eigenvalue {np.float64(off_lattice[0])} of factor S "
            f"is off the frame momentum lattice (dp={dp})")
    else:
        ks.tensor_space([frame, system])
    # build_constraint on an explicit frame diagonal holding each value
    sp = ks.tensor_space([frame])
    for v in values:
        diag = np.array([v, 0.0, 0.0, 0.0])
        if on_lattice_oracle(v, dp):
            ks.build_constraint(sp, {0: diag})
        else:
            with pytest.raises(IncommensurableSpectrum) as err:
                ks.build_constraint(sp, {0: diag})
            assert str(err.value) == (
                "constraint spectrum is off the frame momentum lattice")


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e-12, 1e-100])
def test_project_physical_does_not_depend_on_the_scale_of_psi(scale):
    sp = two_frame_space()
    Pi = ks.group_average(sp, ks.build_constraint(sp, {0: 1.0, 1: 1.0}))
    rng = np.random.default_rng(5)
    psi = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
    want = ks.project_physical(Pi, psi)
    got = ks.project_physical(Pi, scale * psi)
    assert np.max(np.abs(got - want)) < 1e-15


def test_project_physical_rejects_a_state_off_the_kernel():
    sp = two_frame_space()
    Pi = ks.group_average(sp, ks.build_constraint(sp, {0: 1.0, 1: 1.0}))
    off = np.where(Pi.diag.real == 0, 1.0, 0.0) + 0j
    for psi in (np.zeros(sp.dim, complex), off, 1e-20 * off):
        with pytest.raises(EmptyKernel):
            ks.project_physical(Pi, psi)
