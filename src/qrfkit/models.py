"""The four worked models binding all layers together.

newtonian  -- clock + free particle under C = p_C + p_S^2/2
nparticle  -- N translation-invariant particles under C = sum_i p_i (V = 0:
              the momentum constraint and every transformation law tested
              here involve only position/momentum kinematics, so the free
              case carries all golden values)
su2        -- two frames + spin-j system under C = p_A + p_B - beta*J_z
degenerate -- one frame with C = p_R^2 - G_S, G_S >= 0

Every model is made by one recipe, ``_frame_model``: its frames are ideal,
and frame X carries the canonical pair (q_X, p_X) with q_X the orientation
operator, the first moment of the covariant POVM (``relobs``), and p_X the
momentum.  A builder keeps only what is its own: the factors, the system
generators and the constraint.

Physical states are built directly in the momentum representation by
solving the constraint for one frame momentum, which keeps them exactly on
the polynomial constraint surface; position localization is controlled by
Gaussian momentum profiles (correlations enter as shear terms in the
quadratic form).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import kinspace as ks
from . import ncalg
from .errors import ConfigError
from .kinspace import FactorSpec, KinOperator
from .ncalg import GeneratorSet
from .relobs import OrientationFrame, orientation_operator

PARTICLE_LABELS = "ABCDEFGH"
_SOLVE_FACTOR = 0  # the frame whose momentum a Gaussian state solves for


@dataclass(frozen=True)
class ModelSpec:
    """Parameters for one concrete model."""

    name: str
    n_particles: int = 3
    lattice_size: int = 8
    clock_size: int = 16
    system_size: int = 8
    dp: float = 1.0
    beta: int = 1          # su2 coupling, integer multiple of dp/hbar
    j: int = 1             # su2 spin (integer)
    levels: tuple = (1.0, 1.0)  # degenerate: the sqrt(G_S) values
    hbar: float = 1.0


@dataclass(eq=False)
class Model:
    spec: ModelSpec
    space: ks.LatticeSpace
    gens: GeneratorSet
    assignment: dict
    frames: dict
    constraint: KinOperator
    constraint_elem: ncalg.AlgebraElement
    Pi: KinOperator
    plain_diag: np.ndarray        # un-reduced constraint diagonal
    frame_pairs: dict             # frame label -> (q_name, p_name)

    @property
    def hbar(self) -> float:
        return self.space.hbar

    def g_s_elem(self, label: str) -> ncalg.AlgebraElement:
        """System generator seen from the given frame: C - p_frame."""
        _, p_name = self.frame_pairs[label]
        return self.constraint_elem - self.gens.gen(p_name)


def spin_matrices(j: int, hbar: float):
    """Standard spin-j matrices in the J_z eigenbasis (m = +j..-j)."""
    m = np.arange(j, -j - 1, -1, dtype=float)
    jz = hbar * np.diag(m)
    lower = m[1:]
    c = hbar * np.sqrt(j * (j + 1) - lower * (lower + 1))
    jp = np.diag(c, k=1)
    jx = (jp + jp.conj().T) / 2
    jy = (jp - jp.conj().T) / (2j)
    return jx, jy, jz


def position_matrix(N: int, dp: float, hbar: float) -> np.ndarray:
    """Position operator of an N-point momentum lattice (Fourier dual)."""
    p = dp * np.arange(-N // 2, N // 2)
    dx = 2 * np.pi * hbar / (N * dp)
    x = dx * np.arange(-N // 2, N // 2)
    F = np.exp(-1j * np.outer(p, x) / hbar)
    return (F * x) @ F.conj().T / N


def build_model(spec: ModelSpec) -> Model:
    if spec.name == "nparticle":
        return _build_nparticle(spec)
    if spec.name == "su2":
        return _build_su2(spec)
    if spec.name == "newtonian":
        return _build_newtonian(spec)
    if spec.name == "degenerate":
        return _build_degenerate(spec)
    raise ConfigError(f"unknown model {spec.name!r}")


def _exact(x):
    """``x`` as the Fraction of denominator <= 10**6 that reproduces it, else
    as a float (so the coefficient it enters is float-tainted)."""
    f = Fraction(x).limit_denominator(10 ** 6)
    return f if float(f) == x else float(x)


def _frame_model(spec: ModelSpec, factors, gens: GeneratorSet, c_elem,
                 system_ops: dict, constraint=None) -> Model:
    """The model of ``spec`` on ``factors``, frames first: frame factor i,
    keyed by its name, carries the i-th canonical pair (q, p) of ``gens``.
    ``system_ops`` maps each other generator to (factor, matrix).  C is
    ``constraint(space, assignment)``, else the sum of every factor's
    generator (``build_constraint``); ``c_elem`` is C in the algebra."""
    space = ks.tensor_space(factors, hbar=spec.hbar)
    assignment, frames, pairs = {}, {}, {}
    for i, f in enumerate(space.factors):
        if f.is_frame:
            q, p = pairs[f.name] = gens.names[2 * i:2 * i + 2]
            frames[f.name] = OrientationFrame(space, i)
            assignment[q] = orientation_operator(frames[f.name])
            assignment[p] = ks.momentum_operator(space, i)
    for name, (i, mat) in system_ops.items():
        assignment[name] = ks.factor_operator(space, i, mat)
    if constraint is None:
        terms = dict.fromkeys(range(len(factors)), 1.0)
        plain = ks._generator_sum(space, terms)
        C = ks._reduced_constraint(space, plain)
    else:
        C = constraint(space, assignment)
        plain = C.diag.real.copy()
    return Model(spec, space, gens, assignment, frames, C, c_elem,
                 ks.group_average(space, C), plain, pairs)


def _build_nparticle(spec: ModelSpec) -> Model:
    n = ks.integer("n_particles", spec.n_particles)
    if not 2 <= n <= len(PARTICLE_LABELS):
        raise ConfigError("nparticle supports 2..8 particles")
    labels = PARTICLE_LABELS[:n]
    factors = [FactorSpec.frame(spec.lattice_size, spec.dp, lab)
               for lab in labels]
    gens = GeneratorSet.canonical([(f"q_{lab}", f"p_{lab}") for lab in labels])
    c_elem = sum((gens.gen(f"p_{lab}") for lab in labels), gens.zero())
    return _frame_model(spec, factors, gens, c_elem, {})


def _build_su2(spec: ModelSpec) -> Model:
    if spec.j < 1 or int(spec.j) != spec.j:
        raise ConfigError("su2 model needs an integer spin j >= 1")
    frame_factors = [FactorSpec.frame(spec.lattice_size, spec.dp, "A"),
                     FactorSpec.frame(spec.lattice_size, spec.dp, "B")]
    # the system spectrum divides by hbar before tensor_space checks it
    beta_val = spec.beta * spec.dp / ks.positive_finite("hbar", spec.hbar)
    jx, jy, jz = spin_matrices(int(spec.j), spec.hbar)
    gs_spec = -beta_val * np.diag(jz).real
    factors = frame_factors + [FactorSpec.system(gs_spec, name="S")]
    gens = GeneratorSet.canonical_with_su2([("q_A", "p_A"), ("q_B", "p_B")])
    # beta*dp/hbar: exact when beta and dp are, float-tainted otherwise
    beta_coef = ncalg.Coef({-1: (_exact(spec.beta) * _exact(spec.dp), 0)})
    c_elem = (gens.gen("p_A") + gens.gen("p_B")
              - beta_coef * gens.gen("J_z"))
    return _frame_model(spec, factors, gens, c_elem,
                        {"J_x": (2, jx), "J_y": (2, jy), "J_z": (2, jz)})


def _build_newtonian(spec: ModelSpec) -> Model:
    dp = spec.dp
    clock = FactorSpec.frame(spec.clock_size, dp, "C")
    n_s = spec.system_size
    p_s = dp * np.arange(-n_s // 2, n_s // 2)
    factors = [clock, FactorSpec.system(p_s * p_s / 2.0, name="S")]
    gens = GeneratorSet.canonical([("t_C", "p_C"), ("q_S", "p_S")])
    c_elem = gens.gen("p_C") + Fraction(1, 2) * (gens.gen("p_S")
                                                 * gens.gen("p_S"))
    # the system pair (q_S, p_S) is not a frame: q_S is the Fourier dual,
    # which divides by hbar before tensor_space checks it
    hbar = ks.positive_finite("hbar", spec.hbar)
    return _frame_model(spec, factors, gens, c_elem, {
        "p_S": (1, np.diag(p_s)), "q_S": (1, position_matrix(n_s, dp, hbar))})


def _build_degenerate(spec: ModelSpec) -> Model:
    N = spec.lattice_size
    frame = FactorSpec.frame(N, spec.dp, "R")
    levels = np.asarray(spec.levels, dtype=float)
    if np.any(levels < 0):
        raise ConfigError("sqrt(G_S) levels must be non-negative")
    if np.any(levels >= N * spec.dp / 2):
        raise ConfigError("levels must stay inside the momentum window")
    factors = [frame, FactorSpec.system(levels * levels, name="S")]
    gens = GeneratorSet.canonical([("q_R", "p_R")], centrals=("H",))
    c_elem = (gens.gen("p_R") * gens.gen("p_R")
              - gens.gen("H") * gens.gen("H"))
    return _frame_model(
        spec, factors, gens, c_elem, {"H": (1, np.diag(levels))},
        lambda space, a: a["p_R"] @ a["p_R"] - ks.generator_operator(space, 1))


# ---------------------------------------------------------------------------
# state recipes


def random_physical_state(model: Model, rng, unwrapped: bool = True
                          ) -> np.ndarray:
    """Random state in the constraint kernel.

    ``unwrapped`` restricts to the polynomial constraint surface (plain
    momentum sum exactly zero), which every algebra-level identity assumes;
    the full cyclic kernel adds the components identified modulo the
    lattice period.
    """
    psi = np.zeros(model.space.dim, dtype=complex)
    if unwrapped:
        # where the un-reduced constraint diagonal vanishes
        idx = np.flatnonzero(ks._is_zero(model.plain_diag))
        psi[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    else:
        psi = rng.normal(size=model.space.dim) * (1 + 0j)
        psi += 1j * rng.normal(size=model.space.dim)
        psi = model.Pi.apply(psi)
    return psi / np.linalg.norm(psi)


def gaussian_physical_state(model: Model, *, centers_x=None, centers_p=None,
                            sigmas=None, shear=None, system_amp=None
                            ) -> np.ndarray:
    """Localized physical state built on the solved constraint surface.

    The momentum amplitude over the factors other than factor 0 (the
    module constant ``_SOLVE_FACTOR``) is a (possibly sheared) Gaussian,
    N/8 lattice steps wide unless ``sigmas`` says otherwise, with position
    centers entering as linear phases; the momentum of factor 0 is fixed
    by the constraint and the configuration is dropped when it would leave
    the momentum window, so the state lies exactly on the polynomial
    constraint surface.  ``system_amp`` gives the amplitude vector on a
    system factor (e.g. a spin state), one entry per basis state of that
    factor (ConfigError otherwise).  Every mapping is keyed by factor
    index (``shear`` by index pairs), and a key outside the factors, or a
    ``system_amp`` key on a frame, raises ConfigError, as does a recipe
    that is zero at every point of the kernel, or whose kept amplitudes
    overflow (a shear may overflow off the kernel: those points are
    dropped without a warning).  Each profile is 1-d over one factor (2-d
    for a shear) and broadcast along its axes: only the product and the
    kernel mask are D-point arrays.
    """
    space = model.space
    n = len(space.dims)
    centers_x = _mapping("centers_x", centers_x)
    centers_p = _mapping("centers_p", centers_p)
    sigmas = _mapping("sigmas", sigmas)
    shear = _mapping("shear", shear)
    system_amp = _mapping("system_amp", system_amp)
    shear_factors = [i for pair in shear for i in pair]
    for name, keys in (("centers_x", centers_x), ("centers_p", centers_p),
                       ("sigmas", sigmas), ("shear", shear_factors),
                       ("system_amp", system_amp)):
        bad = [k for k in keys if k not in range(n)]
        if bad:
            raise ConfigError(f"{name} names factor {bad[0]!r}, outside "
                              f"[0, {n})")
    frames = [i for i in system_amp if space.factors[i].is_frame]
    if frames:
        raise ConfigError(f"system_amp names frame factor {frames[0]}")
    grids = [f.generator_spectrum for f in space.factors]
    hbar = space.hbar

    def along(i, profile):
        shape = [1] * n
        shape[i] = -1
        return np.reshape(profile, shape)

    amp = 1.0
    for i, f in enumerate(space.factors):
        if i == _SOLVE_FACTOR:
            continue
        if not f.is_frame:
            if i in system_amp:
                v = np.asarray(system_amp[i])
                if v.shape != (f.N,):
                    raise ConfigError(f"system_amp[{i}] must hold {f.N} "
                                      f"amplitudes, got shape {v.shape}")
                amp = amp * along(i, v)
            continue
        sig = sigmas.get(i, f.N / 8.0 * f.dp)
        p0 = centers_p.get(i, 0.0)
        x0 = centers_x.get(i, 0.0)
        pv = grids[i]
        amp = amp * along(i, np.exp(-(pv - p0) ** 2 / (4 * sig ** 2)
                                    - 1j * x0 * pv / hbar))
    # keep exact points of the polynomial constraint surface only
    mask = ks._is_zero(model.plain_diag).reshape(space.dims)
    # a shear may overflow off the kernel, where the mask drops the point;
    # a kept point that overflows makes the norm non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for (i, k), gamma in shear.items():
            pi = along(i, grids[i] - centers_p.get(i, 0.0))
            pk = along(k, grids[k] - centers_p.get(k, 0.0))
            amp = amp * np.exp(gamma * pi * pk)
        x0s = centers_x.get(_SOLVE_FACTOR, 0.0)
        amp = amp * along(_SOLVE_FACTOR,
                          np.exp(-1j * x0s * grids[_SOLVE_FACTOR] / hbar))
        psi = np.where(mask, amp, 0.0).reshape(-1)
        norm = np.linalg.norm(psi)
    if not np.isfinite(norm):
        raise ConfigError("state recipe overflows on the kernel")
    # the mask selects exact values, with no cancellation to leave rounding
    # noise: any kept point makes a state, whatever the scale or the weight
    # off the kernel
    if norm == 0:
        raise ConfigError("state recipe has no support on the kernel")
    return psi / norm


def _mapping(name: str, value) -> dict:
    """A copy of the optional mapping argument ``name``; {} for None."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be a mapping keyed by factor index, "
                          f"not {type(value).__name__}")
    return dict(value)


def spin_coherent(j: int, theta: float, phi: float) -> np.ndarray:
    """Spin-coherent amplitudes in the J_z basis ordered m = +j..-j."""
    amps = []
    for m in range(j, -j - 1, -1):
        k = j - m
        amps.append(np.sqrt(comb(2 * j, k))
                    * np.cos(theta / 2) ** (2 * j - k)
                    * np.sin(theta / 2) ** k * np.exp(-1j * k * phi))
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)
