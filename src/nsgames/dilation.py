"""Finite-dimensional dilation theory and products of operator measures.

Construction used throughout: the block square-root Naimark dilation.  For a
POVM E with k effects on C^d, the isometry V : C^d -> C^{dk} stacks the PSD
square roots of the effects,

    V h = (E_0^{1/2} h, ..., E_{k-1}^{1/2} h),

and P_a is the projection onto coordinate block a, so V* P_a V = E_a and
V* V = sum_a E_a = I.  Everything else here (simultaneous and joint commuting
dilations) is assembled from this brick plus unitary rotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import FiniteChannel, Povm, Pvm, channels_commute
from .errors import (ENTRY_BUDGET, FACTOR_TOL, INVARIANT_TOL, SYMMETRIZE_TOL, PreconditionError,
                     ValidationError, require_budget)
from .linalg import (commutator_norm, extend_isometry_to_unitary, first_above, hermitize,
                     isometry_defect, kron, max_abs, psd_sqrt)


def _check_isometry(dilation, *residuals: tuple[str, float]) -> None:
    """Freeze a new dilation's isometry V and store ||V*V - I||_max.

    Raises ValidationError("isometry") for a defect above ``FACTOR_TOL``, and
    ValidationError naming the first (invariant, residual) pair whose
    residual exceeds ``INVARIANT_TOL``.
    """
    isometry = np.asarray(dilation.isometry, dtype=complex)
    defect = isometry_defect(isometry)
    if defect > FACTOR_TOL:
        raise ValidationError("isometry", residual=defect)
    for invariant, residual in residuals:
        if residual > INVARIANT_TOL:
            raise ValidationError(invariant, residual=residual)
    isometry.setflags(write=False)
    object.__setattr__(dilation, "isometry", isometry)
    object.__setattr__(dilation, "isometry_residual", defect)


@dataclass(frozen=True, eq=False, repr=False)
class Dilation:
    """An isometry V : H -> K together with projective data dilating a POVM.

    ``dilated`` is a single Pvm (naimark) or a tuple of Pvm (one per channel
    input, sharing the isometry).  ``residual`` is the worst entrywise error
    max ||V* P_a V - E_a||_max over all dilated families, and
    ``isometry_residual`` is ||V*V - I||_max.
    """

    isometry: np.ndarray
    dilated: Pvm | tuple[Pvm, ...]
    residual: float
    isometry_residual: float = field(init=False)

    def __post_init__(self):
        _check_isometry(self, ("dilation reconstruction", self.residual))

    @property
    def dilation_dim(self) -> int:
        return self.isometry.shape[0]

    @property
    def source_dim(self) -> int:
        return self.isometry.shape[1]

    def __repr__(self) -> str:
        return (f"Dilation(H=C^{self.source_dim}, K=C^{self.dilation_dim}, "
                f"residual={self.residual:.2e})")


@dataclass(frozen=True, eq=False, repr=False)
class CommutingDilation:
    """Joint dilation of a commuting POVM pair to commuting PVMs P, Q on K.

    Satisfies V* P_a Q_b V = E_a F_b within ``INVARIANT_TOL``;
    ``cross_residual`` is max_{a,b} ||[P_a, Q_b]||_max (zero by construction
    here, since P and Q are marginals of one orthogonal family), and
    ``isometry_residual`` is ||V*V - I||_max.
    """

    isometry: np.ndarray
    pvm_p: Pvm
    pvm_q: Pvm
    cross_residual: float
    residual: float
    isometry_residual: float = field(init=False)

    def __post_init__(self):
        _check_isometry(self, ("commuting dilation", self.cross_residual),
                        ("dilation reconstruction", self.residual))

    @property
    def dilation_dim(self) -> int:
        return self.isometry.shape[0]

    def __repr__(self) -> str:
        return (f"CommutingDilation(K=C^{self.dilation_dim}, "
                f"cross={self.cross_residual:.2e}, residual={self.residual:.2e})")


def _block_projections(dim: int, blocks: int) -> np.ndarray:
    """Coordinate-block projections on C^{dim*blocks}, shape (blocks, K, K)."""
    total = dim * blocks
    require_budget((blocks * total) ** 2, ENTRY_BUDGET, "dilated PVM orthogonality check")
    effects = np.zeros((blocks, total, total), dtype=complex)
    for a in range(blocks):
        sl = slice(a * dim, (a + 1) * dim)
        effects[a, sl, sl] = np.eye(dim)
    return effects


def _root_isometry(povm: Povm) -> np.ndarray:
    """The block square-root isometry V h = (E_0^{1/2} h, ..., E_{k-1}^{1/2} h)."""
    return np.vstack([psd_sqrt(effect) for effect in povm.effects])


def _reconstruction_residual(isometry: np.ndarray, projections: np.ndarray,
                             effects: np.ndarray) -> float:
    """max_a ||V* P_a V - E_a||_max over two (k, ., .) stacks."""
    return max_abs(isometry.conj().T @ projections @ isometry - effects)


def naimark(povm: Povm) -> Dilation:
    """Block square-root Naimark dilation of a POVM to a PVM on C^{d*k}."""
    isometry = _root_isometry(povm)
    projections = Pvm(_block_projections(povm.dim, povm.outcomes))
    residual = _reconstruction_residual(isometry, projections.effects, povm.effects)
    return Dilation(isometry, projections, residual)


def simultaneous_naimark(channel: FiniteChannel) -> Dilation:
    """Dilate every POVM of a channel with one input-independent isometry.

    Per input x the naimark isometry V_x is completed to a unitary U_x; the
    rotated block projections P(a|x) = U_x* B_a U_x then satisfy
    W* P(a|x) W = V_x* B_a V_x = E(a|x) for the fixed coordinate inclusion
    W : C^d -> C^{dk}.  Requires a common outcome count across inputs (pad the
    channel first if members differ).
    """
    counts = {p.outcomes for p in channel.povms}
    if len(counts) != 1:
        raise ValidationError("common outcome count",
                              detail=f"counts {sorted(counts)}; use FiniteChannel.padded()")
    d, k = channel.dim, channel.povms[0].outcomes
    inclusion = np.eye(d * k, d, dtype=complex)
    blocks = _block_projections(d, k)
    dilated = []
    residual = 0.0
    for povm in channel.povms:
        u_x = extend_isometry_to_unitary(_root_isometry(povm))
        pvm_x = Pvm(np.einsum("ji,ajk,kl->ail", u_x.conj(), blocks, u_x))
        dilated.append(pvm_x)
        residual = max(residual,
                       _reconstruction_residual(inclusion, pvm_x.effects, povm.effects))
    return Dilation(inclusion, tuple(dilated), residual)


def product_povm_commuting(e: Povm, f: Povm) -> Povm:
    """Product measure of a commuting pair: G_(a,b) = E_a F_b over A x B.

    The products are Hermitized.  The Hermiticity defect of E_a F_b is the
    commutator norm ||[E_a, F_b]||_max; a defect above ``SYMMETRIZE_TOL`` is
    an error (it signals genuinely non-commuting inputs rather than
    round-off), reported for the first such pair (a, b).  Outcome pairs are
    encoded row-major: (a, b) -> a * outcomes(F) + b.
    """
    norms = commutator_norm(e.effects, f.effects)
    first = first_above(norms, SYMMETRIZE_TOL)
    if first is not None:
        raise PreconditionError(
            f"effects do not commute: Hermiticity defect {norms[first]:.3e} "
            "at pair ({},{})".format(*first), witness=first)
    return Povm(hermitize(e.effects[:, None] @ f.effects[None]).reshape(-1, e.dim, e.dim))


def joint_commuting_dilation(e: Povm, f: Povm) -> CommutingDilation:
    """Dilate a commuting POVM pair to exactly commuting PVMs on one space.

    Every commutator ||[E_a, F_b]||_max must be at most ``INVARIANT_TOL``;
    otherwise PreconditionError names the first worst pair (a, b).  The
    product POVM G_(a,b) = E_a F_b is Naimark-dilated to an orthogonal
    family R_(a,b); the marginals P_a = sum_b R_(a,b) and Q_b = sum_a R_(a,b)
    are PVMs that commute exactly (they are block sums of one orthogonal
    family) and reconstruct the products: V* P_a Q_b V = V* R_(a,b) V = E_a F_b.
    """
    norms = commutator_norm(e.effects, f.effects)
    worst = float(norms.max())
    if worst > INVARIANT_TOL:
        arg = tuple(int(i) for i in np.unravel_index(int(np.argmax(norms)), norms.shape))
        raise PreconditionError(
            f"POVMs do not commute (residual {worst:.3e} at pair {arg})", witness=arg)
    base = naimark(product_povm_commuting(e, f))
    dim = base.dilation_dim
    joint = base.dilated.effects.reshape(e.outcomes, f.outcomes, dim, dim)
    pvm_p, pvm_q = Pvm(joint.sum(axis=1)), Pvm(joint.sum(axis=0))
    cross = float(commutator_norm(pvm_p.effects, pvm_q.effects).max())
    v = base.isometry
    residual = _reconstruction_residual(
        v, (pvm_p.effects[:, None] @ pvm_q.effects[None]).reshape(-1, dim, dim),
        (e.effects[:, None] @ f.effects[None]).reshape(-1, e.dim, e.dim))
    return CommutingDilation(v, pvm_p, pvm_q, cross, residual)


def tensor_povm(e: Povm, f: Povm) -> Povm:
    """Tensor product POVM on H (x) K with effects E_a (x) F_b.

    Spectral measures are preserved: two Pvm inputs yield a Pvm.
    """
    effects = np.stack([
        kron(e.effects[a], f.effects[b])
        for a in range(e.outcomes) for b in range(f.outcomes)
    ])
    cls = Pvm if isinstance(e, Pvm) and isinstance(f, Pvm) else Povm
    return cls(effects)


def product_channel(e: FiniteChannel, f: FiniteChannel, mode: str = "tensor") -> FiniteChannel:
    """Pointwise product channel over inputs X x Y and outcomes A x B.

    mode "tensor" uses E(a|x) (x) F(b|y) on the tensor product space; mode
    "commuting" uses the operator products E(a|x) F(b|y) on the common space
    (requires commuting ranges).  Members are zero-padded to common outcome
    counts first so the product has a rectangular outcome alphabet; inputs and
    outcomes are encoded row-major, (x, y) -> x * inputs(F) + y.
    """
    if mode not in ("tensor", "commuting"):
        raise ValueError(f"unknown mode {mode!r}")
    e, f = e.padded(), f.padded()
    if mode == "commuting":
        channels_commute(e, f).require()
        build = product_povm_commuting
    else:
        build = tensor_povm
    povms = [build(pe, pf) for pe in e.povms for pf in f.povms]
    return FiniteChannel(povms)
