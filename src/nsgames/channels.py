"""POVMs, PVMs, finite operator-valued channels, and the measure <-> unital
completely positive map correspondence at finite level.

Outcome sets are finite, so a measurable set of outcomes is just a subset and
the measure of a subset is the sum of its atomic effects.  All container types
are immutable after construction (arrays are frozen), so values can be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import textfile
from .errors import (ENTRY_BUDGET, INVARIANT_TOL, SYMMETRIZE_TOL, NotPsdError, ParseError,
                     PreconditionError, ValidationError, require_budget)
from .linalg import (commutator_norm, first_above, max_abs, projection_defects,
                     require_hermitian)


def _stack_effects(effects) -> np.ndarray:
    """Normalize an effects argument to a new Hermitian (outcomes, dim, dim) array."""
    if isinstance(effects, np.ndarray) and effects.ndim == 3:
        arr = np.asarray(effects, dtype=complex)
    else:
        mats = [np.asarray(e, dtype=complex) for e in effects]
        if not mats:
            raise ValidationError("outcomes >= 1")
        arr = np.stack(mats)
    if arr.shape[0] < 1:
        raise ValidationError("outcomes >= 1")
    if arr.shape[1] != arr.shape[2]:
        raise ValidationError("square effects", detail=f"shape {arr.shape}")
    return require_hermitian(arr, tol=SYMMETRIZE_TOL)


@dataclass(frozen=True, eq=False, repr=False)
class Povm:
    """Finite positive operator-valued measure: PSD effects summing to I.

    ``effects`` has shape (outcomes, dim, dim).  Validation is total: the
    constructor either returns a value satisfying the invariants or raises a
    ValidationError naming the violated invariant and its residual.
    """

    effects: np.ndarray

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, outcomes={self.outcomes})"

    def __init__(self, effects):
        arr = _stack_effects(effects)
        arr.setflags(write=False)
        object.__setattr__(self, "effects", arr)
        self._validate()

    def _validate(self) -> None:
        smallest = np.linalg.eigvalsh(self.effects)[:, 0]
        first = first_above(-smallest, INVARIANT_TOL)
        if first is not None:
            raise NotPsdError(float(smallest[first]), detail=f"effect {first[0]}")
        completeness = max_abs(self.effects.sum(axis=0) - np.eye(self.dim))
        if completeness > INVARIANT_TOL:
            raise ValidationError("effects sum to identity", residual=completeness)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def outcomes(self) -> int:
        return self.effects.shape[0]

    def measure(self, subset: Iterable[int]) -> np.ndarray:
        """E(delta) for a subset of outcomes, as the sum of atomic effects."""
        indices = sorted(set(int(a) for a in subset))
        if any(a < 0 or a >= self.outcomes for a in indices):
            raise ValidationError("subset of outcomes", detail=str(indices))
        result = np.zeros((self.dim, self.dim), dtype=complex)
        for a in indices:
            result = result + self.effects[a]
        return result

    def padded(self, outcomes: int) -> "Povm":
        """Same POVM with zero effects appended up to ``outcomes``."""
        if outcomes < self.outcomes:
            raise ValidationError("padding cannot drop outcomes")
        if outcomes == self.outcomes:
            return self
        extra = np.zeros((outcomes - self.outcomes, self.dim, self.dim), dtype=complex)
        return type(self)(np.concatenate([self.effects, extra]))


class Pvm(Povm):
    """Projection-valued measure: mutually orthogonal projections summing to I."""

    def _validate(self) -> None:
        super()._validate()
        proj, cross = projection_defects(self.effects)
        first = first_above(proj, INVARIANT_TOL)
        if first is not None:
            raise ValidationError("effects are projections", residual=float(proj[first]),
                                  detail=f"effect {first[0]}")
        first = first_above(cross, INVARIANT_TOL)
        if first is not None:
            raise ValidationError("effects are orthogonal", residual=float(cross[first]),
                                  detail="effects {},{}".format(*first))


@dataclass(frozen=True, eq=False, repr=False)
class UcpOnFunctions:
    """Unital completely positive map on functions over a finite outcome set.

    Determined by the images of the indicator functions of the atoms; the data
    is identical to a POVM's and the correspondence is a role change only.
    """

    effects: np.ndarray

    def __repr__(self) -> str:
        return f"UcpOnFunctions(dim={self.dim}, outcomes={self.outcomes})"

    def __init__(self, effects):
        object.__setattr__(self, "effects", Povm(effects).effects)  # same invariants

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def outcomes(self) -> int:
        return self.effects.shape[0]


@dataclass(frozen=True, eq=False, repr=False)
class FiniteChannel:
    """Operator-valued information channel with a finite input alphabet.

    One POVM per input, all acting on the same space.  Members may have
    different outcome counts; :meth:`padded` aligns them with zero effects.
    """

    povms: tuple[Povm, ...]
    name: str = field(default="", compare=False)

    def __init__(self, povms: Sequence[Povm], name: str = ""):
        povms = tuple(povms)
        if not povms:
            raise ValidationError("inputs >= 1")
        dim = povms[0].dim
        for i, p in enumerate(povms):
            if not isinstance(p, Povm):
                raise ValidationError("members are POVMs", detail=f"input {i}")
            if p.dim != dim:
                raise ValidationError("members share one dimension",
                                      detail=f"input {i}: {p.dim} != {dim}")
        object.__setattr__(self, "povms", povms)
        object.__setattr__(self, "name", name)

    def __repr__(self) -> str:
        return f"FiniteChannel(inputs={self.inputs}, dim={self.dim})"

    @property
    def inputs(self) -> int:
        return len(self.povms)

    @property
    def dim(self) -> int:
        return self.povms[0].dim

    @property
    def max_outcomes(self) -> int:
        return max(p.outcomes for p in self.povms)

    def padded(self, outcomes: int | None = None) -> "FiniteChannel":
        """Channel with every member zero-padded to a common outcome count."""
        target = self.max_outcomes if outcomes is None else outcomes
        return FiniteChannel([p.padded(target) for p in self.povms], name=self.name)

    def effects_array(self) -> np.ndarray:
        """Dense (inputs, max_outcomes, dim, dim) array of effects, zero-padded."""
        effects = np.zeros((self.inputs, self.max_outcomes, self.dim, self.dim), dtype=complex)
        for x, povm in enumerate(self.povms):
            effects[x, :povm.outcomes] = povm.effects
        return effects


def povm_to_ucp(povm: Povm) -> UcpOnFunctions:
    """The unital CP map determined by a POVM; effects carried over unchanged."""
    return UcpOnFunctions(povm.effects)


def ucp_to_povm(ucp: UcpOnFunctions) -> Povm:
    """The POVM recovered from a unital CP map: E({a}) = phi(indicator of a)."""
    return Povm(ucp.effects)


def apply_ucp(ucp: UcpOnFunctions, f: Callable[[int], complex] | Sequence[complex]) -> np.ndarray:
    """Apply the map to a function on outcomes: phi(f) = sum_a f(a) E_a.

    ``f`` may be a callable on outcome indices or a sequence of values.  On the
    indicator of a subset this returns the measure of that subset.
    """
    if callable(f):
        values = np.array([f(a) for a in range(ucp.outcomes)], dtype=complex)
    else:
        values = np.asarray(f, dtype=complex)
        if values.shape != (ucp.outcomes,):
            raise ValidationError("f defined on all outcomes",
                                  detail=f"got {values.shape}, need ({ucp.outcomes},)")
    return np.tensordot(values, ucp.effects, axes=1)


def commutes_with(povm: Povm, operator: np.ndarray) -> tuple[bool, float]:
    """Whether S commutes with every effect within ``INVARIANT_TOL``; returns
    (verdict, worst residual).

    By linearity a True verdict certifies S lies in the commutant of the range
    of the associated unital CP map.
    """
    operator = require_hermitian(operator, tol=SYMMETRIZE_TOL)
    worst = float(commutator_norm(povm.effects, operator).max())
    return worst <= INVARIANT_TOL, worst


@dataclass(frozen=True)
class CommutationReport:
    commutes: bool
    residual: float
    witness: tuple[int, int, int, int] | None  # (x, a, y, b) of the worst pair

    def require(self) -> None:
        """Raise PreconditionError, with the witness, unless the channels commute."""
        if not self.commutes:
            raise PreconditionError(
                f"channels do not commute (residual {self.residual:.3e} at "
                f"(x,a,y,b)={self.witness})", witness=self.witness)


def channels_commute(e: FiniteChannel, f: FiniteChannel) -> CommutationReport:
    """Check that all cross effects E(a|x), F(b|y) commute within ``INVARIANT_TOL``.

    The witness is the first worst pair in the order x, y, a, b, and None
    when every pair commutes exactly.
    """
    norms = commutator_norm(e.effects_array(), f.effects_array()).transpose(0, 2, 1, 3)
    worst = float(norms.max())
    witness = None
    if worst > 0.0:
        x, y, a, b = np.unravel_index(int(np.argmax(norms)), norms.shape)
        witness = (int(x), int(a), int(y), int(b))
    return CommutationReport(worst <= INVARIANT_TOL, worst, witness)


# ---------------------------------------------------------------------------
# Text serialization.  One POVM:
#
#   povm dim=<d> outcomes=<k>
#   <row of d entries> x d rows, repeated per effect
#
# where each entry is "<re>,<im>" in C99 hex-float notation, giving lossless
# round-trips at full double precision.  A channel is a "channel dim=<d>
# inputs=<m>" header followed by its member POVM blocks.  The loaders read
# through ``textfile.ContentLines``, so '#' comments and blank lines are
# allowed.
# ---------------------------------------------------------------------------


def _format_entry(value: complex) -> str:
    return f"{float(value.real).hex()},{float(value.imag).hex()}"


def _parse_entry(token: str) -> complex:
    re_part, im_part = token.split(",")
    return complex(float.fromhex(re_part), float.fromhex(im_part))


def dump_povm(povm: Povm) -> str:
    lines = [f"povm dim={povm.dim} outcomes={povm.outcomes}"]
    for a in range(povm.outcomes):
        for i in range(povm.dim):
            lines.append(" ".join(_format_entry(v) for v in povm.effects[a][i]))
    return "\n".join(lines) + "\n"


def dump_channel(channel: FiniteChannel) -> str:
    parts = [f"channel dim={channel.dim} inputs={channel.inputs}"]
    for povm in channel.povms:
        parts.append(dump_povm(povm).rstrip("\n"))
    return "\n".join(parts) + "\n"


def _parse_header(lines: textfile.ContentLines, index: int, kind: str,
                  keys: tuple[str, str]) -> list[int]:
    """The two sizes named ``keys`` on a ``<kind> <key>=<n> <key>=<n>`` line."""
    lineno, tokens = lines.header(index, kind)
    fields = dict(token.partition("=")[::2] for token in tokens[1:])
    if not fields.keys() >= set(keys):
        raise ParseError(f"expected '{kind} {keys[0]}=<n> {keys[1]}=<n>'", line=lineno)
    return textfile.sizes([fields[key] for key in keys], 2, lineno)


def _parse_povm_blocks(lines: textfile.ContentLines, start: int, count: int,
                       cls=Povm) -> list[Povm]:
    """``count`` povm blocks, from content line ``start`` to the end of the text."""
    povms = []
    for _ in range(count):
        dim, outcomes = _parse_header(lines, start, "povm", ("dim", "outcomes"))
        require_budget(outcomes * dim * dim, ENTRY_BUDGET, "povm effects")
        end = start + 1 + outcomes * dim
        if len(lines) < end:
            raise ParseError(f"povm block truncated: need {outcomes * dim} matrix rows",
                             line=lines.numbers[start])
        effects = np.zeros((outcomes * dim, dim), dtype=complex)
        for i, pos in enumerate(range(start + 1, end)):
            effects[i] = textfile.row(lines.rows[pos].split(), dim, _parse_entry,
                                      lines.numbers[pos])
        povms.append(textfile.checked(lines.numbers[start], cls,
                                      effects.reshape(outcomes, dim, dim)))
        start = end
    if start != len(lines):
        raise ParseError("trailing content after the last povm block",
                         line=lines.numbers[start])
    return povms


def load_povm(text: str, cls=Povm) -> Povm:
    return _parse_povm_blocks(textfile.ContentLines(text), 0, 1, cls)[0]


def load_channel(text: str) -> FiniteChannel:
    """Parse a channel dump; a bare povm block loads as a one-input channel."""
    lines = textfile.ContentLines(text)
    if not lines or lines.rows[0].split()[0] != "channel":
        return FiniteChannel(_parse_povm_blocks(lines, 0, 1))
    dim, inputs = _parse_header(lines, 0, "channel", ("dim", "inputs"))
    povms = _parse_povm_blocks(lines, 1, inputs)
    for povm in povms:
        if povm.dim != dim:
            raise ParseError(f"member dim {povm.dim} != channel dim {dim}",
                             line=lines.numbers[0])
    return FiniteChannel(povms)
