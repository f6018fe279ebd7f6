"""Abstract domains for the :mod:`repro_lint.absint` interpreter.

The value domain lives here, kept free of any AST knowledge so the
property suite can exercise it algebraically: :class:`Interval`, the
classic interval lattice over the extended reals, with *open-bound* flags
so a branch refinement like ``total > 0`` really excludes zero (the fact
RL015 needs to prove a normalization guard present).  A degenerate closed
interval (``lo == hi``) doubles as the constant-propagation lattice:
:meth:`Interval.as_constant` recovers the value.  ``join`` is the interval
hull, ``meet`` the intersection (``None`` when empty — an infeasible
path), and every transfer the interpreter applies is monotone, so the
solver's ``WIDENING_CAP`` is the only termination device needed (a
counting loop that keeps ascending is reported ``converged=False`` and its
function is skipped, never mis-judged).

A per-program-point state is a frozenset of ``(name, Interval)`` pairs
(missing name = ⊤/no information), because the generic solver compares
states with ``==`` — frozensets give structural equality and hashing for
free and keep joins allocation-cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """One interval of the extended reals, bounds optionally open.

    ``Interval(0.0, _INF, lo_open=True)`` is ``(0, +inf)`` — the state of a
    total after a ``total > 0`` guard.  Invariants: ``lo <= hi``; an
    infinite bound is never "open" (openness at infinity is meaningless and
    is normalised away in :meth:`make`).
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    @classmethod
    def make(
        cls, lo: float, hi: float, lo_open: bool = False, hi_open: bool = False
    ) -> "Interval | None":
        """Normalised constructor; ``None`` when the interval is empty."""
        if math.isnan(lo) or math.isnan(hi):
            return TOP
        if lo == -_INF:
            lo_open = False
        if hi == _INF:
            hi_open = False
        if lo > hi:
            return None
        if lo == hi and (lo_open or hi_open):
            return None
        return cls(lo, hi, lo_open, hi_open)

    @classmethod
    def constant(cls, value: float) -> "Interval":
        """The degenerate interval ``[value, value]``."""
        return cls(float(value), float(value))

    # -- predicates ---------------------------------------------------------

    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF

    def as_constant(self) -> float | None:
        """The exact value when this interval is a single point."""
        if self.lo == self.hi and not self.lo_open and not self.hi_open:
            return self.lo
        return None

    def contains(self, value: float) -> bool:
        if value < self.lo or (value == self.lo and self.lo_open):
            return False
        if value > self.hi or (value == self.hi and self.hi_open):
            return False
        return True

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` ⊑ ``self`` (every point of other is in self)."""
        lo_ok = self.lo < other.lo or (
            self.lo == other.lo and (not self.lo_open or other.lo_open)
        )
        hi_ok = self.hi > other.hi or (
            self.hi == other.hi and (not self.hi_open or other.hi_open)
        )
        return lo_ok and hi_ok

    def may_be_zero(self) -> bool:
        return self.contains(0.0)

    def definitely_negative(self) -> bool:
        return self.hi < 0 or (self.hi == 0 and self.hi_open)

    def definitely_positive(self) -> bool:
        return self.lo > 0 or (self.lo == 0 and self.lo_open)

    def definitely_at_least(self, value: float) -> bool:
        return self.lo > value or (self.lo == value and not math.isinf(value))

    def definitely_at_most(self, value: float) -> bool:
        return self.hi < value or (self.hi == value and not math.isinf(value))

    def definitely_below(self, value: float) -> bool:
        return self.hi < value or (self.hi == value and self.hi_open)

    def definitely_above(self, value: float) -> bool:
        return self.lo > value or (self.lo == value and self.lo_open)

    # -- lattice ------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        """Interval hull (least upper bound)."""
        if self.lo < other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo < self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open and other.lo_open
        if self.hi > other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi > self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open and other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def meet(self, other: "Interval") -> "Interval | None":
        """Intersection; ``None`` when the intervals do not overlap."""
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return Interval.make(lo, hi, lo_open, hi_open)

    # -- arithmetic ---------------------------------------------------------

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.hi_open, self.lo_open)

    def add(self, other: "Interval") -> "Interval":
        return Interval(
            _ext_add(self.lo, other.lo, -_INF),
            _ext_add(self.hi, other.hi, _INF),
            self.lo_open or other.lo_open,
            self.hi_open or other.hi_open,
        )

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        candidates = [
            _ext_mul(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        lo, hi = min(candidates), max(candidates)
        # Bound openness is kept conservative (closed) except for the one
        # fact the checkers rely on: strictly-positive times strictly-
        # positive stays strictly positive (and symmetrically for signs).
        # repro-lint: ignore[RL005] bounds are stored endpoints, zero is a sentinel
        lo_open = lo == 0.0 and (
            (self.definitely_positive() and other.definitely_positive())
            or (self.definitely_negative() and other.definitely_negative())
        )
        # repro-lint: ignore[RL005] bounds are stored endpoints, zero is a sentinel
        hi_open = hi == 0.0 and (
            (self.definitely_positive() and other.definitely_negative())
            or (self.definitely_negative() and other.definitely_positive())
        )
        interval = Interval.make(lo, hi, lo_open, hi_open)
        return interval if interval is not None else TOP

    def div(self, other: "Interval") -> "Interval":
        """Division; ⊤ when the divisor may be zero (RL015's business)."""
        if other.may_be_zero():
            return TOP
        # Zero excluded, so the divisor is entirely one-signed; an open
        # bound sitting exactly on zero inverts to an infinity of that sign.
        sign = 1.0 if other.lo >= 0 else -1.0

        def inverse(bound: float) -> float:
            # repro-lint: ignore[RL005] an open bound stores exactly 0.0
            if bound == 0.0:
                return math.copysign(_INF, sign)
            if math.isinf(bound):
                return 0.0
            return 1.0 / bound

        reciprocal = Interval.make(
            inverse(other.hi), inverse(other.lo), other.hi_open, other.lo_open
        )
        if reciprocal is None:
            return TOP
        return self.mul(reciprocal)

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return self.neg()
        hull = self.neg().join(self)
        return Interval(0.0, hull.hi, False, hull.hi_open)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


#: The no-information element: every real number.
TOP = Interval(-_INF, _INF)
#: Every non-negative real — what ``len()`` and ``abs()`` guarantee.
NON_NEGATIVE = Interval(0.0, _INF)


def _ext_add(a: float, b: float, on_conflict: float) -> float:
    """Extended-real addition; ``inf + -inf`` collapses to ``on_conflict``."""
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        return on_conflict
    return a + b


def _ext_mul(a: float, b: float) -> float:
    """Extended-real multiplication with ``0 * inf == 0`` (interval bound)."""
    # repro-lint: ignore[RL005] exact-zero operands define 0*inf here
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


# -- name -> fact states ------------------------------------------------------
#
# A state is a ``frozenset`` of (name, Interval) pairs with AT MOST one pair
# per name (the transfer functions maintain that invariant).


def state_get(state: frozenset, name: str):
    """The single fact for ``name`` in a one-fact-per-name state."""
    for pair_name, fact in state:
        if pair_name == name:
            return fact
    return None


def state_set(state: frozenset, name: str, fact) -> frozenset:
    """Replace the facts of ``name`` (drop them when ``fact`` is ⊤/None)."""
    kept = frozenset(pair for pair in state if pair[0] != name)
    if fact is None or (isinstance(fact, Interval) and fact.is_top()):
        return kept
    return kept | {(name, fact)}


def state_kill(state: frozenset, name: str) -> frozenset:
    return frozenset(pair for pair in state if pair[0] != name)


def join_value_states(left: frozenset, right: frozenset) -> frozenset:
    """Pointwise interval hull; a name missing on either side joins to ⊤."""
    if left == right:
        return left
    left_map = dict(left)
    joined = []
    for name, fact in right:
        mine = left_map.get(name)
        if mine is None:
            continue
        hull = mine.join(fact)
        if not hull.is_top():
            joined.append((name, hull))
    return frozenset(joined)
