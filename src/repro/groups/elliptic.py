"""Elliptic curves over prime fields (short Weierstrass form).

Needed for the BD + ECDSA baseline of Table 1 / Figure 1.  The implementation
is a standard affine/Jacobian-free pure-Python curve with:

* point validation, addition, doubling,
* double-and-add scalar multiplication (with a small sliding improvement of
  processing the scalar MSB-first),
* the point-at-infinity represented by ``None`` wrapped in :class:`ECPoint`.

Named curves (NIST P-192, P-256 and a secp160r1-like 160-bit curve matching
the paper's "160-bit ECDSA") live in :mod:`repro.groups.curves`, together with
a tiny 16-bit toy curve for exhaustive unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..backends.registry import active_backend
from ..exceptions import ParameterError
from ..mathutils.rand import DeterministicRNG

__all__ = ["EllipticCurve", "ECPoint", "ec_multi_scalar"]


@dataclass(frozen=True)
class EllipticCurve:
    """The curve ``y^2 = x^3 + a*x + b`` over ``GF(p)`` with base point of order ``n``.

    Attributes
    ----------
    name:
        Human-readable curve name (e.g. ``"P-256"``).
    p:
        Field prime.
    a, b:
        Curve coefficients.
    gx, gy:
        Affine coordinates of the base point ``G``.
    n:
        Prime order of ``G``.
    h:
        Cofactor (1 for all curves shipped with the library).
    """

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int
    h: int = 1

    # ---------------------------------------------------------------- basics
    def validate(self) -> None:
        """Check the discriminant and that the base point is on the curve."""
        disc = (4 * pow(self.a, 3, self.p) + 27 * pow(self.b, 2, self.p)) % self.p
        if disc == 0:
            raise ParameterError(f"curve {self.name} is singular")
        if not self.contains(self.gx, self.gy):
            raise ParameterError(f"base point of {self.name} is not on the curve")
        if self.n <= 1:
            raise ParameterError("base point order must exceed 1")

    def contains(self, x: int, y: int) -> bool:
        """Whether affine ``(x, y)`` satisfies the curve equation."""
        left = (y * y) % self.p
        right = (pow(x, 3, self.p) + self.a * x + self.b) % self.p
        return left == right

    @property
    def generator(self) -> "ECPoint":
        """The base point ``G`` as an :class:`ECPoint`."""
        return ECPoint(self, self.gx, self.gy)

    @property
    def infinity(self) -> "ECPoint":
        """The point at infinity (group identity)."""
        return ECPoint(self, None, None)

    def random_scalar(self, rng: DeterministicRNG) -> int:
        """A uniform non-zero scalar modulo the group order."""
        return rng.zq_star(self.n)

    def point(self, x: Optional[int], y: Optional[int]) -> "ECPoint":
        """Construct (and validate) a point on this curve."""
        pt = ECPoint(self, x, y)
        if not pt.is_infinity and not self.contains(pt.x, pt.y):  # type: ignore[arg-type]
            raise ParameterError(f"({x}, {y}) is not on curve {self.name}")
        return pt


class ECPoint:
    """An affine point on an :class:`EllipticCurve` (``x is None`` => infinity)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: EllipticCurve, x: Optional[int], y: Optional[int]) -> None:
        self.curve = curve
        self.x = x if x is None else x % curve.p
        self.y = y if y is None else y % curve.p

    # ---------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ECPoint):
            return NotImplemented
        return self.curve is other.curve and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((id(self.curve), self.x, self.y))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_infinity:
            return f"ECPoint({self.curve.name}, INF)"
        return f"ECPoint({self.curve.name}, x={self.x}, y={self.y})"

    # ---------------------------------------------------------------- status
    @property
    def is_infinity(self) -> bool:
        """Whether this is the group identity."""
        return self.x is None

    # ------------------------------------------------------------- operations
    def negate(self) -> "ECPoint":
        """The additive inverse ``-P``."""
        if self.is_infinity:
            return self
        return ECPoint(self.curve, self.x, (-self.y) % self.curve.p)  # type: ignore[operator]

    def add(self, other: "ECPoint") -> "ECPoint":
        """Point addition ``P + Q``."""
        if self.curve is not other.curve:
            raise ParameterError("cannot add points on different curves")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        p = self.curve.p
        if self.x == other.x:
            if (self.y + other.y) % p == 0:
                return self.curve.infinity
            return self.double()
        slope = ((other.y - self.y) * active_backend().modinv(other.x - self.x, p)) % p  # type: ignore[operator]
        x3 = (slope * slope - self.x - other.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p  # type: ignore[operator]
        return ECPoint(self.curve, x3, y3)

    def double(self) -> "ECPoint":
        """Point doubling ``2P``."""
        if self.is_infinity:
            return self
        p = self.curve.p
        if self.y == 0:
            return self.curve.infinity
        slope = ((3 * self.x * self.x + self.curve.a) * active_backend().modinv(2 * self.y, p)) % p  # type: ignore[operator]
        x3 = (slope * slope - 2 * self.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p  # type: ignore[operator]
        return ECPoint(self.curve, x3, y3)

    def multiply(self, scalar: int) -> "ECPoint":
        """Scalar multiplication ``scalar * P`` (routes through the backend)."""
        return active_backend().ec_scalar_mul(self, scalar)

    __add__ = add

    def __neg__(self) -> "ECPoint":
        return self.negate()

    def __rmul__(self, scalar: int) -> "ECPoint":
        return self.multiply(scalar)

    def __mul__(self, scalar: int) -> "ECPoint":
        return self.multiply(scalar)


def ec_multi_scalar(points: "list[ECPoint]", scalars: "list[int]") -> ECPoint:
    """Simultaneous multi-scalar multiplication ``sum scalars[i] * points[i]``.

    The elliptic-curve analogue of :func:`repro.mathutils.modular.multi_exp`:
    one interleaved Straus double chain over the widest scalar, adding each
    point at its set bits.  For the batch signature check — a handful of
    order-sized scalars plus many 64-bit random coefficients — this replaces
    ``len(points)`` independent double-and-add ladders (each paying a full
    run of field inversions) with a single shared chain, which is where the
    batch-verification speedup on the pure backend comes from.

    Negative scalars negate the point first (point negation is one field
    negation, unlike the modular case where a full inverse is needed).
    """
    if len(points) != len(scalars):
        raise ParameterError("points and scalars must have the same length")
    pairs = []
    curve = None
    for point, scalar in zip(points, scalars):
        if curve is None:
            curve = point.curve
        elif point.curve is not curve:
            raise ParameterError("cannot combine points on different curves")
        if scalar < 0:
            point, scalar = point.negate(), -scalar
        if scalar == 0 or point.is_infinity:
            continue
        pairs.append((point, scalar))
    if curve is None:
        raise ParameterError("multi-scalar multiplication needs at least one point")
    acc = curve.infinity
    if not pairs:
        return acc
    top = max(scalar.bit_length() for _, scalar in pairs)
    for bit in range(top - 1, -1, -1):
        acc = acc.double()
        for point, scalar in pairs:
            if (scalar >> bit) & 1:
                acc = acc.add(point)
    return acc
