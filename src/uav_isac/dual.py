"""Second-order forward-mode scalar.

A Dual2 carries a value together with first and second derivatives with
respect to one seed variable.  Pushing it through ordinary arithmetic
yields exact derivatives of any rational expression, which is all the
per-slot objective needs: no step-size tuning, no symbolic machinery.

Only the operations the bound expressions use are implemented: +, -
and * (mixed float/Dual2 in both orders for + and *), reciprocal, and
float / Dual2.
"""

from __future__ import annotations


class Dual2:
    __slots__ = ("val", "d1", "d2")

    def __init__(self, val: float, d1: float = 0.0, d2: float = 0.0):
        self.val = val
        self.d1 = d1
        self.d2 = d2

    @classmethod
    def variable(cls, x: float) -> "Dual2":
        """Seed the differentiation variable: value x, dx/dx = 1."""
        return cls(x, 1.0, 0.0)

    def __repr__(self):
        return f"Dual2({self.val!r}, d1={self.d1!r}, d2={self.d2!r})"

    # -- addition / subtraction --

    def __add__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return Dual2(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual2):
            return Dual2(self.val - other.val, self.d1 - other.d1, self.d2 - other.d2)
        return Dual2(self.val - other, self.d1, self.d2)

    # -- multiplication --

    def __mul__(self, other):
        if isinstance(other, Dual2):
            return Dual2(
                self.val * other.val,
                self.val * other.d1 + self.d1 * other.val,
                self.val * other.d2 + 2.0 * self.d1 * other.d1 + self.d2 * other.val,
            )
        return Dual2(self.val * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    # -- division --

    def reciprocal(self) -> "Dual2":
        w = 1.0 / self.val
        w2 = w * w
        return Dual2(w, -self.d1 * w2, (2.0 * self.d1 * self.d1 * w - self.d2) * w2)

    def __rtruediv__(self, other):
        return self.reciprocal() * other
