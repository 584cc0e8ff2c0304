"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the Taylor coefficients of a smooth function at a point, up to a
total degree ``acc`` in ``nvars`` variables.  Arithmetic on jets (sums,
products, sin/cos/sqrt/reciprocal of the underlying functions) is exact on the
retained coefficients, so mixed partial derivatives of analytic immersions
come out at machine precision -- no finite differences anywhere.

Coefficients are kept in graded order (by total degree, then lexicographic),
so truncating a jet to a lower degree is a prefix slice.  They are stored
term-first: ``rows`` has shape (T, *lead), one row per Taylor term, and
``coef`` views it term-last, (*lead, T).  The lead axes (grid batch, ambient
component, ...) broadcast as numpy does.

Three contracts keep reports byte-stable:

- Summation order.  Each product coefficient is 0.0 plus its contributions
  ``a[i] * b[j]`` added one at a time in ``_mul_table`` order, exactly as an
  ``np.add.at`` scatter over that table sums them.  ``_mul_plan`` regroups
  the table into layers so that the additions run as contiguous block adds.
- Component sums.  ``sum`` adds the slices of its axis one at a time from
  0.0, as numpy reduces the term-last array; ``np.sum`` on ``rows`` would add
  the innermost component axis pairwise and round differently.
- Layout.  ``rows`` is C-contiguous.  Downstream reductions (``einsum``,
  ``sum``) round differently on other memory layouts, so bit-equal
  coefficients alone do not keep residuals bit-equal.

Because every output coefficient sums its own contributions in table order,
a product at a lower accuracy is bit-equal to the truncation of the product
at a higher one, and a batch can be cut into blocks that are multiplied
apart.  The product relies on the second for its memory contract:

- Memory.  A product gathers the (a[i], b[j]) pairs of all its P table
  entries for a block of the first lead axis at a time, so it allocates its
  result plus a working set of a few times ``GATHER_BUDGET`` elements
  (512 KB each), or of one index of that axis when one alone is larger; never
  P copies of the batch (P = 495 at 4 variables and degree 4).  Small blocks
  also reuse memory the allocator already holds instead of faulting in
  fresh pages.
- Small batches.  When the pairs of the whole batch fit the budget for sure
  (P * size(a) * size(b) <= GATHER_BUDGET * nterms^2, checked without
  computing the broadcast shape), the batch is one block: one gather per
  operand and no block loop.  Every product of a few grid points takes
  this path.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 5
MAX_VARS = 4
# elements of gathered pairs per block of a jet product; see the module docstring
GATHER_BUDGET = 1 << 16


@lru_cache(maxsize=None)
def _terms(nvars: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All exponent multi-indices with total degree <= order, graded order."""
    by_degree: list[list[tuple[int, ...]]] = [[] for _ in range(order + 1)]

    def rec(prefix, remaining, vars_left):
        if vars_left == 0:
            by_degree[sum(prefix)].append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, vars_left - 1)

    rec([], order, nvars)
    out: list[tuple[int, ...]] = []
    for bucket in by_degree:
        out.extend(sorted(bucket))
    return tuple(out)


@lru_cache(maxsize=None)
def _position(nvars: int, order: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(_terms(nvars, order))}


@lru_cache(maxsize=None)
def _nterms(nvars: int, order: int) -> int:
    return len(_terms(nvars, order))


@lru_cache(maxsize=None)
def _mul_table(nvars: int, acc: int):
    """Index triplets (ia, ib, iout) with deg(a)+deg(b) <= acc."""
    terms = _terms(nvars, acc)
    pos = _position(nvars, acc)
    ia, ib, iout = [], [], []
    for i, ma in enumerate(terms):
        da = sum(ma)
        for j, mb in enumerate(terms):
            if da + sum(mb) > acc:
                continue
            ia.append(i)
            ib.append(j)
            iout.append(pos[tuple(x + y for x, y in zip(ma, mb))])
    return (np.asarray(ia), np.asarray(ib), np.asarray(iout))


@lru_cache(maxsize=None)
def _mul_plan(nvars: int, acc: int):
    """``_mul_table`` regrouped into layers of contiguous slice additions.

    Layer r holds the r-th contribution (in table order) to every output
    term.  Output terms get slots in descending order of their contribution
    count (stable), so layer r touches a prefix ``[:n_r]`` of the slots.  The
    pairs are sorted layer-major, slot-minor.  Returns the permuted
    ``(ia, ib)``, the ``(offset, n_r)`` of every layer after the first, and
    ``slot`` with the slot of each output term.
    """
    ia, ib, iout = _mul_table(nvars, acc)
    count = np.bincount(iout, minlength=_nterms(nvars, acc))
    # rank of each entry among the entries of its term: a stable sort groups
    # the terms, and the distance to the group start is the rank
    rank = np.empty_like(iout)
    rank[np.argsort(iout, kind="stable")] = np.arange(iout.size) - np.repeat(np.cumsum(count) - count, count)
    slot = np.empty_like(count)
    slot[np.argsort(-count, kind="stable")] = np.arange(count.size)
    order = np.lexsort((slot[iout], rank))
    widths = np.bincount(rank)
    offsets = np.concatenate(([0], np.cumsum(widths)[:-1]))
    layers = tuple(zip(offsets[1:].tolist(), widths[1:].tolist()))
    return ia[order], ib[order], layers, slot


@lru_cache(maxsize=None)
def _diff_table(nvars: int, acc: int, var: int):
    """(src, factor): term k of d/dx_var is ``factor[k]`` times term ``src[k]``, for every k."""
    pos, lowered = _position(nvars, acc), _terms(nvars, acc - 1)
    src = [pos[tuple(e + (k == var) for k, e in enumerate(m))] for m in lowered]
    return np.asarray(src), np.array([m[var] + 1.0 for m in lowered])


def _aligned(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of two term-first arrays, their leads padded to one number of axes."""
    if A.ndim != B.ndim:
        nd = max(A.ndim, B.ndim)
        A, B = (X.reshape(X.shape[:1] + (1,) * (nd - X.ndim) + X.shape[1:]) for X in (A, B))
    return A, B


def _layered_product(A: np.ndarray, B: np.ndarray, plan) -> np.ndarray:
    """Term-first, C-contiguous coefficients of the product of two term-first arrays.

    ``plan`` is ``_mul_plan``'s; A and B have the same number of axes.
    """
    ia, ib, layers, slot = plan
    # each layer of the products is one contiguous block
    prod = A.take(ia, 0) * B.take(ib, 0)
    # "+ 0.0" is the zero start of the sum: it turns -0.0 into +0.0.  The sums
    # build up in place in the first layer, which no other layer overlaps
    out = prod[: slot.size]
    out += 0.0
    for off, n in layers:
        out[:n] += prod[off : off + n]
    return out.take(slot, 0)


class Jet:
    """Taylor coefficients of a function at a point, exact to degree ``acc``."""

    __slots__ = ("nvars", "acc", "rows")

    def __init__(self, nvars: int, acc: int, coef: np.ndarray):
        """A jet from term-last coefficients ``coef`` of shape (*lead, T), copied term-first."""
        if not (1 <= nvars <= MAX_VARS):
            raise ValueError(f"nvars must be in [1, {MAX_VARS}], got {nvars}")
        if not (0 <= acc <= MAX_ORDER):
            raise ValueError(f"acc must be in [0, {MAX_ORDER}], got {acc}")
        coef = np.asarray(coef, dtype=float)
        if coef.shape[-1] != _nterms(nvars, acc):
            raise ValueError(
                f"coefficient axis has length {coef.shape[-1]}, "
                f"expected {_nterms(nvars, acc)} for {nvars} vars at degree {acc}"
            )
        self.nvars = nvars
        self.acc = acc
        self.rows = np.array(np.moveaxis(coef, -1, 0), order="C")

    @classmethod
    def _of(cls, nvars: int, acc: int, rows: np.ndarray) -> "Jet":
        """A jet on the term-first, C-contiguous array ``rows``, taken without a copy."""
        jet = object.__new__(cls)
        jet.nvars, jet.acc, jet.rows = nvars, acc, rows
        return jet

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(value, nvars: int, acc: int, lead_shape=()) -> "Jet":
        value = np.asarray(value, dtype=float)
        rows = np.zeros((_nterms(nvars, acc),) + np.broadcast_shapes(value.shape, lead_shape))
        rows[0] = value
        return Jet._of(nvars, acc, rows)

    @staticmethod
    def variable(value, index: int, nvars: int, acc: int) -> "Jet":
        """Jet of the coordinate function x_index evaluated at ``value``."""
        if not (0 <= index < nvars):
            raise IndexError(f"variable index {index} out of range for {nvars} vars")
        rows = Jet.constant(value, nvars, acc).rows
        if acc >= 1:
            unit = tuple(1 if k == index else 0 for k in range(nvars))
            rows[_position(nvars, acc)[unit]] = 1.0
        return Jet._of(nvars, acc, rows)

    # -- basic accessors -----------------------------------------------

    @property
    def coef(self) -> np.ndarray:
        """The coefficients viewed term-last, shape (*lead, T)."""
        return self.rows.transpose(*range(1, self.rows.ndim), 0)

    @property
    def value(self) -> np.ndarray:
        return self.rows[0]

    def truncate(self, acc: int) -> "Jet":
        if acc > self.acc:
            raise ValueError(f"cannot raise accuracy from {self.acc} to {acc}")
        if acc == self.acc:
            return self
        return Jet._of(self.nvars, acc, self.rows[: _nterms(self.nvars, acc)])

    def deriv(self, var: int) -> "Jet":
        """Jet of the partial derivative along x_var; accuracy drops by one."""
        if self.acc == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        src, fac = _diff_table(self.nvars, self.acc, var)
        rows = self.rows.take(src, 0)
        rows *= fac.reshape(fac.shape + (1,) * (rows.ndim - 1))
        return Jet._of(self.nvars, self.acc - 1, rows)

    def sum(self, axis: int) -> "Jet":
        """Sum over a lead axis of ``coef`` (components), keeping it for broadcasting."""
        nd = self.rows.ndim
        if axis in (-1, nd - 1) or not -nd <= axis < nd:
            raise ValueError(f"cannot sum over axis {axis} of a jet with {nd - 1} lead axes")
        ax = axis % nd + 1
        if self.rows.shape[0] == 1:
            # one term is laid out as its term-last array, so np.sum adds in that array's order
            return Jet._of(self.nvars, self.acc, self.rows.sum(axis=ax, keepdims=True))
        lead = (slice(None),) * ax
        total = self.rows[lead + (slice(0, 1),)] + 0.0
        for k in range(1, self.rows.shape[ax]):
            total += self.rows[lead + (slice(k, k + 1),)]
        return Jet._of(self.nvars, self.acc, total)

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.nvars != self.nvars:
                raise ValueError("jets have different variable counts")
            acc = min(self.acc, other.acc)
            return self.truncate(acc), other.truncate(acc)
        return self, Jet.constant(other, self.nvars, self.acc)

    def __add__(self, other):
        a, b = self._coerce(other)
        return Jet._of(a.nvars, a.acc, np.add(*_aligned(a.rows, b.rows)))

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(self.nvars, self.acc, -self.rows)

    def __sub__(self, other):
        a, b = self._coerce(other)
        return Jet._of(a.nvars, a.acc, np.subtract(*_aligned(a.rows, b.rows)))

    def __rsub__(self, other):
        a, b = self._coerce(other)
        return Jet._of(a.nvars, a.acc, np.subtract(*_aligned(b.rows, a.rows)))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # the scale is a one-term array, constant along the term axis
            scale = np.asarray(other, dtype=float)[None]
            return Jet._of(self.nvars, self.acc, np.multiply(*_aligned(self.rows, scale)))
        a, b = self._coerce(other)
        A, B = _aligned(a.rows, b.rows)
        plan = _mul_plan(a.nvars, a.acc)
        nt = plan[3].size
        # the broadcast lead has at most size(a) * size(b) / nt^2 elements
        if plan[0].size * A.size * B.size <= GATHER_BUDGET * nt * nt:
            return Jet._of(a.nvars, a.acc, _layered_product(A, B, plan))
        # blocks along the first lead axis, each within the budget
        lead = np.broadcast_shapes(A.shape[1:], B.shape[1:])
        step = max(1, GATHER_BUDGET * lead[0] // (plan[0].size * math.prod(lead)))
        rows = np.empty((nt,) + lead)
        for r in range(0, lead[0], step):
            block = slice(r, r + step)
            rows[:, block] = _layered_product(
                A if A.shape[1] == 1 else A[:, block], B if B.shape[1] == 1 else B[:, block], plan
            )
        return Jet._of(a.nvars, a.acc, rows)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other, dtype=float))

    # -- analytic functions ---------------------------------------------

    def _nilpotent(self):
        tilde = self.rows.copy()
        tilde[0] = 0.0
        return Jet._of(self.nvars, self.acc, tilde)

    def _series(self, coeffs) -> "Jet":
        """Evaluate sum_k coeffs[k] * (self - value)^k by Horner."""
        x = self._nilpotent()
        res = Jet.constant(np.broadcast_to(coeffs[-1], self.value.shape), self.nvars, self.acc)
        for k in range(len(coeffs) - 2, -1, -1):
            res = res * x
            kc = res.rows.copy()
            kc[0] += coeffs[k]
            res = Jet._of(self.nvars, self.acc, kc)
        return res

    def sincos(self) -> tuple["Jet", "Jet"]:
        a0 = self.value
        sin_t = [0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0][: self.acc + 1]
        cos_t = [1.0, 0.0, -0.5, 0.0, 1.0 / 24.0, 0.0][: self.acc + 1]
        st = self._series(sin_t)
        ct = self._series(cos_t)
        s0, c0 = np.sin(a0), np.cos(a0)
        return (st * c0 + ct * s0, ct * c0 - st * s0)

    def sin(self) -> "Jet":
        return self.sincos()[0]

    def cos(self) -> "Jet":
        return self.sincos()[1]

    def sqrt(self) -> "Jet":
        a0 = self.value
        if np.any(a0 <= 0.0):
            raise ValueError("jet sqrt requires a strictly positive value part")
        coeffs = [math.comb(2 * k, k) * (-1) ** (k + 1) / (4**k * (2 * k - 1)) for k in range(self.acc + 1)]
        scaled = self * (1.0 / a0)
        return scaled._series(coeffs) * np.sqrt(a0)

    def reciprocal(self) -> "Jet":
        a0 = self.value
        if np.any(a0 == 0.0):
            raise ValueError("jet reciprocal requires a nonzero value part")
        coeffs = [(-1.0) ** k for k in range(self.acc + 1)]
        scaled = self * (1.0 / a0)
        return scaled._series(coeffs) * (1.0 / a0)

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, acc={self.acc}, lead_shape={self.rows.shape[1:]})"


def lift(value, var_index: int, nvars: int, acc: int) -> Jet:
    """Jet of the coordinate function x_{var_index} at the evaluation point."""
    return Jet.variable(value, var_index, nvars, acc)


def partial(jet: Jet, multi_index) -> np.ndarray:
    """Mixed partial derivative extracted from a jet.

    ``multi_index`` gives the derivative order per variable; the total order
    must not exceed the jet accuracy.  Leading axes (batch, components) pass
    through, so a stacked immersion jet yields the derivative of each
    component at once.
    """
    multi = tuple(int(k) for k in multi_index)
    if len(multi) != jet.nvars:
        raise ValueError(f"multi-index length {len(multi)} != nvars {jet.nvars}")
    if any(k < 0 for k in multi):
        raise ValueError("multi-index entries must be nonnegative")
    if sum(multi) > jet.acc:
        raise ValueError(f"derivative order {sum(multi)} exceeds jet accuracy {jet.acc}")
    factorial = 1.0
    for k in multi:
        factorial *= math.factorial(k)
    return jet.rows[_position(jet.nvars, jet.acc)[multi]] * factorial
