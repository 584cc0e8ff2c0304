"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the Taylor coefficients of a smooth function at a point, up to a
total degree ``acc`` in ``nvars`` variables.  Arithmetic on jets (sums,
products, sin/cos of the underlying functions) is exact on the retained
coefficients, so mixed partial derivatives of analytic immersions come out at
machine precision -- no finite differences anywhere.

Coefficients are kept in graded order (by total degree, then lexicographic),
so truncating a jet to a lower degree is a prefix slice.  They are stored
term-first: ``rows`` has shape (T, *lead), one row per Taylor term, and
``coef`` views it term-last, (*lead, T).  The lead axes (grid batch, ambient
component, ...) broadcast as numpy does.

Three contracts keep reports byte-stable:

- Summation order.  Each product coefficient is 0.0 plus its contributions
  ``a[i] * b[j]`` added one at a time in ``_mul_table`` order, exactly as an
  ``np.add.at`` scatter over that table sums them.
- Component sums.  ``sum`` adds the slices of its axis one at a time from
  0.0, as numpy reduces the term-last array; ``np.sum`` on ``rows`` would add
  the innermost component axis pairwise and round differently.
- Layout.  ``rows`` is C-contiguous.  Downstream reductions (``einsum``,
  ``sum``) round differently on other memory layouts, so bit-equal
  coefficients alone do not keep residuals bit-equal.

Restriction to the coordinate lines.  ``Jet.lines`` keeps, for each of the
``nvars`` coordinate lines through the point, the terms x_k^d as one
univariate jet whose new leading lead axis runs over the lines.  A product
coefficient of x_k^d receives only the pairs (x_k^e, x_k^(d-e)), and both
tables add them in ascending e; ``sum`` adds the same component slices.  So
restriction commutes bit for bit with products, sums, scaling, ``sum`` and
truncation, as long as the operands' leads have one number of axes (the line
axis must meet the line axis).  It does not commute with ``deriv(i)``, which
reads the mixed terms x_i x_k^d: differentiate first, then restrict.
``deriv_lines`` does both in one ``take`` of the line terms' sources,
without forming the derivative's terms off the lines.

Because every output coefficient sums its own contributions in table order,
a product at a lower accuracy is bit-equal to the truncation of the product
at a higher one.  ``_streamed_product`` walks the table over whole rows of
the broadcast lead: the T pairs with a[0], the first contribution to every
term, are one broadcast multiply, and each later pair multiplies two rows
into a lead-sized buffer that is added to its output row.  An operand that
broadcasts inside the lead is expanded into the buffer by assignment first,
as numpy would multiply it through a buffer of its own, allocated per call,
at up to half speed.  So each coefficient is summed from +0.0 in
``_mul_table`` order, and a product's memory is its result plus one lead
(plus numpy's buffer of at most 64 KB when both operands broadcast inside
the lead), never one copy per table pair (495 at 4 variables and degree 4).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_ORDER = 5


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
def _line_terms(nvars: int, acc: int) -> np.ndarray:
    """Positions of the line terms x_k^d, degree-major: entry d * nvars + k."""
    pos = _position(nvars, acc)
    return np.array([pos[tuple(d * (v == k) for v in range(nvars))] for d in range(acc + 1) for k in range(nvars)])


@lru_cache(maxsize=None)
def _diff_table(nvars: int, acc: int, var: int):
    """(src, factor): term k of d/dx_var is ``factor[k]`` times term ``src[k]``, for every k."""
    pos, lowered = _position(nvars, acc), _terms(nvars, acc - 1)
    src = [pos[tuple(e + (k == var) for k, e in enumerate(m))] for m in lowered]
    return np.asarray(src), np.array([m[var] + 1.0 for m in lowered])


@lru_cache(maxsize=None)
def _deriv_line_table(nvars: int, acc: int, chain: tuple[int, ...]):
    """(src, factors): the ``_diff_table``s of d_chain[0] d_chain[1] ... composed with ``_line_terms``.

    Row k of the chain's line jet is term ``src[k]`` of a jet of accuracy
    ``acc + len(chain)`` times ``factors[0][k]``, then ``factors[1][k]``,
    ..., in the chain's order.
    """
    src, factors = _line_terms(nvars, acc), []
    for depth in range(len(chain) - 1, -1, -1):
        step, fac = _diff_table(nvars, acc + len(chain) - depth, chain[depth])
        factors.insert(0, fac[src])
        src = step[src]
    return src, tuple(factors)


def _aligned(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of two term-first arrays, their leads padded to one number of axes."""
    if A.ndim != B.ndim:
        nd = max(A.ndim, B.ndim)
        A, B = (X.reshape(X.shape[:1] + (1,) * (nd - X.ndim) + X.shape[1:]) for X in (A, B))
    return A, B


@lru_cache(maxsize=None)
def _stream_pairs(nvars: int, acc: int) -> tuple[tuple[int, int, int], ...]:
    """``_mul_table``'s triplets as Python ints, less the first T: those have ia = 0 and ib = iout."""
    nt = _nterms(nvars, acc)
    return tuple(zip(*(x[nt:].tolist() for x in _mul_table(nvars, acc))))


def _streamed_product(A: np.ndarray, B: np.ndarray, lead: tuple[int, ...], pairs) -> np.ndarray:
    """Term-first, C-contiguous coefficients of the product, built pair by pair on whole rows of ``lead``.

    ``lead`` is the operands' broadcast lead and ``pairs`` is ``_stream_pairs``'s;
    A and B have the same number of axes.
    """
    out = np.empty(B.shape[:1] + lead)
    tmp = np.empty(lead)
    # an operand that broadcasts inside the lead is expanded by assignment
    # (see the module docstring); x * y and y * x are the same bits
    narrow_a, narrow_b = A.shape[1:] != lead, B.shape[1:] != lead
    if narrow_a:
        tmp[...] = A[0]
    if narrow_b:
        out[...] = B
    # the pairs with a[0], each term's first contribution, in one multiply
    np.multiply(tmp if narrow_a else A[:1], out if narrow_b else B, out)
    out += 0.0  # the zero start of every sum: -0.0 becomes +0.0
    for i, j, k in pairs:
        if narrow_a:
            tmp[...] = A[i]
            np.multiply(tmp, B[j], tmp)
        elif narrow_b:
            tmp[...] = B[j]
            np.multiply(A[i], tmp, tmp)
        else:
            np.multiply(A[i], B[j], tmp)
        row = out[k, ...]  # a view, also where the lead is ()
        np.add(row, tmp, row)
    return out


class Jet:
    """Taylor coefficients of a function at a point, exact to degree ``acc``."""

    __slots__ = ("nvars", "acc", "rows")

    @classmethod
    def _of(cls, nvars: int, acc: int, rows: np.ndarray) -> "Jet":
        """A jet on the term-first, C-contiguous array ``rows``, taken without a copy."""
        jet = object.__new__(cls)
        jet.nvars, jet.acc, jet.rows = nvars, acc, rows
        return jet

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

    def lines(self) -> "Jet":
        """The restrictions to the ``nvars`` coordinate lines through the point, as one univariate jet.

        A new leading lead axis runs over the lines: row [d, k] holds the
        coefficient of x_k^d.  See the module docstring for what commutes
        with this restriction.
        """
        rows = self.rows.take(_line_terms(self.nvars, self.acc), 0)
        return Jet._of(1, self.acc, rows.reshape((self.acc + 1, self.nvars) + self.rows.shape[1:]))

    def deriv_lines(self, chain: tuple[int, ...], acc: int) -> "Jet":
        """``truncate(acc + len(chain)).deriv(chain[0]).deriv(chain[1])....lines()``, bit for bit.

        One ``take`` of the line terms' sources, then the chain's factors in
        its order: no derivative terms off the lines are formed.
        """
        src, factors = _deriv_line_table(self.nvars, acc, tuple(chain))
        rows = self.truncate(acc + len(chain)).rows.take(src, 0)
        for fac in factors:
            rows *= fac.reshape(fac.shape + (1,) * (rows.ndim - 1))
        return Jet._of(1, acc, rows.reshape((acc + 1, self.nvars) + self.rows.shape[1:]))

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
        # a constant: its value is the first term, every other term is zero
        value = np.asarray(other, dtype=float)
        rows = np.zeros((_nterms(self.nvars, self.acc),) + value.shape)
        rows[0] = value
        return self, Jet._of(self.nvars, self.acc, rows)

    def __add__(self, other):
        a, b = self._coerce(other)
        return Jet._of(a.nvars, a.acc, np.add(*_aligned(a.rows, b.rows)))

    def __sub__(self, other):
        a, b = self._coerce(other)
        return Jet._of(a.nvars, a.acc, np.subtract(*_aligned(a.rows, b.rows)))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # the scale is a one-term array, constant along the term axis
            scale = np.asarray(other, dtype=float)[None]
            return Jet._of(self.nvars, self.acc, np.multiply(*_aligned(self.rows, scale)))
        a, b = self._coerce(other)
        A, B = _aligned(a.rows, b.rows)
        # exact for broadcast-compatible leads, a zero-size axis included
        lead = tuple(n if m == 1 else m for m, n in zip(A.shape[1:], B.shape[1:]))
        return Jet._of(a.nvars, a.acc, _streamed_product(A, B, lead, _stream_pairs(a.nvars, a.acc)))

    # -- analytic functions ---------------------------------------------

    def sincos(self) -> tuple["Jet", "Jet"]:
        """sin and cos of the jet.

        Both Taylor series at 0 are summed by Horner in the jet less its value,
        then moved to the value by the addition formulas.
        """
        a0 = self.value
        nilpotent = self.rows.copy()
        nilpotent[0] = 0.0
        x = Jet._of(self.nvars, self.acc, nilpotent)
        series = []
        for coeffs in ([0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0], [1.0, 0.0, -0.5, 0.0, 1.0 / 24.0, 0.0]):
            rows = np.zeros((_nterms(self.nvars, self.acc),) + a0.shape)
            rows[0] = coeffs[self.acc]
            res = Jet._of(self.nvars, self.acc, rows)
            for k in range(self.acc - 1, -1, -1):
                # a product is a fresh array, so its first term takes the coefficient in place
                res = res * x
                res.rows[0] += coeffs[k]
            series.append(res)
        st, ct = series
        s0, c0 = np.sin(a0), np.cos(a0)
        return (st * c0 + ct * s0, ct * c0 - st * s0)
