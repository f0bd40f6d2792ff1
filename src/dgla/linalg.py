"""Exact dense linear algebra over the rationals.

Everything downstream (homology ranks, sections, quotients) reduces to the
operations in this module, so the contract is strict: at every public
boundary entries are `fractions.Fraction` in lowest terms, results are exact
and reproducible bit-for-bit, and every "choice" (sections, coset
representatives) is pinned to the reduced-row-echelon pivot rule.  Inside,
`Matrix.rref` eliminates on primitive integer rows and divides by each pivot
only once the rows are reduced; kernels, spans, solutions and inverses all
read its result.  Matrices and subspaces are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import NotSurjective

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def vector(entries: Iterable) -> Vector:
    return tuple(frac(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def _primitive_row(row: Vector) -> list[int]:
    """row scaled to coprime integers: times the lcm of its denominators,
    divided by the gcd of the resulting numerators."""
    den = lcm(*[e.denominator for e in row])
    if den == 1:
        ints = [e.numerator for e in row]
    else:
        ints = [e.numerator * (den // e.denominator) for e in row]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


class Matrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data", "_rref")

    def __init__(self, data: Sequence[Sequence], cols: int | None = None):
        rows = tuple(tuple(frac(e) for e in row) for row in data)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged matrix")
            if cols is not None and cols != ncols:
                raise ValueError("cols mismatch")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit column count")
            ncols = cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "_rref", None)

    @classmethod
    def _of_rows(cls, rows: tuple[Vector, ...], cols: int) -> "Matrix":
        """Trusted constructor for rows of Fractions this module computed.

        Skips the coercion and the shape checks of `Matrix(...)`; the rows
        must be tuples of `Fraction`s, each of length `cols`.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", rows)
        object.__setattr__(m, "_rref", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([zero_vector(cols)] * rows, cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([unit_vector(n, i) for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: int) -> "Matrix":
        return cls(
            [[col[i] for col in columns] for i in range(rows)], cols=len(columns)
        )

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def mul(self, other: "Matrix") -> "Matrix":
        """self * other, multiplying only the nonzero entries of each row."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        out = []
        for row in self.data:
            acc = [_ZERO] * other.cols
            for c, orow in zip(row, other.data):
                if c:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += c * b
            out.append(tuple(acc))
        return Matrix._of_rows(tuple(out), other.cols)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """M v, multiplying only the nonzero entries of v."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} vs {self.cols} columns")
        support = [(k, c) for k, c in enumerate(v) if c]
        return tuple(
            sum((row[k] * c for k, c in support), Fraction(0)) for row in self.data
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.shape, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with its pivot columns.

        Pivot rule: scan columns left to right, take the first row (top to
        bottom) at or below the current pivot row with a nonzero entry.  The
        elimination runs on primitive integer rows: each row is scaled once
        by the lcm of its denominators, a row operation is
        (p/g)*row - (c/g)*pivot_row with g = gcd(p, c), and the changed row is
        divided by the gcd of its entries.  Only the finished rows are
        divided by their pivots.  The RREF is unique, so the result is the
        one Fraction elimination gives; it is cached on first use.
        """
        if self._rref is not None:
            return self._rref
        nrows, ncols = self.rows, self.cols
        work = [_primitive_row(r) for r in self.data]
        pivots: list[int] = []
        prow = 0
        for pcol in range(ncols):
            if prow >= nrows:
                break
            hit = None
            for i in range(prow, nrows):
                if work[i][pcol]:
                    hit = i
                    break
            if hit is None:
                continue
            work[prow], work[hit] = work[hit], work[prow]
            pivot_row = work[prow]
            p = pivot_row[pcol]
            support = [(j, b) for j, b in enumerate(pivot_row) if b]
            for i in range(nrows):
                row = work[i]
                c = row[pcol]
                if c and i != prow:
                    g = gcd(p, c)
                    a, c = p // g, c // g
                    if a != 1:
                        row = [a * x for x in row]
                    for j, b in support:
                        row[j] -= c * b
                    g = gcd(*row)
                    if g > 1:
                        row = [x // g for x in row]
                    work[i] = row
            pivots.append(pcol)
            prow += 1
        out = []
        for row, pcol in zip(work, pivots):
            p = row[pcol]
            out.append(tuple(Fraction(x, p) if x else _ZERO for x in row))
        out.extend([(_ZERO,) * ncols] * (nrows - prow))
        result = (Matrix._of_rows(tuple(out), ncols), tuple(pivots))
        object.__setattr__(self, "_rref", result)
        return result

    def rank(self) -> int:
        return len(self.rref()[1])


class Subspace:
    """A subspace of Q^n held by its unique RREF basis (zero rows dropped)."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, vectors: Sequence[Sequence] = ()):
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if vecs:
            reduced, pivots = Matrix._of_rows(tuple(vecs), ambient_dim).rref()
            rows = [reduced.row(i) for i in range(len(pivots))]
        else:
            rows, pivots = [], ()
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(rows))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence[Fraction]) -> tuple[Vector, Vector]:
        """Return (residual, coefficients) of v against the RREF basis.

        residual = v - sum(coefficients[i] * basis[i]); residual has zeros in
        all pivot coordinates.  v lies in the subspace iff residual == 0.
        """
        w = list(vector(v))
        coeffs = []
        for bvec, p in zip(self.basis, self.pivots):
            c = w[p]
            coeffs.append(c)
            if c != 0:
                for j in range(self.ambient_dim):
                    if bvec[j] != 0:
                        w[j] -= c * bvec[j]
        return tuple(w), tuple(coeffs)

    def contains(self, v: Sequence[Fraction]) -> bool:
        residual, _ = self.reduce(v)
        return vec_is_zero(residual)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    return m.rref()


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the right null space, dim = cols - rank."""
    reduced, pivots = m.rref()
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    vecs = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced.data[r][f]
        vecs.append(v)
    return Subspace(m.cols, vecs)


def section_of_surjection(m: Matrix) -> Matrix:
    """Right inverse s with m*s = identity, supported on the pivot columns.

    Each standard basis vector of the codomain is lifted through the pivot
    columns of rref(m); all non-pivot coordinates of the lift are zero.
    """
    _, pivots = m.rref()
    if len(pivots) < m.rows:
        raise NotSurjective(
            f"matrix has row rank {len(pivots)} < {m.rows}: not a surjection"
        )
    square = Matrix._of_rows(
        tuple(tuple(row[p] for p in pivots) for row in m.data), m.rows
    )
    inv = invert(square)
    out = [(_ZERO,) * m.rows] * m.cols
    for r, p in enumerate(pivots):
        out[p] = inv.data[r]
    return Matrix._of_rows(tuple(out), m.rows)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = Matrix._of_rows(
        tuple(m.data[i] + unit_vector(n, i) for i in range(n)), 2 * n
    )
    reduced, pivots = aug.rref()
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix._of_rows(tuple(reduced.row(i)[n:] for i in range(n)), n)


def quotient_data(ambient: int, sub: Subspace) -> tuple[Matrix, list[Vector]]:
    """Projection onto a canonical complement of sub, plus coset reps.

    The complement is spanned by the coordinates that carry no pivot of sub;
    the representatives are the corresponding standard basis vectors.  The
    projection first reduces modulo sub, then reads off the complement
    coordinates, so projection o inclusion-of-reps = identity.
    """
    if sub.ambient_dim != ambient:
        raise ValueError("subspace does not live in the given ambient space")
    pivot_set = set(sub.pivots)
    complement = [j for j in range(ambient) if j not in pivot_set]
    rows = []
    for c in complement:
        row = [_ZERO] * ambient
        row[c] = Fraction(1)
        for bvec, p in zip(sub.basis, sub.pivots):
            row[p] = -bvec[c]
        rows.append(tuple(row))
    projection = Matrix._of_rows(tuple(rows), ambient)
    reps = [unit_vector(ambient, c) for c in complement]
    return projection, reps


def membership(v: Sequence[Fraction], sub: Subspace) -> Vector | None:
    """Coordinates of v in sub's basis when v lies in sub, else None."""
    residual, coeffs = sub.reduce(v)
    if vec_is_zero(residual):
        return coeffs
    return None


def solve_pivot(m: Matrix, v: Sequence[Fraction]) -> Vector | None:
    """Canonical solution of m*x = v (free variables zero), None if none."""
    v = vector(v)
    if len(v) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = Matrix._of_rows(
        tuple(row + (b,) for row, b in zip(m.data, v)), m.cols + 1
    )
    reduced, pivots = aug.rref()
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.data[r][m.cols]
    return tuple(x)
