"""Exact sparse linear algebra over the rationals, on one integer echelon.

Everything downstream (homology ranks, sections, quotients) reduces to the
operations in this module, so the contract is strict: at every public
boundary entries are `fractions.Fraction` in lowest terms, results are exact
and reproducible bit-for-bit, and every "choice" (sections, coset
representatives) is pinned to the pivots of the reduced row echelon form,
its leading columns.  Matrices and subspaces are immutable after
construction and safe to share between threads.

A `Matrix` holds its columns, each a dict from row index to the nonzero
entries, because every matrix the package builds (d-matrices, derivation
complexes, morphisms, maps on homology) comes column by column.  That is
its only layout.  `data` and `row` are a dense view for the public API,
built once on first use; `column` and `columns` are dense too.  `apply` and
`mul` combine columns with the sparse axpy `add_scaled`, which the tensor
vectors of `freelie` use as well.  A `Subspace` holds its RREF basis as
sparse rows in the same layout, with their pivots; its `basis` is a dense
view built the same way, and its dense `reduce`, `contains` and
`membership` are views over one sparse reduction, `Subspace._reduce`.

The package has one elimination engine, the private `_Echelon`: sparse
rows of primitive integers, each with its minimal key as pivot, reduced
fraction-free (Bareiss-style, with the gcd divided out) in pivot order.
One loop, `_echelon`, drives it for all of linalg: it clears each row's
denominators and inserts it.  `Matrix.rank` counts the rows it keeps;
`_rref_rows` back-substitutes them and divides each by its pivot at the
end.  `Matrix.rref` transposes its columns into rows for it and back;
`invert` appends unit columns and `solve_pivot` the right-hand side as a
column before it.  Spans and kernels hand it their sparse rows directly.
`freelie` keys the same rows by words, with one echelon per letter
content that both selects the basis and solves for coordinates.

`kernel_basis` runs the same elimination with the columns keyed in reverse
(key cols-1-j), so each row's pivot is its rightmost column.  After
back-substitution and division a row with pivot p has its other entries
only at free columns f < p.  The kernel vector of a free column f, with 1
at f and -row[f] at each pivot p, is then zero at every other free column
and zero left of f: read in order of f, these vectors already are the
kernel's unique RREF, with the free columns as pivots, so no second
reduction runs.

Inside the package, results built from `Fraction`s it computed itself go
through the trusted constructors `Matrix._of_columns`, `Subspace._spanned`
(both on sparse vectors) and `Subspace._of_rows`, which skip the coercion
and shape checks of the public `Matrix(...)`, `Matrix.from_columns` and
`Subspace(...)`.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    if not 0 <= i < n:
        return (_ZERO,) * n
    return (_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - i - 1)


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def _clear_denominators(entries: dict) -> tuple[dict, int]:
    """(ints, den): the rational values times the lcm den of their
    denominators, as ints under the same keys.  All-int entries come back
    as they are, with den 1, not copied."""
    if all(type(a) is int for a in entries.values()):
        return entries, 1
    den = lcm(*[a.denominator for a in entries.values()])
    return {k: a.numerator * (den // a.denominator) for k, a in entries.items()}, den


class _Echelon:
    """Triangular sparse rows of primitive integers with deterministic pivots.

    A row is a dict from keys (column indices, words) to nonzero ints; its
    pivot is its minimal key, and rows are kept sorted by pivot, so a row
    holds no smaller pivot.  The one row operation clears v's entry c at a
    row's pivot, whose entry is r: v <- (r/g) v - (c/g) row with
    g = gcd(r, c).  Reducing a vector is one pass of it in pivot order.
    Each row carries an integer combination rho of the tagged vectors
    inserted so far, with row = sum_t rho_t vec_t, and the row and rho are
    divided by their common gcd together, pivot entry positive.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[tuple[object, dict, dict[int, int]]] = []

    def reduce(self, vec: dict, start: int = 0) -> tuple[dict, dict[int, int], int]:
        """(v, gamma, s) with v = s*vec + sum_t gamma_t vec_t and s > 0.

        vec is reduced by the rows from index `start` on.  When that is all
        of them, v holds no pivot, so it is empty exactly when vec lies in
        the span; then vec has coordinates -gamma_t/s over the tagged vectors.
        """
        v = dict(vec)
        gamma: dict[int, int] = {}
        s = 1
        for pivot, row, rho in self.rows[start:]:
            c = v.get(pivot)
            if not c:
                continue
            r = row[pivot]
            g = gcd(r, c)
            a, b = r // g, c // g
            if a != 1:
                for k in v:
                    v[k] *= a
                for t in gamma:
                    gamma[t] *= a
                s *= a
            for k, x in row.items():
                nv = v.get(k, 0) - b * x
                if nv:
                    v[k] = nv
                else:
                    del v[k]
            for t, x in rho.items():
                nv = gamma.get(t, 0) - b * x
                if nv:
                    gamma[t] = nv
                else:
                    del gamma[t]
            if a != 1:
                g = gcd(s, *v.values(), *gamma.values())
                if g != 1:
                    v = {k: x // g for k, x in v.items()}
                    gamma = {t: x // g for t, x in gamma.items()}
                    s //= g
        return v, gamma, s

    def insert(self, vec: dict, tag: int | None = None) -> bool:
        """Insert a vector; returns False when it was already in the span."""
        v, rho, s = self.reduce(vec)
        if not v:
            return False
        if tag is not None:
            rho[tag] = s
        insort(self.rows, _primitive(min(v), v, rho))
        return True

    def back_substitute(self) -> None:
        """Clear every pivot from the rows above its own, last row first.

        Each row is reduced by the rows below it, which are already clear,
        so afterwards every pivot column is zero outside its own row.
        """
        rows = self.rows
        for i in range(len(rows) - 2, -1, -1):
            pivot, row, rho = rows[i]
            v, gamma, s = self.reduce(row, i + 1)
            for t, x in rho.items():
                nv = gamma.get(t, 0) + s * x
                if nv:
                    gamma[t] = nv
                else:
                    del gamma[t]
            rows[i] = _primitive(pivot, v, gamma)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _primitive(pivot, v: dict, rho: dict[int, int]) -> tuple[object, dict, dict[int, int]]:
    """The row (pivot, v, rho) divided by the gcd of v and rho, v[pivot] > 0."""
    g = gcd(*v.values(), *rho.values())
    if v[pivot] < 0:
        g = -g
    if g != 1:
        v = {k: x // g for k, x in v.items()}
        rho = {t: x // g for t, x in rho.items()}
    return pivot, v, rho


class Matrix:
    """Immutable matrix of exact rationals, held by its sparse columns."""

    __slots__ = ("rows", "cols", "_columns", "_data")

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
        self._set(len(rows), _transpose([sparse_vector(r) for r in rows], ncols), rows)

    @classmethod
    def _of_columns(cls, columns: Sequence[dict], rows: int) -> "Matrix":
        """Trusted constructor for sparse columns this package computed.

        Skips the coercion and the shape checks of `Matrix(...)`; each
        column must be a dict from row indices below `rows` to nonzero
        `Fraction`s, and is not copied.
        """
        m = object.__new__(cls)
        m._set(rows, columns, None)
        return m

    def _set(self, rows: int, columns: Sequence[dict], data) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", len(columns))
        object.__setattr__(self, "_columns", tuple(columns))
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return Matrix._of_columns, (self._columns, self.rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of_columns([{}] * cols, rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of_columns([{i: _ONE} for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: int) -> "Matrix":
        return cls(
            [[col[i] for col in columns] for i in range(rows)], cols=len(columns)
        )

    @property
    def data(self) -> tuple[Vector, ...]:
        """The rows, dense; built once, for the public API."""
        if self._data is None:
            rows = _transpose(self._columns, self.rows)
            object.__setattr__(self, "_data", tuple(dense_vector(r, self.cols) for r in rows))
        return self._data

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return dense_vector(self._columns[j], self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def _combine(self, coeffs) -> dict:
        """sum_k c * column k over the (k, c) pairs, sparse."""
        out: dict = {}
        for k, c in coeffs:
            if c:
                add_scaled(out, c, self._columns[k])
        return out

    def mul(self, other: "Matrix") -> "Matrix":
        """self * other: each column of other combines the columns of self."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        return Matrix._of_columns(
            [self._combine(col.items()) for col in other._columns], self.rows
        )

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """M v, combining only the columns where v is nonzero."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} vs {self.cols} columns")
        return dense_vector(self._combine(enumerate(v)), self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def is_zero(self) -> bool:
        return not any(self._columns)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self._columns == other._columns
        )

    def __hash__(self):
        return hash((self.shape, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with its pivot columns.

        The pivots are the leading columns of the RREF, left to right.  The
        rows go through `_rref_rows` and back into columns.  The RREF is
        unique, so the result is the one Fraction Gauss-Jordan elimination
        gives.
        """
        rows, pivots = _rref_rows(_transpose(self._columns, self.rows))
        return Matrix._of_columns(_transpose(rows, self.cols), self.rows), pivots

    def rank(self) -> int:
        """The rows one `_echelon` keeps: no back-substitution, no `Fraction`s."""
        return _echelon(_transpose(self._columns, self.rows)).rank


def add_scaled(out: dict, scale, vec: dict) -> None:
    """out += scale * vec on sparse vectors, dropping entries that cancel."""
    for k, a in vec.items():
        nv = out.get(k, 0) + scale * a
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)


def sparse_vector(entries: Iterable) -> dict:
    """The nonzero entries of a dense vector, by index."""
    return {i: e for i, e in enumerate(entries) if e}


def dense_vector(entries: dict, n: int) -> Vector:
    """The dense vector of length n with these entries by index."""
    return tuple(entries.get(i, _ZERO) for i in range(n))


def _transpose(columns: Sequence[dict], rows: int) -> list[dict]:
    """The sparse rows of the matrix with these sparse columns."""
    out: list[dict] = [{} for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            out[i][j] = x
    return out


def _echelon(rows: Iterable[dict]) -> _Echelon:
    """These sparse rows of `Fraction`s, each scaled once to integers and
    inserted in order into one `_Echelon`."""
    echelon = _Echelon()
    for row in rows:
        if row:
            echelon.insert(_clear_denominators(row)[0])
    return echelon


def _rref_rows(rows: Iterable[dict]) -> tuple[list[dict], tuple]:
    """The nonzero rows of the RREF of these sparse rows, with their pivots
    (minimal keys): `_echelon`, back-substituted, and only then each row
    divided by its pivot entry, which is where `Fraction`s come back."""
    echelon = _echelon(rows)
    echelon.back_substitute()
    out = []
    for pivot, row, _ in echelon.rows:
        p = row[pivot]
        out.append({k: Fraction(x, p) for k, x in row.items()})
    return out, tuple(pivot for pivot, _, _ in echelon.rows)


class Subspace:
    """A subspace of Q^n held by its unique RREF basis (zero rows dropped).

    The basis is kept as sparse rows, dicts from coordinate to nonzero
    `Fraction`, with their pivots; `basis` is a dense view for the public
    API, built once on first use.
    """

    __slots__ = ("ambient_dim", "pivots", "_rows", "_basis")

    def __init__(self, ambient_dim: int, vectors: Sequence[Sequence] = ()):
        vecs = tuple(vector(v) for v in vectors)
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        self._set(ambient_dim, *_rref_rows(sparse_vector(v) for v in vecs))

    @classmethod
    def _spanned(cls, ambient_dim: int, vectors: Iterable[dict]) -> "Subspace":
        """Trusted `Subspace(...)` for sparse vectors this package computed,
        such as the columns `m._columns` of a `Matrix`."""
        return cls._of_rows(ambient_dim, *_rref_rows(vectors))

    @classmethod
    def _of_rows(cls, ambient_dim: int, rows: Sequence[dict], pivots: tuple[int, ...]) -> "Subspace":
        """Trusted constructor from sparse rows that already are the unique
        RREF, with their pivots."""
        sub = object.__new__(cls)
        sub._set(ambient_dim, rows, pivots)
        return sub

    def _set(self, ambient_dim: int, rows: Sequence[dict], pivots: tuple[int, ...]) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return Subspace._of_rows, (self.ambient_dim, self._rows, self.pivots)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The RREF basis, dense; built once, for the public API."""
        if self._basis is None:
            dense = tuple(dense_vector(r, self.ambient_dim) for r in self._rows)
            object.__setattr__(self, "_basis", dense)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: dict) -> tuple[dict, dict]:
        """(residual, coefficients) of a sparse v against the RREF basis.

        Both are sparse, the coefficients keyed by row: residual = v - sum
        of coefficients[i] * row i, and it has no pivot coordinate.
        """
        w = dict(v)
        coeffs = {}
        for i, (row, p) in enumerate(zip(self._rows, self.pivots)):
            c = w.get(p)
            if c:
                coeffs[i] = c
                add_scaled(w, -c, row)
        return w, coeffs

    def reduce(self, v: Sequence[Fraction]) -> tuple[Vector, Vector]:
        """Return (residual, coefficients) of v against the RREF basis.

        residual = v - sum(coefficients[i] * basis[i]); residual has zeros in
        all pivot coordinates.  v lies in the subspace iff residual == 0.
        """
        v = vector(v)
        residual, coeffs = self._reduce(sparse_vector(v))
        return dense_vector(residual, len(v)), dense_vector(coeffs, self.dim)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not self._reduce(sparse_vector(vector(v)))[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the right null space, dim = cols - rank.

    One elimination with each row's pivot at its rightmost column gives the
    kernel's RREF directly (see the module docstring).
    """
    ncols = m.cols
    last = ncols - 1
    rows, keys = _rref_rows(
        {last - j: e for j, e in row.items()} for row in _transpose(m._columns, m.rows)
    )
    pivots = {last - key for key in keys}
    free = tuple(j for j in range(ncols) if j not in pivots)
    slot = {f: i for i, f in enumerate(free)}
    vecs = [{f: _ONE} for f in free]
    for key, row in zip(keys, rows):
        p = last - key
        for j, x in row.items():
            if j != key:
                vecs[slot[last - j]][p] = -x
    return Subspace._of_rows(ncols, vecs, free)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = Matrix._of_columns(m._columns + tuple({i: _ONE} for i in range(n)), n)
    reduced, pivots = aug.rref()
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix._of_columns(reduced._columns[n:], n)


def membership(v: Sequence[Fraction], sub: Subspace) -> Vector | None:
    """Coordinates of v in sub's basis when v lies in sub, else None."""
    residual, coeffs = sub._reduce(sparse_vector(vector(v)))
    return None if residual else dense_vector(coeffs, sub.dim)


def solve_pivot(m: Matrix, v: Sequence[Fraction]) -> tuple[Vector | None, tuple[int, ...]]:
    """(x, pivots): the canonical solution of m*x = v (free variables zero)
    or None, and the pivot columns of m, read off the one elimination."""
    v = vector(v)
    if len(v) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = Matrix._of_columns(m._columns + (sparse_vector(v),), m.rows)
    reduced, pivots = aug.rref()
    if m.cols in pivots:
        return None, pivots[:-1]
    rhs = reduced._columns[m.cols]
    return dense_vector({p: rhs[r] for r, p in enumerate(pivots) if r in rhs}, m.cols), pivots
