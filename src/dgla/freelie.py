"""Free graded Lie algebras on finitely many positive-degree generators.

The algebra is realized inside the tensor algebra on the generators via

    [a, b]  =  a (x) b  -  (-1)^{|a||b|}  b (x) a,

which in characteristic zero is a faithful embedding, so equality of Lie
polynomials reduces to equality of tensor coordinates and all Koszul signs
take care of themselves.  A canonical basis of each homogeneous piece is
extracted by row-reducing the embedded left-normed bracket monomials in a
fixed enumeration order, so every answer is reproducible bit for bit.

The content of a word is the multiset of its letters.  The embedding of a
bracket monomial only has words of the monomial's content, so the span
splits into one independent block per content, and the greedy basis of the
whole enumeration is the union of the blocks' greedy bases.  Each block is
one `linalg._Echelon`, the package's one elimination engine, on sparse rows
of primitive integers keyed by words (all embedding coefficients are
integers); a row's pivot is its least word, and since all words of a content
have the same length, plain lexicographic order.  Reducing a vector tracks
an integer combination gamma of the block's basis vectors and a scale s,
and a vector in the span has coordinates -gamma/s, so the echelon is also
the content's coordinate solver.  Fractions appear only at the boundary, in
`basis_coords` and so in `bracket_table` and the d-matrices built from it;
`basis_coords` also takes an integer scale, so a vector held as scale times
a rational one (the differential's images) is divided by it only there.
The enumeration stops once the total rank reaches the dimension the PBW
series predicts, since no later word can add to the span.

Each content also stops at its own dimension, before its words are even
embedded.  For a content with letter multiplicities alpha, |alpha| letters
and letter parities p_i (the generator degrees mod 2), write
eps^g = (-1)^{sum_i g_i p_i} and M(g) = |g|! / prod_i g_i!.  The tensor
algebra is the enveloping algebra, so PBW refined by content reads

    1 / (1 - sum_i eps_i x_i)  =  prod_alpha (1 - x^alpha)^(-eps^alpha l_alpha)

with l_alpha = dim L_alpha, and taking logarithms and Moebius inversion
gives the graded Witt formula (Kang & Kim 1996; Reutenauer, Free Lie
Algebras, 1993)

    l_alpha = (eps^alpha / |alpha|) sum_{d | gcd alpha} mu(d) eps^(alpha/d) M(alpha/d).

So a word is skipped when its content's block already has rank l_alpha, and
a content with l_alpha = 0 (an even letter alone twice, say) never gets a
block.  Left-normed words span each L_alpha, so every block's greedy basis
is unchanged.  The formula is not trusted blindly: an understated l_alpha
would leave the total rank short of the PBW dimension, and that raises
ArithmeticError rather than returning a smaller basis.

The tensor algebra is the enveloping algebra of the free Lie algebra, and a
degree-r derivation of L(V) is the restriction of the unique derivation of
T(V) with the same values on V.  So `apply_derivation` is the one rule that
extends d (r = -1) and every relative derivation from generators to
brackets: it replaces one letter of each word by that letter's image, with
Koszul sign (-1)^{r |prefix|}, and `basis_coords` reads the result back into
the degree basis.

The free sub-algebra on a subset of the generators is an index set of the
ambient basis, `sub_basis`, not a FreeGLA of its own.  Its words are the
ambient words over the subset in the same (length, lex) order, and its
content blocks are the ambient blocks over the subset, so each keeps the
same greedy basis: in order, the ambient basis vectors whose words use only
the subset's letters.  An element lies in the sub-algebra iff its
coordinates vanish off those indices, and the ones at them are its
sub-algebra coordinates.  That is the reading on coordinates; on tensor
form it is `letters`: the embedding is faithful and every word of a content
block has that block's letters, so an element lies in the sub-algebra iff
the letters of its words are among the subset.

Tensor-space vectors are sparse dicts keyed by words (tuples of generator
indices), with int or Fraction values.  Words are enumerated by (length,
tuple), which fixes which monomials join a basis; within a content block
the pivots follow tuple order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Iterable, Sequence

from .errors import FormatError, MixedDegrees, NotSimplyConnected, UnknownGenerator
from .exprs import MONOMIAL_LETTERS, combine_terms, eval_tree, format_terms, format_tree, is_identifier
from .linalg import Vector, _clear_denominators, _Echelon, add_scaled, dense_vector

Word = tuple[int, ...]
TVec = dict[Word, int | Fraction]


class GradedGenerator:
    """A named generator of a degree: immutable, equal and hashed by value."""

    __slots__ = ("name", "degree")

    def __init__(self, name: str, degree: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError("GradedGenerator is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.degree == other.degree

    def __hash__(self):
        return hash((self.name, self.degree))

    def __repr__(self):
        return f"GradedGenerator(name={self.name!r}, degree={self.degree!r})"

    def __reduce__(self):
        return GradedGenerator, (self.name, self.degree)


class LiePoly:
    """A formal sum of (rational, fully parenthesized bracket word) terms.

    Purely syntactic: degrees and normal forms live in FreeGLA.  Equal trees
    are combined and zero terms dropped at construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[Fraction, object]] = ()):
        object.__setattr__(self, "terms", tuple(combine_terms(terms)))

    def __setattr__(self, name, value):
        raise AttributeError("LiePoly is immutable")

    def __reduce__(self):
        return LiePoly, (self.terms,)

    @classmethod
    def zero(cls) -> "LiePoly":
        return cls()

    @classmethod
    def gen(cls, name: str) -> "LiePoly":
        return cls([(Fraction(1), name)])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LiePoly") -> "LiePoly":
        return LiePoly(self.terms + other.terms)

    def __sub__(self, other: "LiePoly") -> "LiePoly":
        return self + (-1) * other

    def __rmul__(self, c) -> "LiePoly":
        c = Fraction(c)
        return LiePoly([(c * coeff, tree) for coeff, tree in self.terms])

    def __neg__(self) -> "LiePoly":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return isinstance(other, LiePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def support(self) -> set[str]:
        names: set[str] = set()
        for _, tree in self.terms:
            stack = [tree]
            while stack:
                t = stack.pop()
                if isinstance(t, str):
                    names.add(t)
                else:
                    stack.extend(t)
        return names

    def __repr__(self):
        return f"LiePoly({format_terms(list(self.terms))})"


def bracket(p: LiePoly, q: LiePoly) -> LiePoly:
    """Formal bracket, expanded bilinearly into bracket words."""
    return LiePoly(
        [(cp * cq, (tp, tq)) for cp, tp in p.terms for cq, tq in q.terms]
    )


def _moebius(n: int) -> int:
    """The Moebius function of n >= 1."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _escaped() -> ArithmeticError:
    return ArithmeticError(
        "tensor vector escaped the bracket span; this indicates an internal basis bug"
    )


def tensor_bracket(d1: int, v1: TVec, d2: int, v2: TVec) -> TVec:
    """[v1, v2] in tensor coordinates for homogeneous degrees d1, d2."""
    sign = -1 if (d1 * d2) % 2 else 1
    out: TVec = {}
    for w1, c1 in v1.items():
        for w2, c2 in v2.items():
            prod = c1 * c2
            k = w1 + w2
            nv = out.get(k, 0) + prod
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
            k = w2 + w1
            nv = out.get(k, 0) - sign * prod
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def _embed_bracket(left: tuple[int, TVec], right: tuple[int, TVec]) -> tuple[int, TVec]:
    return left[0] + right[0], tensor_bracket(*left, *right)


def generator_violations(generators) -> list[tuple[type, str]]:
    """Each violation of the generator rules as (error class, message):
    first the names, each a distinct identifier, then the degrees, each
    an integer >= 1, in generator order."""
    violations: list[tuple[type, str]] = []
    seen = set()
    for g in generators:
        if g.name in seen:
            violations.append((FormatError, f"duplicate generator name {g.name!r}"))
        elif not is_identifier(g.name):
            violations.append((FormatError, f"generator name {g.name!r} is not an identifier"))
        seen.add(g.name)
    for g in generators:
        if not isinstance(g.degree, int) or g.degree < 1:
            message = f"generator {g.name!r} has degree {g.degree}: not simply connected"
            violations.append((NotSimplyConnected, message))
    return violations


class DegreeBasis:
    """Canonical ordered basis of one homogeneous piece.

    monomials[i] is a left-normed bracket word (as a tree) and vectors[i]
    its tensor coordinates, in integers.  blocks maps each content (the
    sorted tuple of a word's letters) to the integer echelon of the basis
    vectors of that content, tagged by their basis index; together they
    solve for the coordinates of any tensor vector in the span.
    """

    __slots__ = ("degree", "monomials", "vectors", "blocks")

    def __init__(self, degree: int, monomials: tuple, vectors: tuple, blocks: dict):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "monomials", monomials)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("DegreeBasis is immutable")

    def __reduce__(self):
        return DegreeBasis, (self.degree, self.monomials, self.vectors, self.blocks)

    @property
    def dim(self) -> int:
        return len(self.monomials)


class FreeGLA:
    """Free graded Lie algebra on an ordered list of positive-degree generators.

    Generator names are distinct identifiers of the expression grammar, so
    the text of each monomial reads back as that monomial.

    Immutable after construction; per-degree data is computed on demand and
    memoized single-assignment, so concurrent readers see one canonical
    answer.
    """

    def __init__(self, generators: Sequence[GradedGenerator]):
        gens = tuple(generators)
        violations = generator_violations(gens)
        if violations:
            error, message = violations[0]
            raise error(message)
        self.generators = gens
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._degrees = tuple(g.degree for g in gens)
        self._embed_cache: dict = {}
        self._basis: dict[int, DegreeBasis] = {}
        self._monomials: dict[int, dict[str, int]] = {}
        self._pbw: dict[int, int] = {}
        self._witt: dict[tuple[tuple[int, int], ...], int] = {}
        self._oracle: dict[int, list[TVec]] = {}
        self._brackets: dict[tuple[int, int], tuple] = {}
        self._atoms: dict[str, tuple[int, int]] = {}

    # -- generators ---------------------------------------------------------

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def degree_of(self, name: str) -> int:
        return self._degrees[self.index_of(name)]

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    # -- tensor embedding ---------------------------------------------------

    def embed_tree(self, tree) -> tuple[int, TVec]:
        """(degree, tensor coordinates) of a bracket tree: the inclusion of
        the free Lie algebra into the tensor algebra, the Lie map that sends
        each generator to its one-letter word."""
        return eval_tree(tree, self._embed_leaf, _embed_bracket, self._embed_cache)

    def _embed_leaf(self, name: str) -> tuple[int, TVec]:
        i = self.index_of(name)
        return self._degrees[i], {(i,): 1}

    def embed(self, p: LiePoly) -> tuple[int | None, TVec]:
        """Tensor coordinates of p; p == 0 in L iff the vector is empty.

        The degree is None only for the termless polynomial; terms that
        cancel keep their common degree alongside an empty vector.
        """
        degree = None
        out: TVec = {}
        for coeff, tree in p.terms:
            d, vec = self.embed_tree(tree)
            if degree is None:
                degree = d
            elif degree != d:
                raise MixedDegrees(
                    f"terms of degree {degree} and {d} in one polynomial"
                )
            add_scaled(out, coeff, vec)
        if not out:
            return (None, {}) if degree is None else (degree, {})
        return degree, out

    # -- canonical bases ----------------------------------------------------

    def _index_tuples(self, length: int, degree: int):
        """Lexicographic index tuples of given length with degree sum."""
        n = len(self.generators)

        def rec(prefix: tuple[int, ...], remaining: int, slots: int):
            if slots == 0:
                if remaining == 0:
                    yield prefix
                return
            for i in range(n):
                d = self._degrees[i]
                if d <= remaining - (slots - 1):
                    yield from rec(prefix + (i,), remaining - d, slots - 1)

        yield from rec((), degree, length)

    def _iter_words(self, k: int):
        for length in range(1, k + 1):
            yield from self._index_tuples(length, k)

    def _left_normed(self, indices: Word):
        tree = self.generators[indices[0]].name
        for i in indices[1:]:
            tree = (tree, self.generators[i].name)
        return tree

    def degree_basis(self, k: int) -> DegreeBasis:
        """Canonical basis of the degree-k piece (k >= 1).

        Left-normed words are enumerated by (length, lex) and a word joins
        the basis when its embedding is independent of the earlier words of
        its content, in that content's echelon, which is also the solver for
        the content.  The enumeration stops once the rank reaches
        pbw_dim(k), which leaves the basis of the full enumeration
        unchanged; running out of words below that rank raises
        ArithmeticError.  An empty piece enumerates no word at all.
        """
        if k < 1:
            raise ValueError("degrees start at 1")
        hit = self._basis.get(k)
        if hit is not None:
            return hit
        dim = self.pbw_dim(k)
        if dim == 0:
            return self._basis.setdefault(k, DegreeBasis(k, (), (), {}))
        blocks: dict[Word, _Echelon] = {}
        content_dims: dict[Word, int] = {}
        monos = []
        vecs = []
        for indices in self._iter_words(k):
            if len(monos) == dim:
                break
            content = tuple(sorted(indices))
            need = content_dims.get(content)
            if need is None:
                need = content_dims[content] = self.content_dim(content)
            block = blocks.get(content)
            if (block.rank if block is not None else 0) == need:
                continue
            tree = self._left_normed(indices)
            _, vec = self.embed_tree(tree)
            if not vec:
                continue
            if block is None:
                block = blocks[content] = _Echelon()
            if block.insert(vec, len(monos)):
                monos.append(tree)
                vecs.append(vec)
        if len(monos) != dim:
            raise ArithmeticError(
                f"left-normed words span {len(monos)} dimensions in degree "
                f"{k}, the PBW series gives {dim}; "
                "this indicates an internal basis bug"
            )
        basis = DegreeBasis(k, tuple(monos), tuple(vecs), blocks)
        return self._basis.setdefault(k, basis)

    def monomial_index(self, k: int, texts: Iterable[str]) -> dict[str, int] | None:
        """{format_tree(m): i} over the degree-k basis monomials m, memoized.

        A table not built yet is built only when the letters of each of
        `texts` have degrees that sum to k, else the answer is None: text of
        the wrong degree never builds a basis.
        """
        hit = self._monomials.get(k)
        if hit is not None:
            return hit
        try:
            if any(sum(map(self.degree_of, MONOMIAL_LETTERS.findall(t))) != k for t in texts):
                return None
        except UnknownGenerator:
            return None
        monomials = self.degree_basis(k).monomials
        return self._monomials.setdefault(k, {format_tree(m): i for i, m in enumerate(monomials)})

    def sub_basis(self, k: int, names: Iterable[str]) -> tuple[int, ...]:
        """Indices of the degree-k basis vectors whose words use only `names`:
        in order, the canonical basis of the free sub-algebra on `names`, as
        dropping letters keeps the order of words and their content blocks."""
        if k < 1:
            return ()
        letters = {self.index_of(n) for n in names}
        return tuple(
            i
            for i, vec in enumerate(self.degree_basis(k).vectors)
            if letters.issuperset(next(iter(vec)))
        )

    def letters(self, vec: TVec) -> set[str]:
        """The names of the generators in the words of the tensor vector vec:
        the least set of names whose free sub-algebra holds vec."""
        return {self.generators[i].name for i in set().union(*vec)}

    def dim(self, k: int) -> int:
        if k < 1:
            return 0
        return self.degree_basis(k).dim

    def pbw_dim(self, k: int) -> int:
        """dim of the degree-k piece from the PBW series, in exact integers.

        The tensor algebra is the enveloping algebra of the free Lie algebra,
        so by Poincare-Birkhoff-Witt with l_n = dim L_n and eps_n = (-1)^n

            T(t) = 1/(1 - V(t)) = prod_n (1 - eps_n t^n)^(-eps_n l_n),

        V(t) being the sum of t^d over the generator degrees d and T_m the
        tensor dimensions.  Applying t d/dt to the logarithm of both sides
        (Reutenauer, Free Lie Algebras, 1993) gives t V'(t) T(t) =
        sum_n n l_n sum_{j >= 1} eps_n^(j-1) t^(nj), and at t^k the graded
        necklace recurrence

            k l_k = sum_i d_i T_{k - d_i} - sum_{n | k, n < k} n eps_n^(k/n + 1) l_n,

        which reads l_n only at the proper divisors n of k.
        """
        if k < 1:
            return 0
        hit = self._pbw.get(k)
        if hit is not None:
            return hit
        tensor = [1] + [0] * k
        for m in range(1, k + 1):
            tensor[m] = sum(tensor[m - d] for d in self._degrees if d <= m)
        total = sum(d * tensor[k - d] for d in self._degrees if d <= k)
        for n in range(1, k // 2 + 1):
            if k % n == 0:
                term = n * self.pbw_dim(n)
                total -= -term if n % 2 and (k // n) % 2 == 0 else term
        if total % k:
            raise ArithmeticError(
                f"PBW recurrence gives {total}/{k} in degree {k}; internal bug"
            )
        return self._pbw.setdefault(k, total // k)

    def content_dim(self, content: Word) -> int:
        """dim of the span of Lie elements whose words have this content
        (sorted letters), by the graded Witt formula of the module docstring.

        Memoized per multiset of (multiplicity, parity) pairs, which is all
        the formula reads.
        """
        counts: dict[int, int] = {}
        for i in content:
            counts[i] = counts.get(i, 0) + 1
        key = tuple(sorted((m, self._degrees[i] % 2) for i, m in counts.items()))
        hit = self._witt.get(key)
        if hit is not None:
            return hit
        g = gcd(*(m for m, _ in key))
        total = 0
        for d in range(1, g + 1):
            mu = _moebius(d) if g % d == 0 else 0
            if mu:
                parts = [m // d for m, _ in key]
                term = factorial(sum(parts))
                for m in parts:
                    term //= factorial(m)
                odd = sum(m // d for m, p in key if p)
                total += -mu * term if odd % 2 else mu * term
        if sum(m for m, p in key if p) % 2:
            total = -total
        return self._witt.setdefault(key, total // len(content))

    def normalize(self, p: LiePoly, degree: int | None = None) -> tuple[int | None, Vector]:
        """Unique coordinates of p in the canonical basis of its degree.

        Returns (degree, coords).  A zero polynomial has no intrinsic degree:
        when `degree` is supplied the zero vector of that piece is returned,
        otherwise (None, ()).
        """
        d, vec = self.embed(p)
        if d is None:
            if degree is None:
                return None, ()
            d = degree
        elif degree is not None and d != degree:
            raise MixedDegrees(f"expected degree {degree}, found {d}")
        return d, self.basis_coords(d, vec)

    def basis_coords(self, k: int, vec: TVec, scale: int = 1) -> Vector:
        """Coordinates in the degree-k basis of the Lie element vec / scale,
        vec in tensor form.

        Below degree 1 the piece is zero, so only the empty vector is allowed.
        """
        return dense_vector(self.sparse_coords(k, vec, scale), self.dim(k))

    def sparse_coords(self, k: int, vec: TVec, scale: int = 1) -> dict[int, Fraction]:
        """The nonzero coordinates of `basis_coords`, by basis index."""
        coords: dict[int, Fraction] = {}
        if not vec:
            return coords
        found = sum(self._degrees[i] for i in next(iter(vec)))
        if found != k:
            raise MixedDegrees(f"expected degree {k}, found {found}")
        basis = self.degree_basis(k)
        parts: dict[Word, TVec] = {}
        for w, a in vec.items():
            parts.setdefault(tuple(sorted(w)), {})[w] = a
        for content, part in parts.items():
            block = basis.blocks.get(content)
            if block is None:
                raise _escaped()
            ints, den = _clear_denominators(part)
            v, gamma, s = block.reduce(ints)
            if v:
                raise _escaped()
            s *= den * scale
            for t, x in gamma.items():
                coords[t] = Fraction(-x, s)
        return coords

    def tensor_of(self, k: int, coords: Sequence[Fraction]) -> TVec:
        """Tensor coordinates of the element with degree-k basis coords."""
        out: TVec = {}
        for c, vec in zip(coords, self.degree_basis(k).vectors):
            if c:
                add_scaled(out, c, vec)
        return out

    def apply_derivation(self, r: int, images: dict[int, TVec], vec: TVec) -> TVec:
        """The degree-r derivation with the given generator values, on vec.

        `images` maps generator indices to tensor vectors (absent ones map to
        zero).  On a word x_1...x_n the derivation of the tensor algebra is
        the sum over positions i of x_1...image(x_i)...x_n with sign
        (-1)^{r (|x_1| + ... + |x_{i-1}|)}; on Lie elements it agrees with
        the graded rule  theta[a,b] = [theta a, b] + (-1)^{r|a|} [a, theta b].
        """
        degrees = self._degrees
        out: TVec = {}
        for word, c in vec.items():
            prefix = 0
            for pos, letter in enumerate(word):
                image = images.get(letter)
                if image:
                    scale = -c if (r * prefix) % 2 else c
                    head, tail = word[:pos], word[pos + 1:]
                    for w, a in image.items():
                        key = head + w + tail
                        nv = out.get(key, 0) + scale * a
                        if nv:
                            out[key] = nv
                        else:
                            out.pop(key, None)
                prefix += degrees[letter]
        return out

    def atom(self, name: str) -> tuple[int, int]:
        """(degree, basis index) of a generator inside its degree basis."""
        hit = self._atoms.get(name)
        if hit is not None:
            return hit
        d = self.degree_of(name)
        basis = self.degree_basis(d)
        for i, tree in enumerate(basis.monomials):
            if tree == name:
                return self._atoms.setdefault(name, (d, i))
        raise ArithmeticError(f"generator {name!r} missing from its degree basis")

    def poly_of_coords(self, k: int, coords: Sequence[Fraction]) -> LiePoly:
        basis = self.degree_basis(k)
        if len(coords) != basis.dim:
            raise ValueError("coordinate length does not match basis")
        return LiePoly(
            [(c, tree) for c, tree in zip(coords, basis.monomials) if c != 0]
        )

    # -- brackets on coordinates -------------------------------------------

    def bracket_table(self, p: int, q: int) -> tuple:
        """table[i][j] = coordinates of [e_i^(p), e_j^(q)] in degree p+q."""
        hit = self._brackets.get((p, q))
        if hit is not None:
            return hit
        bp, bq = self.degree_basis(p), self.degree_basis(q)
        table = tuple(
            tuple(self.basis_coords(p + q, tensor_bracket(p, vi, q, vj)) for vj in bq.vectors)
            for vi in bp.vectors
        )
        return self._brackets.setdefault((p, q), table)

    def bracket_coords(self, p: int, vp: Sequence[Fraction], q: int, vq: Sequence[Fraction]) -> Vector:
        table = self.bracket_table(p, q)
        dim_out = self.dim(p + q)
        out = [Fraction(0)] * dim_out
        for i, ci in enumerate(vp):
            if ci == 0:
                continue
            for j, cj in enumerate(vq):
                if cj == 0:
                    continue
                cell = table[i][j]
                c = ci * cj
                for t in range(dim_out):
                    if cell[t]:
                        out[t] += c * cell[t]
        return tuple(out)

    # -- independent dimension oracle ----------------------------------------

    def _oracle_rows(self, k: int) -> list[TVec]:
        hit = self._oracle.get(k)
        if hit is not None:
            return hit
        echelon = _Echelon()
        for i, g in enumerate(self.generators):
            if g.degree == k:
                echelon.insert({(i,): 1})
        for p in range(1, k):
            q = k - p
            if q < 1:
                continue
            for u in self._oracle_rows(p):
                for v in self._oracle_rows(q):
                    vec = tensor_bracket(p, u, q, v)
                    if vec:
                        echelon.insert(vec)
        rows = [row for _, row, _ in echelon.rows]
        return self._oracle.setdefault(k, rows)

    def dim_oracle(self, k: int) -> int:
        """Dimension of the degree-k piece, assembled degree by degree.

        Independent route: spans are built bottom-up from pairwise tensor
        brackets of lower-degree pieces (never from left-normed enumeration),
        so agreement with degree_basis cross-checks both computations.
        """
        if k < 1:
            return 0
        return len(self._oracle_rows(k))
