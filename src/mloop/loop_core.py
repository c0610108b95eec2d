"""Cayley-table loops.

A loop of order n is stored as an n x n Latin square over 0..n-1 with the
identity pinned at index 0.  The constructor compares the table with its
transpose once and keeps the answer as ``commutative``: the Latin check then
sorts a commutative table's rows only, and ``diagnose``, the centre scan and
every closure read the flag instead of comparing again.  The closure kernel
``_close`` multiplies its frontier on one side only on a commutative table and
ends once the mask is the whole loop.  The triple scans run growing y-row
blocks outer, each cast to intp once, and x inner: (xy)z is the table with its
rows permuted by L_x, and x(yz) a ``take`` from row x.

The coset lemma: c in Z = Z(L) is central and nuclear, so (xc)y = (xy)c = x(yc)
and (ac)\\(bc) = a\\b (Bruck, A Survey of Binary Systems, 1958), and the associator
is an (m, m, m) tensor A_q on L/Z.  A law whose sides move by one power of c with
x, y or z holds or fails on whole coset triples, so its least violating (x, y, z)
is (r_a, r_b, r_c) for the least violating coset triple, reps[a] the least member
of coset a, increasing in a.  ``diagnose``, the inner-map certificate (which
checks Z first) and verify's identity checks read their laws on reps^3.

A direct product keeps its factors.  Pairs commute and lie in the three nuclei iff
each coordinate does, so Z(A x B) = Z(A) x Z(B), and (a, b)\\(c, d) = (a\\c, b\\d):
its ``central_mask``, ``inverse_array`` and ``ldiv_table`` are the factors'.  Its
constructor's checks, ``diagnose``, associators and certificates read its own table.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    BadDimension,
    CrossLoop,
    NoIdentity,
    NotLatinSquare,
    NotNormal,
    OrderOverflow,
    ParseError,
)
from . import perm_rows
from .perm_rows import blocks, cast_blocks

MAX_ORDER_DEFAULT = 1024

# Cached tensors are int16; 300^3 is ~54 MB, the ceiling accepted for the
# associator tensor (on m = |L/Z(L)|) and the inner-mapping tensor (on n).
_TENSOR_LIMIT = 300


def _index_dtype(n):
    """Smallest dtype holding the indices 0..n-1 of tables and permutations."""
    return np.int16 if n <= (1 << 15) else np.int32


def _first_index(bad):
    """Lexicographically least True index of a boolean array, as ints."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


def _least_violations(table, laws, reps):
    """Per law, the least (x, y, z) in reps^3 with law(xs, ys, yz)[i, j, k], or None.

    ys is a y-block of the increasing ``reps``, yz[j, k] = ys[j] reps[k] as intp, xs a block
    of at most GATHER_BLOCK // yz.size reps; a law failing at x* is then read only at x < x*.
    All of reps^3 is one block when it holds at most GATHER_BLOCK entries.
    """
    found, bound = [None] * len(laws), [len(reps)] * len(laws)
    pairs, whole = table[np.ix_(reps, reps)], len(reps) ** 3 <= perm_rows.GATHER_BLOCK
    for rows, yz in [(slice(None), pairs.astype(np.intp))] if whole else cast_blocks(pairs):
        ys = reps[rows]
        for xb in blocks(max(bound), yz.size):
            for i, law in enumerate(laws):
                xs = reps[xb.start:min(xb.stop, bound[i])]
                if xs.size:
                    bad = law(xs, ys, yz)
                    if bad.any():
                        a, b, c = _first_index(bad)
                        found[i], bound[i] = (int(xs[a]), int(ys[b]), int(reps[c])), xb.start + a
    return found


def _close(table, base_mask, new_mask, stop=None, commutative=False):
    """Product-closure of base_mask | new_mask, assuming base_mask is closed.

    Each round multiplies the frontier by the known set, x y for x in the
    frontier, and y x as well unless the table is ``commutative``.  The whole
    loop is closed, so the rounds end once the mask holds every element.  With
    an index array ``stop``, returns early, possibly before closing, as soon as
    the mask holds one of those indices.
    """
    known = base_mask | new_mask
    frontier = (new_mask & ~base_mask).nonzero()[0]
    while frontier.size and not known.all():
        if stop is not None and known[stop].any():
            break
        kidx = known.nonzero()[0]
        hit = np.zeros(known.shape[0], dtype=bool)
        hit[table[frontier[:, None], kidx]] = True
        if not commutative:
            hit[table[kidx[:, None], frontier]] = True
        hit &= ~known
        known |= hit
        frontier = hit.nonzero()[0]
    return known


def _greedy_generators(table, span, commutative=False):
    """The greedy generators g_1 < g_2 < ... of the loop over the closed mask
    ``span``: g_{i+1} is the least element outside the subloop <span, g_1 .. g_i>."""
    ids = np.arange(len(table))
    while not span.all():
        g = int(np.argmin(span))
        yield g
        span = _close(table, span, ids == g, commutative=commutative)


def _central_scan(table, x, commutative):
    """Whether the commuting x has (xy)z = x(yz), and x(yz) = y(xz) unless the
    table is commutative, for all y, z: growing y-blocks, left at the first
    failing one."""
    t = table
    for rows, t_rows in cast_blocks(t):
        xyz = t[x].take(t_rows)
        if not (np.array_equal(t.take(t[x, rows], axis=0), xyz)
                and (commutative or np.array_equal(xyz, t_rows.take(t[x], axis=1)))):
            return False
    return True


def _central_violation(table, central):
    """Least (c, y, z) for the first greedy generator c of the claimed Z that fails, or None.

    A route apart from ``central_mask``'s scan: each c outside the span of the earlier
    ones must commute with every y, satisfy (cy)z = c(yz), (yc)z = y(cz) and
    (yz)c = y(zc), and keep Z closed under * c (else row y, y in Z and cy not, fails).
    The centre is a subloop, so Z, the span of such generators, is one inside it.
    A c that commutes with every y has (yc)z = (cy)z and (yz)c = c(yz), so the laws read
    X = Y = W for X = (cy)z, Y = c(yz) and W = y(cz): (X != Y) | (Y != W) is the same mask.
    """
    t, span = table, np.arange(len(table)) == 0
    for c in np.flatnonzero(central):
        if span[c]:
            continue
        left, right = t[c], t[:, c]
        yzc = left[t]  # c(yz), gathered with no intp copy of the table
        bad = (t[left] != yzc) | ((yzc != t[:, left]) if np.array_equal(left, right) else
                                  (t[right] != t[:, left]) | (right[t] != t[:, right]))
        bad |= ((left != right) | (central & ~central[left]))[:, None]
        if bad.any():
            return (int(c),) + _first_index(bad)
        while not span[left[span]].all():
            span[left[span]] = True
    return None


@dataclass(frozen=True)
class LoopDiagnostics:
    """Outcome of the structural scans over a multiplication table.

    ``first_violation`` is the lexicographically least triple violating the
    strongest failed triple law: the commutative Moufang identity if it has
    violations, otherwise associativity.  Structural failures (Latin or
    identity defects, bare non-commutativity) leave it as None.
    """

    is_latin: bool
    has_identity: bool
    is_commutative: bool
    is_cml: bool
    is_associative: bool
    first_violation: Optional[Tuple[int, int, int]]


class CayleyLoop:
    """Immutable finite loop given by its multiplication table.

    The constructor validates the table: square shape, entries in range,
    Latin rows and columns, and element 0 acting as two-sided identity.
    It tests the table against its transpose once, and the read-only
    ``commutative`` keeps the answer for every later scan that depends on it.
    Derived tables (inverses, left division, associators) are computed
    lazily and cached; the instance itself is never mutated afterwards.
    """

    def __init__(self, table, name=None):
        arr = _raw_table(table)
        n = arr.shape[0]
        arr = arr.astype(_index_dtype(n))
        self._commutative = bool(np.array_equal(arr, arr.T))
        violation = _latin_violation(arr, self._commutative)
        if violation is not None:
            raise NotLatinSquare(*violation)
        if not _has_identity(arr):
            raise NoIdentity("element 0 is not a two-sided identity")
        arr.setflags(write=False)
        self.table = arr
        self.n = n
        self.name = name if name is not None else f"loop{n}"
        self._inv = None
        self._ldiv = None
        self._central = None
        self._cosets = None
        self._assoc = self._assoc_values = None
        self._inner = None
        self._central_check = None  # (violation or None,) once checked
        self._inner_check = None  # (violation or None,) once scanned
        self._diag = None
        self._factors = None  # (A, B) when built by direct_product

    @property
    def commutative(self):
        """Whether the table equals its transpose, tested once by the constructor."""
        return self._commutative

    # -- basic arithmetic on element indices --------------------------------

    def mul(self, i, j):
        return int(self.table[i, j])

    def inverse_array(self):
        if self._inv is None:
            if self._factors is not None:
                a, b = self._factors
                inv = _pair_codes(a.inverse_array(), b.inverse_array(), b.n, self.table.dtype)
            else:
                inv = np.argmin(self.table, axis=1).astype(self.table.dtype)
            inv.setflags(write=False)
            self._inv = inv
        return self._inv

    def inv(self, i):
        return int(self.inverse_array()[i])

    def ldiv_table(self):
        """ldiv[u, w] is the unique k with u * k = w."""
        if self._ldiv is None:
            n = self.n
            if self._factors is not None:
                a, b = self._factors
                ld = _pair_codes(a.ldiv_table(), b.ldiv_table(), b.n, self.table.dtype)
            else:
                ld = np.empty((n, n), dtype=self.table.dtype)
                ld[np.arange(n)[:, None], self.table] = np.arange(n, dtype=self.table.dtype)
            ld.setflags(write=False)
            self._ldiv = ld
        return self._ldiv

    def ldiv(self, i, j):
        return int(self.ldiv_table()[i, j])

    def power(self, i, k):
        """k-th power of element i, evaluated as a left-iterated product.

        Unambiguous whenever single elements generate groups, which holds
        in every diassociative loop and in particular in every CML.
        """
        if k < 0:
            return self.power(self.inv(i), -k)
        acc = 0
        for _ in range(k):
            acc = int(self.table[i, acc])
        return acc

    def element_order(self, i):
        k, acc = 1, i
        while acc != 0:
            acc = int(self.table[i, acc])
            k += 1
        return k

    def assoc(self, a, b, c):
        """Associator index k solving (a(bc)) * k = (ab)c, read off the table."""
        t = self.table
        left = t[t[a, b], c]
        right = t[a, t[b, c]]
        return int(self.ldiv_table()[right, left])

    # -- the centre and cached tensors ---------------------------------------

    def central_mask(self):
        """Mask of Z(L): the x that commute with everything and lie in the nucleus.

        With x commuting, the middle and right nucleus laws both read x(yz) = y(xz);
        a commutative table implies that from (xy)z = x(yz) and tests only the latter.
        The set S of commuting x passing these laws is closed under products: on a
        commutative table it is the left nucleus, where ((ab)y)z = (a(by))z =
        a((by)z) = a(b(yz)) = (ab)(yz), and otherwise it is Z(L), a subloop (Bruck,
        A Survey of Binary Systems, 1958).  So the laws are first read on pairs
        (y, z) = (g, h) of L's greedy generators, n k^2 reads for k generators, then
        at y = g and every z on the rows of the x still in, and a failure rules x
        out; the pairs are among those z, so they drop no x that the full rows keep.
        The survivors are walked in ascending order: an x in the span of those found
        central is central, any other runs the full n^2 scan (``_central_scan``), and
        if it passes it joins the span.  Full scans run only for the greedy
        generators of Z and for survivors outside Z.  A direct product's is Z(A) x Z(B).
        """
        if self._central is None and self._factors is not None:
            self._central = np.logical_and.outer(*(f.central_mask() for f in self._factors)).ravel()
            self._central.setflags(write=False)
        if self._central is None:
            t, commutative = self.table, self.commutative
            central = np.ones(self.n, dtype=bool) if commutative else (t == t.T).all(axis=1)
            gens = np.array(list(_greedy_generators(t, np.arange(self.n) == 0, commutative)),
                            dtype=np.intp)
            flat, xg = t.ravel(), t[:, gens].astype(np.intp)  # xg[x, i] = x g_i
            x_gh = t.take(xg[gens], axis=1)  # [x, i, j] = x(g_i g_j)
            central &= (flat.take(xg[:, :, None] * self.n + gens) == x_gh).all(axis=(1, 2))
            if not commutative:  # g_i(x g_j)
                g_xh = flat.take(xg[:, None, :] + gens[:, None] * self.n)
                central &= (x_gh == g_xh).all(axis=(1, 2))
            for g in gens:
                xs = np.flatnonzero(central)
                row = t[g].astype(np.intp)
                x_gz = t[xs].take(row, axis=1)
                ok = (t[t[xs, g]] == x_gz).all(axis=1)  # (xg)z vs x(gz)
                if not commutative:
                    ok &= (x_gz == row.take(t[xs])).all(axis=1)  # x(gz) vs g(xz)
                central[xs] = ok
            span = np.arange(self.n) == 0
            for x in np.flatnonzero(central):
                if span[x]:
                    continue
                if not _central_scan(t, x, commutative):
                    central[x] = False
                    continue
                left = t[x]
                while not span[left[span]].all():
                    span[left[span]] = True
            central.setflags(write=False)
            self._central = central
        return self._central

    def central_cosets(self):
        """(reps, proj) of the cosets of Z(L)."""
        if self._cosets is None:
            self._cosets = _cosets(self.table, np.flatnonzero(self.central_mask()))
        return self._cosets

    def associator_table(self):
        """A_q[a, b, c] = (r_a, r_b, r_c), r = reps of ``central_cosets()``, so that
        (x, y, z) = A_q[proj[x], proj[y], proj[z]]; the guard bounds m, not n."""
        if self._assoc is None:
            reps = self.central_cosets()[0]
            if len(reps) > _TENSOR_LIMIT:
                raise OrderOverflow("associator table", _TENSOR_LIMIT, len(reps))
            t, m, ldiv = self.table, len(reps), self.ldiv_table()
            pairs, right = t[np.ix_(reps, reps)], t[:, reps]  # r_b r_c, y r_c
            out = np.empty((m,) * 3, dtype=t.dtype)
            for b in blocks(m, m * m):  # ldiv[r_a (r_b r_c), (r_a r_b) r_c]
                out[b] = ldiv[t[reps[b]][:, pairs], right[pairs[b]]]
            out.setflags(write=False)
            self._assoc = out
        return self._assoc

    def associator_values(self):
        """The distinct values of ``associator_table()``, ascending, computed once."""
        if self._assoc_values is None:
            self._assoc_values = np.flatnonzero(np.bincount(self.associator_table().ravel()))
        return self._assoc_values

    def inner_mapping_table(self):
        """Tensor I[x, y, z] = image of z under L(xy)^-1 L(x) L(y).

        Computed directly from translation composition, independently of
        the associator tensor, so the two can cross-check each other.
        """
        if self._inner is None:
            if self.n > _TENSOR_LIMIT:
                raise OrderOverflow("inner mapping table", _TENSOR_LIMIT, self.n)
            t, ldiv = self.table, self.ldiv_table()
            out = np.empty((self.n,) * 3, dtype=t.dtype)
            for x in range(self.n):
                out[x] = ldiv[t[x][:, None], t[x][t]]  # [y, z] = ldiv[x y, x (y z)]
            out.setflags(write=False)
            self._inner = out
        return self._inner

    def central_violation(self):
        """``_central_violation`` of the claimed Z(L), cached per loop: the least (c, y, z)
        at which a greedy generator c of ``central_mask()`` is not central and nuclear,
        or None.  Both the inner-map certificate and M(L)'s chain rest on it."""
        if self._central_check is None:
            self._central_check = (_central_violation(self.table, self.central_mask()),)
        return self._central_check[0]

    def inner_identity_violation(self):
        """Least (x, y, z) with I[x, y, z] != z * (z, y, x), or None; but first the
        least (c, y, z) at which ``central_violation`` finds the claimed Z wrong.

        In a CML L(x, y) sends z to z(z, y, x); this scan, cached per loop, certifies
        A_q and its cosets against inner-map rows built apart.  It reads reps^3 by the
        coset lemma: for c in Z, I[xc, y, z] = I[x, yc, z] = I[x, y, z] and
        I[x, y, zc] = I[x, y, z] * c, and z * (z, y, x) moves the same way.
        """
        if self._inner_check is None:
            t, n = self.table, self.n
            flat, ldiv = t.ravel(), self.ldiv_table().ravel()
            reps, proj = self.central_cosets()
            assoc, zoff = self.associator_table(), reps.astype(np.intp) * n

            def bad(xs, ys, yz):
                # flat indices of I[x, y, z] = ldiv[xy, x(yz)] and z * A_q[z', y', x'], at [x, y, z]
                inner = t[xs].take(yz, axis=1) + t[xs][:, ys].astype(np.intp)[:, :, None] * n
                zyx = assoc[:, :, proj[xs]].T.take(proj[ys], axis=1) + zoff
                return ldiv.take(inner) != flat.take(zyx)

            self._inner_check = (self.central_violation()
                                 or _least_violations(t, (bad,), reps)[0],)
        return self._inner_check[0]

    # -- misc ----------------------------------------------------------------

    def element(self, i):
        if not 0 <= i < self.n:
            raise ParseError(f"element index {i} out of range 0..{self.n - 1}")
        return LoopElement(self, int(i))

    def elements(self):
        return [LoopElement(self, i) for i in range(self.n)]

    def diagnostics(self):
        if self._diag is None:
            self._diag = diagnose(self)
        return self._diag

    def exponent(self):
        out = 1
        for i in range(self.n):
            out = int(np.lcm(out, self.element_order(i)))
        return out

    def serialize(self):
        lines = [f"# name: {self.name}", str(self.n)]
        for row in self.table:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"CayleyLoop({self.name!r}, n={self.n})"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)


@dataclass(frozen=True)
class LoopElement:
    loop: CayleyLoop
    index: int

    def _join(self, other):
        if not isinstance(other, LoopElement):
            raise TypeError(f"cannot combine LoopElement with {type(other).__name__}")
        if self.loop is not other.loop:
            raise CrossLoop("operands belong to different loops")
        return other

    def __mul__(self, other):
        other = self._join(other)
        return LoopElement(self.loop, self.loop.mul(self.index, other.index))

    def inv(self):
        return LoopElement(self.loop, self.loop.inv(self.index))

    def __pow__(self, k):
        return LoopElement(self.loop, self.loop.power(self.index, k))

    def order(self):
        return self.loop.element_order(self.index)

    def __repr__(self):
        return f"<{self.index} in {self.loop.name}>"


def associator(a, b, c):
    b = a._join(b)
    c = a._join(c)
    return LoopElement(a.loop, a.loop.assoc(a.index, b.index, c.index))


# -- validation and diagnostics ---------------------------------------------


def _raw_table(table):
    """The table as an array, checked to be non-empty, square, integer and in range."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise BadDimension(f"expected a non-empty square table, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ParseError("table entries must be integers")
    n = arr.shape[0]
    if arr.min() < 0 or arr.max() >= n:
        bad = arr.min() if arr.min() < 0 else arr.max()
        raise ParseError(f"value {bad} out of range 0..{n - 1}")
    return arr


def _latin_violation(arr, commutative=False):
    """(axis, index, repeated value) of the first non-Latin row or column, or None.

    A ``commutative`` table's columns are its rows, so only the rows are sorted:
    a bad row is reported before any column in either case.
    """
    n = arr.shape[0]
    ref = np.arange(n)
    axes = (("row", arr),) if commutative else (("row", arr), ("col", arr.T))
    for axis, mat in axes:
        ok = (np.sort(mat, axis=1) == ref).all(axis=1)
        if not ok.all():
            idx = int(np.argmin(ok))
            counts = np.bincount(np.asarray(mat[idx], dtype=np.int64), minlength=n)
            return axis, idx, int(np.argmax(counts > 1))
    return None


def _has_identity(arr):
    ref = np.arange(arr.shape[0])
    return bool(np.array_equal(arr[0], ref) and np.array_equal(arr[:, 0], ref))


def diagnose(loop_or_table):
    """Run the structural scans and return a LoopDiagnostics.

    Accepts a CayleyLoop or a raw square table, which may hold material that
    the validating constructor rejects.  A loop's two laws are read on reps^3
    by the coset lemma (module docstring), a raw table's on all n^3 triples.
    """
    if isinstance(loop_or_table, CayleyLoop):
        t, reps = loop_or_table.table, loop_or_table.central_cosets()[0]
        is_latin = has_identity = True  # proved by the constructor
        is_commutative = loop_or_table.commutative
    else:
        t = _raw_table(loop_or_table)
        reps = np.arange(len(t))
        is_commutative = bool(np.array_equal(t, t.T))
        is_latin = _latin_violation(t, is_commutative) is None
        has_identity = _has_identity(t)
    tz, flat = t.take(reps, axis=1), t.ravel()  # tz[x, c] = x r_c, C-ordered for take

    def non_associative(xs, ys, yz):  # (xy)z vs x(yz)
        return tz.take(t[xs][:, ys], axis=0) != t[xs].take(yz, axis=1)

    def non_moufang(xs, ys, yz):  # x^2 (yz) vs (xy)(xz), the latter read flat
        xy_xz = t[xs][:, ys].astype(np.intp)[:, :, None] * len(t) + tz[xs][:, None]
        return t[t[xs, xs]].take(yz, axis=1) != flat.take(xy_xz)

    first_assoc, first_cml = _least_violations(t, (non_associative, non_moufang), reps)
    return LoopDiagnostics(
        is_latin=is_latin,
        has_identity=has_identity,
        is_commutative=is_commutative,
        is_cml=is_commutative and first_cml is None,
        is_associative=first_assoc is None,
        first_violation=first_cml if first_cml is not None else first_assoc,
    )


# -- parsing and generation --------------------------------------------------


def parse_loop(text, name=None):
    """Parse the plain text format: optional # comments, order line, n rows.

    A ``# name: <label>`` header names the loop; *name* is the fallback used
    when the text carries no header.
    """
    header_name = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("name:"):
                header_name = body[5:].strip()
            continue
        rows.append((lineno, line))
    if not rows:
        raise ParseError("empty input")
    lineno, head = rows[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"line {lineno}: order is not an integer: {head!r}") from None
    if n <= 0:
        raise BadDimension(f"declared order {n} is not positive")
    body = rows[1:]
    if len(body) != n:
        raise BadDimension(f"declared order {n} but found {len(body)} table rows")
    table = []
    for lineno, line in body:
        toks = line.split()
        if len(toks) != n:
            raise BadDimension(f"line {lineno}: expected {n} entries, found {len(toks)}")
        try:
            table.append([int(tok) for tok in toks])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in table row") from None
    return CayleyLoop(np.array(table), name=header_name if header_name is not None else name)


def _guard_order(n, max_order):
    limit = MAX_ORDER_DEFAULT if max_order is None else max_order
    if n > limit:
        raise OrderOverflow("max-order", limit, n)


def gen_abelian(moduli, max_order=None, name=None):
    """Direct sum of cyclic groups, folded by direct_product: mixed-radix, most significant first."""
    moduli = list(moduli)
    if any(m < 1 for m in moduli):
        raise BadDimension(f"moduli must be positive: {moduli}")
    _guard_order(math.prod(moduli), max_order)
    label = name if name is not None else "abelian:" + ",".join(str(m) for m in moduli or [1])
    product = CayleyLoop([[0]], name=label)
    for i, m in enumerate(moduli, 1):
        idx = np.arange(m)
        product = direct_product(product, CayleyLoop((idx[:, None] + idx) % m), max_order,
                                 name=label if i == len(moduli) else None)
    return product


def gen_zassenhaus81():
    """The order-81 commutative Moufang loop on 4-tuples over Z_3.

    Product: coordinatewise addition except the last coordinate, which
    picks up the twist (x3 - y3)(x1 y2 - x2 y1).  Base-3 encoded with the
    first coordinate most significant, so e1=27, e2=9, e3=3, e4=1.
    """
    idx = np.arange(81, dtype=np.int16)[:, None]
    x = [idx // 27, idx // 9 % 3, idx // 3 % 3, idx % 3]  # x's digits as (81, 1) columns
    y = [d.T for d in x]
    twist = (x[2] - y[2]) * (x[0] * y[1] - x[1] * y[0])
    table = ((x[0] + y[0]) % 3 * 27 + (x[1] + y[1]) % 3 * 9 + (x[2] + y[2]) % 3 * 3
             + (x[3] + y[3] + twist) % 3)
    return CayleyLoop(table, name="zassenhaus81")


def _pair_codes(xa, xb, nb, dtype):
    """xa * nb + xb at each pair of positions, every axis indexed by pair codes i * len + j,
    computed in a dtype that holds nb too and returned in ``dtype``."""
    wide = np.promote_types(dtype, np.min_scalar_type(nb))
    ea = xa.astype(wide).reshape([d for s in xa.shape for d in (s, 1)])
    eb = xb.astype(wide).reshape([d for s in xb.shape for d in (1, s)])
    codes = (ea * nb + eb).reshape([s * t for s, t in zip(xa.shape, xb.shape)])
    return codes.astype(dtype, copy=False)


def direct_product(a, b, max_order=None, name=None):
    """Componentwise product on pairs, encoded as i * order(b) + j, keeping (a, b) for
    Z(L), inverses and left division (module docstring).  The table is built in int64:
    freeing that temporary raises glibc's mmap threshold above the later scans' blocks."""
    n = a.n * b.n
    _guard_order(n, max_order)
    table = _pair_codes(a.table, b.table, b.n, np.int64)
    label = name if name is not None else f"{a.name}x{b.name}"
    loop = CayleyLoop(table, name=label)
    loop._factors = (a, b)
    return loop


def _cosets(table, members):
    """(reps, proj) for the normal subloop with member indices ``members``: reps[a]
    is the least member of coset a, increasing in a; proj[x] is x's coset, read-only."""
    reps, proj = np.unique(table[:, members].min(axis=1), return_inverse=True)
    proj = proj.astype(table.dtype)
    proj.setflags(write=False)
    return reps, proj


def quotient(loop, subloop):
    """Quotient loop by a normal subloop, with the coset projection; in ``src`` only
    lemma 1 builds one.  Returns (Q, proj): proj is a read-only index array in the
    table's dtype, proj[x] the index in Q of x's coset.  Coset representatives are
    the least member of each coset, so the identity coset lands at index 0.
    """
    from .structure import coerce_subloop, is_normal, normality_witness

    h = coerce_subloop(loop, subloop)
    if not is_normal(loop, h):
        raise NotNormal(normality_witness(loop, h))
    reps, proj = _cosets(loop.table, np.flatnonzero(h.mask()))
    return CayleyLoop(proj[loop.table[np.ix_(reps, reps)]], name=f"{loop.name}/{h.size}"), proj
