"""Exact dense linear algebra over the rationals and prime fields.

A rational entry is a Python ``int`` when it is whole and a
``fractions.Fraction`` when it is not (a sum of Fractions may still be a whole
``Fraction``); both forms of a whole value are equal and print alike, so no
signature or formatted output depends on the form. Prime-field entries are
canonical integer residues in ``[0, p)``.  Matrices wrap numpy arrays purely
as exact containers: residues live in int64 arrays (reduced mod p after
every operation), rationals in object arrays.  No floating point anywhere:
entries meet ``/`` only as Fractions (``Field.inv``), and a quotient of
integers is built by ``_q``.

Rational elimination and products run fraction-free: rows and operands are
cleared of denominators into Python integers, eliminated by cross-multiplying
(Bareiss-style, with each updated row divided by the gcd of its entries) or
multiplied as integers. An eliminated row is divided by its pivot and a
product by its operands' common denominator through ``_q``, so a ``Fraction``
is built only for an entry that is not whole; a product of operands with no
denominators is the integer product itself. A row or operand whose entries
are all Python ints is already cleared and passes through unchanged: no new
list, and an object operand is multiplied as it is (an int64 one is still
copied into Python ints, so that no product overflows). A whole ``Fraction``
still takes the clearing path, which stores it as an int.

F_2 elimination runs on bit-packed rows, one Python int per row with bit j
for column j, combined by XOR and keyed by their lowest set bit
(``_rref_bits``); rows are packed as 63-bit int64 words, one integer product
per word (``_pack_bits``), and unpacked by shifts. Over F_2, :func:`intertwiners`
packs each hom-space equation into one Python int straight from the action
matrices and eliminates it in the same table, building no dense system; its
basis is the dense system's, as an RREF does not depend on the order of the
rows. A :class:`RowSpan` over F_2 keeps its RREF in that table too. F_2
residues are reduced by ``& 1``. For p > 2, matrices up to ``_ROW_CELLS``
cells are eliminated on Python-int rows and larger ones on the array.

Over Q, :func:`intertwiners` writes each hom-space equation as one Python
row and reads its basis off the eliminated rows as :meth:`Matrix.kernel`
does (``_null_basis``), building no dense system; for p > 2 it writes the
equations into one zero array and takes its ``Matrix.kernel``.

:meth:`Matrix.rref`, :meth:`Matrix.rank` and :meth:`Matrix.kernel` share
one elimination routine per field kind (``Matrix._eliminate``); ``rank``
and ``RowSpan.independent`` run it forward only, and ``kernel`` reads the
null space off its pivot rows, building no reduced matrix. A :class:`RowSpan` is the unique RREF of
the vectors inserted into it. Over F_2 it is held packed: an insertion
inserts only the new rows into the table, and a canonical form XORs table
rows. Over F_p, p > 2, and Q it is built by one ``rref`` per insertion of a
vector or a stack, and its canonical forms are one :meth:`Field.matmul`
against the stored rows. :func:`intertwiners` solves the linear systems of
hom spaces, and :func:`solve_in_span`, one ``rref``, is the one solve for
coefficients in a span.

All operations are pure and all values are immutable by convention, so they
can be shared freely across concurrent tasks.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError

RATIONAL = "rational"
PRIME = "prime"

# Residues of p < 2^20 live in int64: each product of two is below 2^40.
_INT64_LIMIT = 1 << 20


def _int64_chunk(p: int) -> int:
    """The longest inner dimension whose sum of residue products, each at most
    (p-1)^2, stays below 2^63."""
    return ((1 << 63) - 1) // (p - 1) ** 2


# Miller-Rabin with these bases is exact below 3.3 * 10^24, well past the
# characteristics accepted, which are below _PRIME_LIMIT.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 1 << 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """An exact computation field: the rationals or F_p for a prime p."""

    def __init__(self, kind: str, characteristic: Optional[int] = None):
        if kind == RATIONAL:
            if characteristic not in (None, 0):
                raise InputError("rational field carries no characteristic")
            self.characteristic: Optional[int] = None
        elif kind == PRIME:
            if (characteristic is None or characteristic >= _PRIME_LIMIT
                    or not _is_prime(characteristic)):
                raise InputError(f"characteristic must be a prime below 2^64, got {characteristic!r}")
            self.characteristic = int(characteristic)
        else:
            raise InputError(f"unknown field kind {kind!r}")
        self.kind = kind
        self._int64 = kind == PRIME and self.characteristic < _INT64_LIMIT
        self._chunk = _int64_chunk(self.characteristic) if self._int64 else None

    # -- scalars ---------------------------------------------------------

    @property
    def dtype(self):
        return np.int64 if self._int64 else object

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if self.kind == PRIME:
            return int(x) % self.characteristic
        f = Fraction(x)  # a numpy integer's numerator is a numpy integer
        return _q(int(f.numerator), int(f.denominator))

    def neg(self, x):
        if self.kind == PRIME:
            return (-int(x)) % self.characteristic
        return -self.coerce(x)

    def inv(self, x):
        if self.kind == PRIME:
            a = int(x) % self.characteristic
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.characteristic - 2, self.characteristic)
        f = Fraction(x)
        if f == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / f

    def format(self, x) -> str:
        if self.kind == PRIME:
            return str(int(x) % self.characteristic)
        return str(Fraction(x))

    def sample(self, rng):
        """Pseudorandom element; small integers keep rational growth tame."""
        if self.kind == PRIME:
            return rng.randrange(self.characteristic)
        return rng.randrange(-3, 4)

    def sample_nonzero(self, rng):
        while True:
            x = self.sample(rng)
            if x != 0:
                return x

    # -- array plumbing --------------------------------------------------

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        if self._int64:
            # on two's-complement integers x & 1 == x % 2, negative x included
            return arr & 1 if self.characteristic == 2 else arr % self.characteristic
        if self.kind == PRIME:
            p = self.characteristic
            out = np.empty(arr.shape, dtype=object)
            flat_in, flat_out = arr.reshape(-1), out.reshape(-1)
            for i in range(flat_in.size):
                flat_out[i] = int(flat_in[i]) % p
            return out
        return arr

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The reduced product ``np.matmul(a, b)``, batched like it; b has at
        least two dimensions.

        Residues are summed in int64 over chunks of the inner axis short enough
        that no partial sum reaches 2^63; rationals are multiplied as integers
        with each operand's denominators cleared. Over F_2 the chunk is
        2^63 - 1, so the product is always reduced whole, by ``& 1``.
        """
        if self._int64:
            if a.shape[-1] <= self._chunk:
                prod = np.matmul(a, b)
                return prod & 1 if self.characteristic == 2 else prod % self.characteristic
            return _chunked_matmul(a, b, self.characteristic, self._chunk)
        if self.kind == RATIONAL:
            return _rational_matmul(a, b)
        return self.reduce(np.matmul(a, b))

    def array(self, values, shape: Tuple[int, int]) -> np.ndarray:
        flat = [self.coerce(v) for v in values]
        if len(flat) != shape[0] * shape[1]:
            raise InputError(f"expected {shape[0] * shape[1]} entries, got {len(flat)}")
        out = np.empty(shape[0] * shape[1], dtype=self.dtype)
        for i, v in enumerate(flat):
            out[i] = v
        return out.reshape(shape)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        if self.kind == PRIME:
            return f"Field(F_{self.characteristic})"
        return "Field(Q)"


def _chunked_matmul(a: np.ndarray, b: np.ndarray, p: int, chunk: int) -> np.ndarray:
    """np.matmul(a, b) % p as a sum of reduced products over chunks of the
    inner axis, each at most `chunk` long."""
    out = None
    for s in range(0, a.shape[-1], chunk):
        part = np.matmul(a[..., s : s + chunk], b[..., s : s + chunk, :]) % p
        out = part if out is None else (out + part) % p
    return out


def _cleared(values: list) -> Tuple[List[int], int]:
    """(integers, d) with values = integers / d, d the lcm of the denominators.

    A list of Python ints only is already cleared: it is returned itself,
    with d = 1. Any other entry, a whole ``Fraction``, a bool or a numpy
    integer included, takes the clearing path, which returns new ints; a
    numpy integer, which may have no ``as_integer_ratio``, is read by
    ``int`` there, as ``Field.coerce`` reads it."""
    if set(map(type, values)) <= {int}:
        return values, 1
    ratios = [(int(x), 1) if isinstance(x, np.integer) else x.as_integer_ratio()
              for x in values]
    d = lcm(*[q for _, q in ratios])
    if d == 1:
        return [n for n, _ in ratios], 1
    return [n * (d // q) for n, q in ratios], d


def _q(n: int, d: int):
    """The rational n / d: an int when d divides n, else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _object_array(values: list, shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out.reshape(-1)[:] = values
    return out


def _integer_operand(arr: np.ndarray) -> Tuple[np.ndarray, int]:
    """(integers, d) with arr = integers / d as an object array of Python
    ints: `arr` itself when it is an object array of Python ints only, which
    ``_cleared`` passes through, else a new array of the cleared entries. An
    int64 array is always copied, so that no product of it can overflow."""
    values = arr.reshape(-1).tolist()
    ints, d = _cleared(values)
    if ints is values and arr.dtype == object:
        return arr, 1
    return _object_array(ints, arr.shape), d


def _rational_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul(a, b) over Q: the operands cleared of denominators and
    multiplied as integers, each entry then divided by the common denominator
    through ``_q``. An object operand of Python ints only is multiplied as it
    is; one holding a whole ``Fraction`` is cleared into new ints first."""
    ia, da = _integer_operand(a)
    ib, db = _integer_operand(b)
    prod = np.matmul(ia, ib)
    d = da * db
    if d == 1:
        return prod
    return _object_array([_q(x, d) for x in prod.reshape(-1).tolist()], prod.shape)


def _primitive(row: List[int]) -> List[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [u // g for u in row]


def _rref_rational(rows: list, reduced: bool) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination of rational rows: each row is
    cleared of denominators into integers (``_cleared``, which passes a row
    of Python ints through) and divided by their gcd, and rows are combined
    by cross-multiplying. Returns the integer rows and the pivot columns;
    row i < rank is its reduced row times its entry at pivot i. Without
    `reduced`, forward elimination only."""
    rows = [_primitive(_cleared(row)[0]) for row in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(0 if reduced else r + 1, nrows):
            row = rows[i]
            x = row[c]
            if x and i != r:
                g = gcd(p, x)
                m, n = p // g, x // g
                rows[i] = _primitive([m * u - n * v for u, v in zip(row, prow)])
        pivots.append(c)
        r += 1
    return rows, pivots


# For p > 2: up to this many cells a residue matrix is eliminated on Python-int
# rows, where numpy's per-call cost would outweigh the work; above it, on the array.
_ROW_CELLS = 2048


# F_2 rows are packed in words of this many bits, one int64 product per word:
# the bit weights 1 << j stay below the sign bit, so a word's sum is exact.
_WORD = 63
_SHIFTS = np.arange(_WORD)
_WEIGHTS = 1 << _SHIFTS
_WORD_MASK = (1 << _WORD) - 1


def _pack_bits(a: np.ndarray) -> List[int]:
    """The rows of ``a & 1`` as Python ints, bit j holding column j.

    Each run of ``_WORD`` columns is packed by one int64 product with the bit
    weights, and the words of a wider row are joined by shifts."""
    bits = a & 1  # callers may pass unreduced residues such as -1
    ncols = a.shape[1]
    if ncols <= _WORD:  # one word a row, nothing to join
        return (bits @ _WEIGHTS[:ncols]).tolist()
    packed = [0] * a.shape[0]
    for s in range(0, ncols, _WORD):
        word = (bits[:, s:s + _WORD] @ _WEIGHTS[:ncols - s]).tolist()
        packed = [x | y << s for x, y in zip(packed, word)]
    return packed


def _rref_bits(a: np.ndarray, reduced: bool) -> Tuple[Optional[np.ndarray], List[int]]:
    """Gauss-Jordan elimination over F_2 on bit-packed rows (``_pack_bits``).

    The rows go into a table keyed by lowest set bit (``_insert_bits``),
    whose keys are the pivot columns; the reduced form is the table
    back-substituted (``_reduce_bits``), the unique RREF, unpacked by
    ``_unpack_bits``.
    """
    table = {}
    _insert_bits(table, _pack_bits(a))
    if not reduced:
        return None, sorted(table)
    pivots = _reduce_bits(table)
    out = np.zeros(a.shape, dtype=a.dtype)
    _unpack_bits(out, [table[c] for c in pivots])
    return out, pivots


def _insert_bits(table: dict, rows) -> None:
    """Insert packed F_2 rows into a table keyed by lowest set bit: a row
    whose lowest bit is taken is XORed with that bit's row, which clears it
    and leaves a higher lowest bit, until the row is zero or its lowest bit
    is new. The table's rows then span the rows inserted, in echelon form."""
    for row in rows:
        while row:
            low = (row & -row).bit_length() - 1
            prow = table.get(low)
            if prow is None:
                table[low] = row
                break
            row ^= prow


def _reduce_bits(table: dict) -> List[int]:
    """Clear every row of an `_insert_bits` table at the higher pivots,
    highest pivot first, which leaves the unique RREF of its span; returns
    the pivots in order."""
    pivots = sorted(table)
    mask = 0
    for c in reversed(pivots):
        row = table[c]
        hits = row & mask
        while hits:
            h = hits.bit_length() - 1
            row ^= table[h]
            hits ^= 1 << h
        table[c] = row
        mask |= 1 << c
    return pivots


def _unpack_bits(out: np.ndarray, rows: List[int]) -> None:
    """Write packed F_2 rows into the top rows of `out`, bit j to column j, a
    word at a time by one ``>>``/``& 1`` broadcast."""
    ncols = out.shape[1]
    for s in range(0, ncols if rows else 0, _WORD):
        word = np.array(rows if ncols <= _WORD else [row >> s & _WORD_MASK for row in rows])
        out[:len(rows), s:s + _WORD] = word[:, None] >> _SHIFTS[:ncols - s] & 1


def _rref_residues(field: Field, a: np.ndarray,
                   reduced: bool) -> Tuple[Optional[Sequence], List[int]]:
    """Gauss-Jordan elimination: over F_2 on bit-packed rows (`_rref_bits`);
    otherwise on Python-int rows up to ``_ROW_CELLS`` cells
    (`_rref_residue_rows`) and on the array above, touching only the rows
    nonzero in the pivot column and only from the pivot column on (left of it
    the pivot row is zero). Returns the rows, as lists or as an array, row
    i < rank being the reduced row of pivot i, and the pivots. Without
    `reduced`, only the rows below each pivot are cleared and the rows are
    not to be read."""
    if field.characteristic == 2:
        return _rref_bits(a, reduced)
    if a.size <= _ROW_CELLS:
        return _rref_residue_rows(field.characteristic, a.tolist(), reduced)
    a = a.copy()
    nrows, ncols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if not len(nz):
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c:] = field.reduce(a[r, c:] * field.inv(a[r, c]))
        top = 0 if reduced else r + 1
        hit = top + a[top:, c].nonzero()[0]
        hit = hit[hit != r]
        if len(hit):
            # each product is below p^2 < 2^40, so the difference is reduced at once
            a[hit, c:] = field.reduce(a[hit, c:] - np.outer(a[hit, c], a[r, c:]))
        pivots.append(c)
        r += 1
    return a, pivots


def _rref_residue_rows(p: int, rows: list, reduced: bool) -> Tuple[list, List[int]]:
    """Gauss-Jordan elimination over F_p, p > 2, on Python-int rows, which it
    reorders and replaces; returns them and the pivot columns, row i < rank
    being the reduced row of pivot i. Rows are updated whole: left of the
    pivot column every row below the pivot row is zero, and every row above
    it is already reduced. An entry may be any integer that is not a nonzero
    multiple of p, such as -1 or p + 1: the pivot is inverted inline by
    Fermat, pow(x, p - 2, p), which returns 0 for such a multiple."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for piv in range(r, nrows):
            if rows[piv][c]:
                break
        else:
            continue
        prow = rows[piv]
        rows[piv] = rows[r]
        inv = pow(prow[c], p - 2, p)
        prow = rows[r] = [u * inv % p for u in prow]
        for i in range(0 if reduced else r + 1, nrows):
            row = rows[i]
            x = row[c]
            if x and i != r:
                rows[i] = [(u - x * v) % p for u, v in zip(row, prow)]
        pivots.append(c)
        r += 1
    return rows, pivots


def _null_basis(field: Field, rows: Sequence, pivots: List[int], ncols: int) -> np.ndarray:
    """Basis rows of the right null space, as a (nullity, ncols) array, read
    off the rows and pivots of an elimination of the field kind
    (:meth:`Matrix._eliminate`): for each free column c, 1 at c and minus the
    reduced entry at c of each pivot row, at that row's pivot. Only the
    entries at free columns of the pivot rows are read: from an array by one
    fancy index, from Python rows one by one. Over Q the rows are
    fraction-free, so the entry u at c over the entry d at the pivot gives
    ``_q(-u, d)``; over F_p the pivot is 1 and the entry is ``-u % p``."""
    p = field.characteristic
    taken = set(pivots)
    free = [c for c in range(ncols) if c not in taken]
    if isinstance(rows, np.ndarray):
        out = np.zeros((len(free), ncols), dtype=field.dtype)
        out[np.arange(len(free)), free] = 1
        out[:, pivots] = field.reduce(-rows[:len(pivots), free]).T
        return out
    basis = [[0] * ncols for _ in free]
    for vec, c in zip(basis, free):
        vec[c] = 1
    for row, pc in zip(rows, pivots):
        d = row[pc]
        for vec, c in zip(basis, free):
            u = row[c]
            if u:
                vec[pc] = -u % p if p else _q(-u, d)
    # no reshape, whose view would keep a second array object alive in the hom cache
    return np.array(basis, dtype=field.dtype) if basis else np.empty((0, ncols), field.dtype)


def rational_field() -> Field:
    return Field(RATIONAL)


def prime_field(p: int) -> Field:
    return Field(PRIME, p)


class Matrix:
    """Dense matrix over a :class:`Field`; immutable by convention."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data: np.ndarray):
        self.field = field
        self.data = data

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_entries(field: Field, nrows: int, ncols: int, entries: Sequence) -> "Matrix":
        return Matrix(field, field.array(entries, (nrows, ncols)))

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        if field.dtype is object:
            arr = np.empty((nrows, ncols), dtype=object)
            arr[...] = field.zero()
            return Matrix(field, arr)
        return Matrix(field, np.zeros((nrows, ncols), dtype=np.int64))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = Matrix.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i, i] = one
        return m

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def to_lists(self) -> List[list]:
        return [list(row) for row in self.data]

    def format_entries(self) -> List[str]:
        return [self.field.format(x) for x in self.data.reshape(-1)]

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Matrix(self.field, self.field.matmul(self.data, other.data))

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, self.field.reduce(self.data + other.data))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, self.field.reduce(self.data - other.data))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.field.reduce(-self.data))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, self.field.reduce(self.data * c))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.data.T.copy())

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        raise TypeError("Matrix is not hashable; use signature()")

    def is_zero(self) -> bool:
        return self.data.size == 0 or not np.any(self.data != 0)

    def signature(self) -> tuple:
        if self.data.dtype == np.int64:
            return (self.rows, self.cols, self.data.tobytes())
        return (self.rows, self.cols, tuple(str(x) for x in self.data.reshape(-1)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.to_lists()!r})"

    # -- stacking ----------------------------------------------------------

    @staticmethod
    def hstack(blocks: Sequence["Matrix"]) -> "Matrix":
        field = blocks[0].field
        return Matrix(field, np.hstack([b.data for b in blocks]))

    @staticmethod
    def vstack(blocks: Sequence["Matrix"]) -> "Matrix":
        field = blocks[0].field
        return Matrix(field, np.vstack([b.data for b in blocks]))

    @staticmethod
    def block_diag(field: Field, blocks: Sequence["Matrix"]) -> "Matrix":
        nr = sum(b.rows for b in blocks)
        nc = sum(b.cols for b in blocks)
        out = Matrix.zeros(field, nr, nc)
        r = c = 0
        for b in blocks:
            out.data[r : r + b.rows, c : c + b.cols] = b.data
            r += b.rows
            c += b.cols
        return out

    # -- elimination ---------------------------------------------------------

    def rref(self) -> Tuple["Matrix", List[int], int]:
        """Unique reduced row echelon form.

        Pivot choice is deterministic: leftmost nonzero column, topmost row.
        Returns (reduced matrix, pivot column list, rank).
        """
        rows, pivots = self._eliminate(reduced=True)
        if self.field.kind == RATIONAL:
            red = np.empty(self.data.shape, dtype=object)
            for i, c in enumerate(pivots):
                d = rows[i][c]
                red[i] = [_q(u, d) if u else 0 for u in rows[i]]
            red[len(pivots):] = 0
        else:
            red = np.asarray(rows, dtype=self.data.dtype).reshape(self.data.shape)
        return Matrix(self.field, red), pivots, len(pivots)

    def rank(self) -> int:
        """The pivot count of a forward elimination, which clears only the
        rows below each pivot and builds no reduced matrix."""
        return len(self._eliminate(reduced=False)[1])

    def _eliminate(self, reduced: bool) -> Tuple[Optional[Sequence], List[int]]:
        """The one elimination of the field kind: the rows and the pivots
        of `_rref_rational` over Q, of `_rref_residues` over F_p."""
        if self.field.kind == RATIONAL:
            return _rref_rational(self.data.tolist(), reduced)
        return _rref_residues(self.field, self.data, reduced)

    def kernel(self) -> "Matrix":
        """Basis of the right null space, one column per basis vector.

        The basis follows the standard pivot convention: each free column c
        yields a vector with 1 at c and minus the reduced column above the
        pivots. It is the transpose of ``_null_basis``, which reads it off the
        eliminated rows, building no reduced matrix.
        """
        basis = _null_basis(self.field, *self._eliminate(reduced=True), self.cols)
        return Matrix(self.field, basis).transpose()


def intertwiners(field: Field, dx: Sequence[int], dy: Sequence[int],
                 maps: Sequence[Tuple[int, int, np.ndarray, np.ndarray]]) -> Matrix:
    """Basis rows of the families (C_v : k^dx[v] -> k^dy[v]) with
    C_t A = B C_s for every (s, t, A, B) in `maps`, in ``Morphism.vec()``
    order: row-major C_0, C_1, ...

    The basis is ``Matrix.kernel``'s of the equations, transposed: for each
    free column c of their RREF, 1 at c and minus column c of the reduced
    rows at the pivots.

    For p > 2, each map's dy[t] * dx[s] equations go straight into one zero
    array: A^T onto the diagonal of a (dy[t], dx[s], dy[t], dx[t]) view of
    C_t's columns, then B subtracted through a (dy[t], dx[s], dy[s], dx[s])
    view of C_s's. Subtracted, not assigned: on a loop (s == t) both land on
    the same entries. The basis is ``Matrix.kernel`` of that array,
    transposed.

    Over Q no dense system is built: equation (i, j) of (s, t, A, B) is one
    Python row (``_equation_rows``), column j of A at C_t's row i minus row
    i of B at C_s's column j, and ``_null_basis`` reads the basis off the
    rows ``_rref_rational`` eliminates, as ``Matrix.kernel`` does.

    Over F_2 (``_intertwiners_bits``) equation (i, j) is one Python int:
    column j of A, as bits, placed at C_t's row i (bit
    ``offsets[t] + i * dx[t]``), XOR row i of B spread at stride dx[s] and
    placed at C_s's column j (bit ``offsets[s] + j``). As -1 = 1, on a loop
    the XOR combines the terms that overlap exactly as the subtraction does.
    The equations are eliminated in the table of ``_rref_bits``.

    The RREF of a row space does not depend on the order of its rows, so
    over Q and F_2 the pivots, the free columns and the basis are those of
    the dense system that stacks the equations, byte for byte.
    """
    offsets = [0, *accumulate(m * n for m, n in zip(dy, dx))]
    if field.characteristic == 2:
        return Matrix(field, _intertwiners_bits(dx, dy, maps, offsets))
    if field.kind == RATIONAL:
        rows = _equation_rows(dx, dy, maps, offsets)
        return Matrix(field, _null_basis(field, *_rref_rational(rows, True), offsets[-1]))
    heights = [dy[t] * dx[s] for s, t, _, _ in maps]
    system = Matrix.zeros(field, sum(heights), offsets[-1]).data
    top = 0
    for (s, t, a, b), h in zip(maps, heights):
        block = system[top : top + h]
        ct = block[:, offsets[t] : offsets[t + 1]].reshape(dy[t], dx[s], dy[t], dx[t])
        diag = np.arange(dy[t])
        ct[diag, :, diag, :] = a.T
        cs = block[:, offsets[s] : offsets[s + 1]].reshape(dy[t], dx[s], dy[s], dx[s])
        diag = np.arange(dx[s])
        cs[:, diag, :, diag] -= b
        top += h
    return Matrix(field, field.reduce(system)).kernel().transpose()


def _equation_rows(dx: Sequence[int], dy: Sequence[int],
                   maps: Sequence[Tuple[int, int, np.ndarray, np.ndarray]],
                   offsets: List[int]) -> List[list]:
    """The rational equation rows of `intertwiners`, row i of -B spread at
    stride dx[s]. On a loop (s == t) the two terms of an equation (i, j)
    meet at one unknown, C_t[i, j], which holds their sum A[j, j] - B[i, i]."""
    width = offsets[-1]
    rows = []
    for s, t, a, b in maps:
        cols, neg = a.T.tolist(), (-b).tolist()
        step, span = dx[s], dy[s] * dx[s]
        for i, brow in enumerate(neg):
            at = offsets[t] + i * dx[t]
            for j, col in enumerate(cols):
                row = [0] * width
                row[at:at + dx[t]] = col
                bs = offsets[s] + j
                row[bs:bs + span:step] = brow
                if s == t:
                    row[at + j] = col[j] + brow[i]
                rows.append(row)
    return rows


def _intertwiners_bits(dx: Sequence[int], dy: Sequence[int],
                       maps: Sequence[Tuple[int, int, np.ndarray, np.ndarray]],
                       offsets: List[int]) -> np.ndarray:
    """`intertwiners` over F_2, on packed equations. In the RREF, the row of
    pivot p has bit p and otherwise only free bits above p, so the basis
    vector of free column c is bit c plus bit p for each pivot p whose row
    has bit c."""
    table = {}
    for s, t, a, b in maps:
        cols, spread = [0] * dx[s], [0] * dy[t]
        for k, row in enumerate(a.tolist()):
            for j, v in enumerate(row):
                if v & 1:
                    cols[j] |= 1 << k
        for i, row in enumerate(b.tolist()):
            for l, v in enumerate(row):
                if v & 1:
                    spread[i] |= 1 << l * dx[s]
        base_t, base_s = offsets[t], offsets[s]
        _insert_bits(table, (col << (base_t + i * dx[t]) ^ spread[i] << (base_s + j)
                             for i in range(dy[t]) for j, col in enumerate(cols)))
    pivots = _reduce_bits(table)
    basis = {c: 1 << c for c in range(offsets[-1]) if c not in table}
    for p in pivots:
        hits = table[p] ^ 1 << p
        while hits:
            c = hits.bit_length() - 1
            basis[c] |= 1 << p
            hits ^= 1 << c
    out = np.zeros((len(basis), offsets[-1]), dtype=np.int64)
    _unpack_bits(out, list(basis.values()))
    return out


def solve_in_span(field: Field, images: Sequence[np.ndarray],
                  rhs: np.ndarray) -> Optional[np.ndarray]:
    """Coefficients c with sum_k c[k] * images[k] = rhs, or None when rhs is
    outside their span; an rhs whose width is not the images' raises
    InputError. For a stack of right-hand sides, one row of coefficients per
    row of rhs, in one elimination; None when any row is outside.

    The library's one linear solve: one :meth:`Matrix.rref` of
    [images^T | rhs^T], which has a pivot in the rhs columns iff rhs is
    outside. The solution is read off the pivot rows with free coefficients
    zero, so callers recombining a basis get reproducible witnesses.
    """
    rows = np.atleast_2d(rhs)  # not reshape(-1, width): it raises for width 0
    a = np.vstack(images) if len(images) else np.asarray(images)  # [] has no width
    if a.ndim == 2 and a.shape[1] != rows.shape[1]:
        raise InputError(f"rhs has width {rows.shape[1]}, expected {a.shape[1]}")
    k = len(a)
    if k:
        red, pivots, rank = Matrix(field, np.vstack([a, rows]).T).rref()
        if rank and pivots[-1] >= k:
            return None
        sol = Matrix.zeros(field, rows.shape[0], k).data
        sol[:, pivots] = red.data[:rank, k:].T
    elif np.any(rows != 0):
        return None
    else:
        sol = np.empty((rows.shape[0], 0), dtype=field.dtype)
    return sol if rhs.ndim == 2 else sol[0]


class RowSpan:
    """The row space of the vectors inserted so far, held as its unique reduced
    row echelon form: ``rows`` (rank x width) with pivot columns ``pivots``.

    Over F_2 the RREF is a table of packed rows, one Python int per pivot
    (the table of ``_insert_bits``, back-substituted by ``_reduce_bits``):
    an insertion packs and inserts only the new vectors, a canonical form
    XORs the table rows at the pivot bits it holds, and ``rows`` is unpacked
    on its first read after a change. Over F_p, p > 2, and Q every insertion
    is one :meth:`Matrix.rref` of the stored rows stacked on the new ones,
    and a canonical form is one :meth:`Field.matmul` against them. Either
    way the RREF is unique, so the result does not depend on how insertions
    are batched and canonical forms are reproducible across runs. Methods
    take one vector or a stack of them.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.pivots: List[int] = []
        self._rows = Matrix.zeros(field, 0, width).data  # None: the table is not unpacked
        self._bits = {} if field.characteristic == 2 else None
        self._mask = 0  # over F_2, the pivot bits

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = np.zeros((self.rank, self.width), dtype=np.int64)
            _unpack_bits(self._rows, [self._bits[c] for c in self.pivots])
        return self._rows

    def _stack(self, vectors) -> np.ndarray:
        return self.field.reduce(np.asarray(vectors, dtype=self.field.dtype)).reshape(
            -1, self.width)

    def _packed(self, vectors) -> List[int]:
        return _pack_bits(np.asarray(vectors, dtype=np.int64).reshape(-1, self.width))

    def _reduce_packed(self, v) -> List[int]:
        """Over F_2, the packed canonical forms of the rows of v: each row
        XORed with the table row of each pivot bit it holds, which holds no
        other pivot bit."""
        table, mask, out = self._bits, self._mask, []
        for row in self._packed(v):
            hits = row & mask
            while hits:
                low = hits & -hits
                row ^= table[low.bit_length() - 1]
                hits ^= low
            out.append(row)
        return out

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """The canonical form of v modulo the span, row by row for a stack."""
        field = self.field
        if not self._bits:  # p > 2, Q, or an empty span
            v = field.reduce(np.asarray(v, dtype=field.dtype))
            return field.reduce(v - field.matmul(v[..., self.pivots], self.rows))
        v = np.asarray(v, dtype=np.int64)
        out = np.zeros(v.shape, dtype=np.int64)
        _unpack_bits(out.reshape(-1, self.width), self._reduce_packed(v))
        return out

    def contains(self, v: np.ndarray) -> bool:
        """True iff v (every row of a stack) lies in the span."""
        if not self._bits:
            return not np.any(self.reduce(v) != 0)
        return not any(self._reduce_packed(v))

    def add(self, vectors) -> int:
        """Insert a vector or a stack; returns how much the rank grew."""
        if not self.width:
            return 0
        before = self.rank
        if self._bits is not None:
            _insert_bits(self._bits, self._packed(vectors))
            if len(self._bits) > before:
                self.pivots = _reduce_bits(self._bits)
                self._mask = sum(1 << c for c in self.pivots)
                self._rows = None
            return self.rank - before
        red, self.pivots, rank = Matrix(
            self.field, np.vstack([self.rows, self._stack(vectors)])).rref()
        self._rows = red.data[:rank].copy()
        return rank - before

    def independent(self, candidates) -> List[int]:
        """Positions of the candidates that would enlarge the span if inserted
        in order: the pivot columns of the column stack of their canonical
        forms, as reducing is linear with kernel the span, read off the forward
        elimination that :meth:`Matrix.rank` runs. The span is left unchanged.

        Over F_2 the candidates are inserted one at a time into a copy of the
        table instead, keeping a position when its insertion adds a pivot.
        Both pick exactly the candidates outside the span of the rows and
        the candidates before them."""
        if not self.width:
            return []
        if self._bits is not None:
            table, picked = dict(self._bits), []
            for i, row in enumerate(self._packed(candidates)):
                rank = len(table)
                _insert_bits(table, (row,))
                if len(table) > rank:
                    picked.append(i)
            return picked
        rows = np.asarray(candidates, dtype=self.field.dtype).reshape(-1, self.width)
        return Matrix(self.field, self.reduce(rows).T)._eliminate(reduced=False)[1]
