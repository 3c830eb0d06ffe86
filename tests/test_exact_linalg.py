import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobcat import exact_linalg
from frobcat.algebra_repr import preprojective
from frobcat.axiom_suite import default_objects, run_all
from frobcat.errors import InputError
from frobcat.exact_linalg import (
    Field,
    Matrix,
    RowSpan,
    _int64_chunk,
    _chunked_matmul,
    prime_field,
    rational_field,
    solve_in_span,
)
from frobcat.localization import dl_verify_all
from frobcat.rigid_model import build_context
from helpers import rebased, reference_cleared

F5 = prime_field(5)
Q = rational_field()


def test_field_validation():
    with pytest.raises(InputError):
        prime_field(6)
    with pytest.raises(InputError):
        Field("rational", 7)
    with pytest.raises(InputError):
        Field("septic")


def test_primality_is_exact_and_quick_up_to_2_to_the_64():
    # Miller-Rabin over the primes up to 37 agrees with trial division on small
    # numbers, accepts the Mersenne prime 2^61 - 1, and refuses a Carmichael
    # number and strong pseudoprimes to the bases up to 7 and up to 23
    assert [n for n in range(3000) if exact_linalg._is_prime(n)] == [
        n for n in range(2, 3000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert prime_field(2**61 - 1).characteristic == 2**61 - 1
    # 2^89 - 1 is prime, but a characteristic of 2^64 or more is refused
    for n in (561, 3215031751, 3825123056546413051, 2**89 - 1):
        with pytest.raises(InputError, match="must be a prime below 2\\^64"):
            prime_field(n)


def test_element_strings():
    assert F5.format(F5.coerce("-1")) == "4"
    assert F5.format(12) == "2"
    assert Q.format(Q.coerce("2/4")) == "1/2"
    assert Q.format(Q.coerce("-6/4")) == "-3/2"
    assert Q.format(Fraction(3)) == "3"


def test_rref_empty():
    m = Matrix.zeros(Q, 0, 0)
    red, pivots, rank = m.rref()
    assert (red.rows, red.cols) == (0, 0)
    assert pivots == [] and rank == 0


def test_rref_identity_f5():
    m = Matrix.identity(F5, 3)
    red, pivots, rank = m.rref()
    assert red == Matrix.identity(F5, 3)
    assert pivots == [0, 1, 2] and rank == 3


def test_rref_rank_one():
    # hand row reduction: second row is half the first
    m = Matrix.from_entries(Q, 2, 2, [2, 4, 1, 2])
    red, pivots, rank = m.rref()
    assert rank == 1 and pivots == [0]
    assert red.to_lists() == [[1, 2], [0, 0]]


def test_kernel_identity_empty():
    assert Matrix.identity(F5, 4).kernel().cols == 0


def test_kernel_zero_matrix_full():
    assert Matrix.zeros(Q, 2, 3).kernel().cols == 3


def column_vector(m, j):
    """Column j of m as a one-column matrix."""
    return Matrix(m.field, m.data[:, j : j + 1].copy())


def test_kernel_pivot_convention():
    # free column 1 gives (-1, 1, 0), canonically (4, 1, 0) over F_5
    m = Matrix.from_entries(F5, 2, 3, [1, 1, 0, 0, 0, 1])
    ker = m.kernel()
    assert ker.cols == 1
    assert column_vector(ker, 0) == Matrix.from_entries(F5, 3, 1, [4, 1, 0])


def _solve(m, b):
    """X with m @ X = b, or None: ``solve_in_span`` of the columns of b in
    the span of the columns of m, transposed back."""
    sol = solve_in_span(m.field, m.data.T, b.data.T)
    return None if sol is None else Matrix(m.field, sol.T)


def _inverse(m):
    """The inverse of a square m as the localization takes it: the c with
    c m = 1 from ``solve_in_span``, kept when m c = 1 as well."""
    if m.rows != m.cols:
        return None
    one = Matrix.identity(m.field, m.rows)
    sol = solve_in_span(m.field, m.data, one.data)
    return None if sol is None or m @ Matrix(m.field, sol) != one else Matrix(m.field, sol)


def test_solve_identity():
    b = Matrix.from_entries(Q, 2, 1, [3, Fraction(1, 2)])
    x = _solve(Matrix.identity(Q, 2), b)
    assert x == b


def test_solve_inconsistent():
    assert _solve(Matrix.zeros(F5, 2, 2), Matrix.from_entries(F5, 2, 1, [1, 0])) is None


def test_solve_underdetermined():
    m = Matrix.from_entries(Q, 2, 2, [1, 2, 2, 4])
    x = _solve(m, Matrix.from_entries(Q, 2, 1, [1, 2]))
    assert x is not None
    assert x.data[0, 0] + 2 * x.data[1, 0] == 1


def test_solve_shape_contract():
    with pytest.raises(InputError):
        _solve(Matrix.identity(Q, 2), Matrix.from_entries(Q, 3, 1, [1, 2, 3]))
    # no images, but a stack of them with a width
    with pytest.raises(InputError):
        solve_in_span(F5, np.empty((0, 3), dtype=np.int64), np.zeros(2, dtype=np.int64))


def _random_matrix(field, rng, rows, cols):
    return Matrix.from_entries(
        field, rows, cols, [field.sample(rng) for _ in range(rows * cols)]
    )


@pytest.mark.parametrize("field", [F5, Q], ids=["F5", "Q"])
def test_rank_nullity_and_exact_kernel(field):
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
        m = _random_matrix(field, rng, rows, cols)
        _, _, rank = m.rref()
        ker = m.kernel()
        assert rank + ker.cols == cols
        for j in range(ker.cols):
            assert (m @ column_vector(ker, j)).is_zero()


@pytest.mark.parametrize("field", [F5, Q], ids=["F5", "Q"])
def test_rref_idempotent(field):
    rng = random.Random(11)
    for _ in range(30):
        m = _random_matrix(field, rng, rng.randrange(0, 5), rng.randrange(0, 5))
        red, _, _ = m.rref()
        again, _, _ = red.rref()
        assert again == red


@pytest.mark.parametrize("field", [F5, Q], ids=["F5", "Q"])
def test_solve_iff_rank_condition(field):
    rng = random.Random(13)
    for _ in range(40):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = _random_matrix(field, rng, rows, cols)
        b = _random_matrix(field, rng, rows, 1)
        augmented = Matrix.hstack([m, b])
        solvable = m.rank() == augmented.rank()
        x = _solve(m, b)
        assert (x is not None) == solvable
        if x is not None:
            assert (m @ x) == b


@given(
    rows=st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_rref_projects_to_row_space(rows):
    m = Matrix.from_entries(Q, len(rows), 3, [v for row in rows for v in row])
    red, pivots, rank = m.rref()
    # every original row reduces to zero against the echelon rows
    span = RowSpan(Q, m.cols)
    for i in range(rank):
        span.add(red.data[i].copy())
    for row in m.data:
        assert span.contains(row.copy())
    assert span.rank == rank


def test_rowspan_membership():
    span = RowSpan(F5, 3)
    assert span.add(Matrix.from_entries(F5, 1, 3, [1, 2, 0]).data[0].copy())
    assert not span.add(Matrix.from_entries(F5, 1, 3, [2, 4, 0]).data[0].copy())
    assert span.add(Matrix.from_entries(F5, 1, 3, [0, 0, 3]).data[0].copy())
    assert span.rank == 2
    # (0, 1, 0) forces a zero multiple of (1, 2, 0), so it is outside
    assert span.contains(Matrix.from_entries(F5, 1, 3, [0, 1, 0]).data[0].copy()) is False
    assert span.contains(Matrix.from_entries(F5, 1, 3, [3, 1, 1]).data[0].copy()) is True


# -- kept references ---------------------------------------------------------------
#
# The per-column elimination loop and the ``reduce(a.dot(b))`` product that the
# fraction-free rational kernel, the row-restricted residue kernel and
# ``Field.matmul`` replaced. RREF is unique, so the fast kernels must agree with
# them entry for entry.


def _reference_rref(m):
    field = m.field
    a = m.data.copy()
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if a[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = field.inv(a[r, c])
        a[r] = field.reduce(a[r] * inv)
        col = a[:, c].copy()
        col[r] = field.zero()
        if np.any(col != 0):
            a = field.reduce(a - np.outer(col, a[r]))
        pivots.append(c)
        r += 1
    return Matrix(field, a), pivots, len(pivots)


def _reference_matmul(field, a, b):
    return field.reduce(a.dot(b))


def _reference_kernel(m):
    field = m.field
    red, pivots, _ = _reference_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = Matrix.zeros(field, m.cols, len(free))
    for k, c in enumerate(free):
        out.data[c, k] = field.one()
        for i, pc in enumerate(pivots):
            out.data[pc, k] = field.neg(red.data[i, c])
    return out


def _reference_solve_cols(m, b):
    red, pivots, _ = _reference_rref(Matrix.hstack([m, b]))
    if any(p >= m.cols for p in pivots):
        return None
    x = Matrix.zeros(m.field, m.cols, b.cols)
    for i, pc in enumerate(pivots):
        x.data[pc, :] = red.data[i, m.cols :]
    return x


def _reference_inverse(m):
    if m.rows != m.cols:
        return None
    ident = Matrix.identity(m.field, m.rows)
    inv = _reference_solve_cols(m, ident)
    if inv is None or Matrix(m.field, _reference_matmul(m.field, m.data, inv.data)) != ident:
        return None
    return inv


# F_1048573 is the largest int64 residue field, F_1048583 the smallest prime
# on the object-dtype residue path.
FIELDS = {
    "F2": prime_field(2),
    "F5": F5,
    "F1048573": prime_field(1048573),
    "F1048583": prime_field(1048583),
    "Q": Q,
}


@st.composite
def _matrix(draw, field, rows, cols, integer=False):
    if field.kind == "rational" and integer:
        entry = st.builds(Fraction, st.integers(-9, 9))
    elif field.kind == "rational":
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    else:
        p = field.characteristic
        entry = st.one_of(st.integers(0, min(p - 1, 3)), st.integers(max(p - 3, 0), p - 1),
                          st.integers(0, p - 1))
    values = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return Matrix.from_entries(field, rows, cols, values)


@st.composite
def _shaped(draw, field, rows, cols):
    """A rows x cols matrix: dense, zero or of deficient rank; over Q also
    dense with integer entries, which the rational kernel keeps unscaled."""
    kinds = ["dense", "zero", "deficient"] + (["integer"] if field.kind == "rational" else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "integer":
        return draw(_matrix(field, rows, cols, integer=True))
    if kind == "zero":
        return Matrix.zeros(field, rows, cols)
    if kind == "deficient":
        inner = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        left, right = draw(_matrix(field, rows, inner)), draw(_matrix(field, inner, cols))
        prod = _reference_matmul(field, left.data, right.data)
        return Matrix.from_entries(field, rows, cols, list(prod.reshape(-1)))
    return draw(_matrix(field, rows, cols))


@st.composite
def _case(draw):
    """(field, matrix): dense, zero or of deficient rank, any side possibly 0."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return field, draw(_shaped(field, rows, cols))


def _same(got, want):
    """Equal entries, dtype and signature (the canonical byte/str form)."""
    if got is None or want is None:
        return got is None and want is None
    return (got == want and got.data.dtype == want.data.dtype
            and got.signature() == want.signature())


@given(case=_case(), data=st.data(),
       row_cells=st.sampled_from([0, exact_linalg._ROW_CELLS]))
@settings(max_examples=300, deadline=None)
def test_kernels_match_the_references(case, data, row_cells):
    # row_cells = 0 sends small residue matrices down the array path too
    field, m = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_linalg, "_ROW_CELLS", row_cells)
        _check_against_references(field, m, data)


def _check_against_references(field, m, data):
    red, pivots, rank = m.rref()
    want_red, want_pivots, want_rank = _reference_rref(m)
    assert _same(red, want_red)
    assert (pivots, rank) == (want_pivots, want_rank)
    assert m.rank() == want_rank
    # stacked on itself, every row of the lower copy depends on rows above it
    assert Matrix.vstack([m, m]).rank() == want_rank
    assert _same(m.kernel(), _reference_kernel(m))
    b = data.draw(_shaped(field, m.rows, data.draw(st.integers(0, 3))))
    assert _same(_solve(m, b), _reference_solve_cols(m, b))
    assert _same(_inverse(m), _reference_inverse(m))
    other = data.draw(_shaped(field, m.cols, data.draw(st.integers(0, 4))))
    got = field.matmul(m.data, other.data)
    assert _same(Matrix(field, got), Matrix(field, _reference_matmul(field, m.data, other.data)))
    # batched: a stack of left factors against one right factor
    stack = [data.draw(_matrix(field, 2, m.cols)) for _ in range(3)]
    batched = field.matmul(np.stack([s.data for s in stack]), other.data)
    for s, slab in zip(stack, batched):
        assert _same(Matrix(field, slab), Matrix(field, _reference_matmul(field, s.data, other.data)))


def _reference_kron(field, a, b):
    (m, n), (p, q) = a.shape, b.shape
    return field.reduce((a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q))


def _reference_intertwiners(field, dx, dy, maps):
    """The system that ``intertwiners`` replaced: per map (s, t, A, B), the
    block (I ⊗ A^T) on C_t's columns minus (B ⊗ I) on C_s's, built from
    Kronecker products and stacked, then its reference kernel."""
    offsets = [0]
    for m, n in zip(dy, dx):
        offsets.append(offsets[-1] + m * n)
    blocks = []
    for s, t, a, b in maps:
        block = Matrix.zeros(field, dy[t] * dx[s], offsets[-1]).data
        ct, cs = slice(offsets[t], offsets[t + 1]), slice(offsets[s], offsets[s + 1])
        block[:, ct] = _reference_kron(field, Matrix.identity(field, dy[t]).data, a.T)
        block[:, cs] = field.reduce(
            block[:, cs] - _reference_kron(field, b, Matrix.identity(field, dx[s]).data))
        blocks.append(block)
    system = Matrix(field, np.vstack(blocks)) if blocks else Matrix.zeros(field, 0, offsets[-1])
    return _reference_kernel(system).transpose()


def _draw_hom_system(name, data):
    """(field, dx, dy, maps) for `intertwiners`. With at most 3 vertices and
    4 maps, loops (s == t) and parallel maps are frequent; one vertex makes
    every map a loop. A "-wide" kind gives two vertices dims 6 to 8 and a
    third 0 to 3, so a hom width of 72 to 137: over F_2 each packed
    equation and basis row spans two or three 63-bit words. The first map
    of "F5-wide" joins the two wide vertices, so at least 36 equations and
    more than _ROW_CELLS cells."""
    field = FIELDS[name.removesuffix("-wide")]
    first = []
    if name.endswith("-wide"):
        dims = [st.integers(6, 8), st.integers(6, 8), st.integers(0, 3)]
        nv = len(dims)
        dx, dy = (data.draw(st.tuples(*dims)) for _ in range(2))
        if name == "F5-wide":
            first = [data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))]
    else:
        nv = data.draw(st.integers(1, 3))
        dx = data.draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
        dy = data.draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
    ends = first + data.draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                                      max_size=4 - len(first)))
    maps = [(s, t, data.draw(_shaped(field, dx[t], dx[s])).data,
             data.draw(_shaped(field, dy[t], dy[s])).data) for s, t in ends]
    return field, dx, dy, maps


def _cells(dx, dy, maps):
    return sum(dy[t] * dx[s] for s, t, _, _ in maps) * sum(m * n for m, n in zip(dx, dy))


@given(name=st.sampled_from(sorted(FIELDS) + ["F2-wide", "F5-wide"]), data=st.data(),
       row_cells=st.sampled_from([0, exact_linalg._ROW_CELLS]))
@settings(max_examples=300, deadline=None)
def test_intertwiners_match_the_reference(name, data, row_cells):
    # row_cells = 0 sends small p > 2 systems down the array branch too
    field, dx, dy, maps = _draw_hom_system(name, data)
    if name == "F5-wide":
        assert _cells(dx, dy, maps) > exact_linalg._ROW_CELLS
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_linalg, "_ROW_CELLS", row_cells)
        got = exact_linalg.intertwiners(field, dx, dy, maps)
    assert _same(got, _reference_intertwiners(field, dx, dy, maps))


# The dense hom build that `intertwiners` replaced over Q and the kernel that
# `Matrix.kernel` replaced, copied unchanged: each map's equations written
# into one zero array through reshaped views of the unknowns' columns, and
# the basis laid out from the full RREF by fancy indexing.


def _parent_kernel(m):
    field = m.field
    red, pivots, rank = m.rref()
    taken = set(pivots)
    free = [c for c in range(m.cols) if c not in taken]
    out = Matrix.zeros(field, m.cols, len(free))
    ks = np.arange(len(free))
    out.data[free, ks] = field.one()
    out.data[pivots] = field.reduce(-red.data[:rank, free])
    return out


def _parent_system(field, dx, dy, maps):
    offsets = [0]
    for m, n in zip(dy, dx):
        offsets.append(offsets[-1] + m * n)
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
    return Matrix(field, field.reduce(system))


def _same_types(got, want):
    """`_same`, and every entry of the same Python type: over Q an int, or
    a Fraction that is not whole, in both."""
    return _same(got, want) and ([type(x) for x in got.data.reshape(-1).tolist()]
                                 == [type(x) for x in want.data.reshape(-1).tolist()])


@given(name=st.sampled_from(["F5", "Q", "F5-wide"]), data=st.data(),
       row_cells=st.sampled_from([0, exact_linalg._ROW_CELLS]))
@settings(max_examples=150, deadline=None)
def test_hom_solve_and_kernel_match_their_parent(name, data, row_cells):
    """`intertwiners` and `Matrix.kernel` of its dense system against the
    parent's dense build and kernel kept above: the same dtype, signature
    and, over Q, entry types. `row_cells` = 0 sends small p > 2 systems
    down the array branch of the elimination too."""
    field, dx, dy, maps = _draw_hom_system(name, data)
    system = _parent_system(field, dx, dy, maps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_linalg, "_ROW_CELLS", row_cells)
        got, kernel = exact_linalg.intertwiners(field, dx, dy, maps), system.kernel()
    want = _parent_kernel(system)
    assert _same_types(kernel, want)
    assert _same_types(got, want.transpose())


# The bodies of `_rational_matmul` and `_rref_rational`, with the output step
# of `Matrix.rref`, from before integral operands passed through: every
# operand and row cleared by the reference clearing into new ints. With
# `quotient` = Fraction and `zero` = Fraction(0) they are the Fraction-building
# bodies from before whole rationals were stored as Python ints, one Fraction
# per entry, whole or not; with `exact_linalg._q` and 0, the bodies that the
# pass-through replaced, whose values and entry types must be kept.


def _cleared_matmul(a, b, quotient=Fraction):
    ia, da = reference_cleared(a.reshape(-1).tolist())
    ib, db = reference_cleared(b.reshape(-1).tolist())
    prod = np.matmul(exact_linalg._object_array(ia, a.shape),
                     exact_linalg._object_array(ib, b.shape))
    return exact_linalg._object_array([quotient(x, da * db) for x in prod.reshape(-1).tolist()],
                                      prod.shape)


def _cleared_rref(a, quotient=Fraction, zero=Fraction(0)):
    nrows, ncols = a.shape
    rows = [exact_linalg._primitive(reference_cleared(row)[0]) for row in a.tolist()]
    pivots = []
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
        for i in range(nrows):
            row = rows[i]
            x = row[c]
            if x and i != r:
                g = gcd(p, x)
                m, n = p // g, x // g
                rows[i] = exact_linalg._primitive([m * u - n * v for u, v in zip(row, prow)])
        pivots.append(c)
        r += 1
    out = np.empty((nrows, ncols), dtype=object)
    for i, c in enumerate(pivots):
        p = rows[i][c]
        out[i] = [quotient(u, p) if u else zero for u in rows[i]]
    out[r:] = zero
    return out, pivots


def _cleared_kernel(a):
    """The kernel basis, one column per free column, laid out from the
    reduced rows of ``_cleared_rref`` with ints kept whole."""
    red, pivots = _cleared_rref(a, exact_linalg._q, 0)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    out = Matrix.zeros(Q, a.shape[1], len(free)).data
    for k, c in enumerate(free):
        out[c, k] = 1
        for i, pc in enumerate(pivots):
            out[pc, k] = -red[i, c]
    return out


def _stored_as_the_rule(arr):
    """Every entry is a Python int, or a Fraction that is not whole."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for x in arr.reshape(-1))


@st.composite
def _fraction_array(draw, rows, cols):
    """A rows x cols object array of Fractions, whole ones included, as every
    rational was stored before: integer, fractional, zero, of deficient rank,
    or with no positive entry, so that its pivots are negative."""
    kind = draw(st.sampled_from(["integer", "fractional", "zero", "deficient", "nonpositive"]))
    if kind == "deficient":
        inner = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        return _cleared_matmul(draw(_fraction_array(rows, inner)),
                               draw(_fraction_array(inner, cols)))
    entry = {"integer": st.builds(Fraction, st.integers(-9, 9)),
             "fractional": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
             "zero": st.just(Fraction(0)),
             "nonpositive": st.builds(Fraction, st.integers(-9, 0), st.integers(1, 3))}[kind]
    values = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return exact_linalg._object_array(values, (rows, cols))


@given(rows=st.integers(0, 5), cols=st.integers(0, 5), width=st.integers(0, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_whole_rationals_are_ints_with_the_fraction_references_values(rows, cols, width, data):
    """Over Q, `matmul` (batched too) and `rref` agree with the Fraction-building
    references by value and by string, on any side possibly 0, and what
    `matmul`, `rref`, `kernel`, `solve_in_span` (a solve and an inverse) and
    `intertwiners` return holds each whole rational as an int."""
    a = data.draw(_fraction_array(rows, cols))
    m = Matrix(Q, a)
    red, pivots, _ = m.rref()
    want, want_pivots = _cleared_rref(a)
    assert pivots == want_pivots and _same(red, Matrix(Q, want))
    other = data.draw(_fraction_array(cols, width))
    stack = np.stack([data.draw(_fraction_array(2, cols)) for _ in range(3)])
    products = [Q.matmul(left, other) for left in (a, stack)]
    for left, got in zip((a, stack), products):
        assert _same(Matrix(Q, got), Matrix(Q, _cleared_matmul(left, other)))
    b = Matrix(Q, data.draw(_fraction_array(rows, width)))
    square = Matrix(Q, data.draw(_fraction_array(cols, cols)))
    outputs = products + [red.data, m.kernel().data]
    outputs += [x.data for x in (_solve(m, b), _inverse(square)) if x is not None]
    nv = data.draw(st.integers(1, 3))
    dx = data.draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
    dy = data.draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
    ends = data.draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                              max_size=3))
    maps = [(s, t, data.draw(_fraction_array(dx[t], dx[s])),
             data.draw(_fraction_array(dy[t], dy[s]))) for s, t in ends]
    outputs.append(exact_linalg.intertwiners(Q, dx, dy, maps).data)
    assert all(_stored_as_the_rule(out) for out in outputs)


_INTEGRAL = st.one_of(st.integers(-9, 9), st.integers(-2**40, 2**40))
_WHOLE = st.builds(Fraction, st.integers(-9, 9))
_OPERAND_ENTRIES = {
    "int": _INTEGRAL,
    "mixed": st.one_of(_INTEGRAL, _WHOLE, st.builds(Fraction, st.integers(-9, 9),
                                                    st.integers(1, 6)), st.booleans()),
    "whole": _WHOLE,
    "zero": st.sampled_from([0, Fraction(0)]),
}


@st.composite
def _operand(draw, rows, cols):
    """A rows x cols rational operand as callers may pass it: an object array
    of Python ints only (entries up to 2^40, so that an int64 product of two
    overflows), of mixed entries (ints, Fractions whole or not, bools), of
    whole Fractions, of zeros, or an int64 array."""
    kind = draw(st.sampled_from(sorted(_OPERAND_ENTRIES) + ["int64"]))
    entry = _OPERAND_ENTRIES["int" if kind == "int64" else kind]
    values = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    if kind == "int64":
        return np.array(values, dtype=np.int64).reshape(rows, cols)
    return exact_linalg._object_array(values, (rows, cols))


@given(rows=st.integers(0, 4), cols=st.integers(0, 4), width=st.integers(0, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_integral_pass_through_matches_the_clearing_reference(rows, cols, width, data):
    """`_cleared`, `Q.matmul` (plain and batched), `Matrix.rref` and
    `Matrix.kernel` against the bodies that clear every operand into new ints
    (`reference_cleared`): equal values and the same type for every entry, so
    a whole Fraction, a bool or an int64 operand cannot pass through as it is."""
    a = data.draw(_operand(rows, cols))
    values = a.reshape(-1).tolist()
    got, want = exact_linalg._cleared(values), reference_cleared(values)
    assert got == want and [type(x) for x in got[0]] == [type(x) for x in want[0]]
    assert type(got[1]) is int
    other = data.draw(_operand(cols, width))
    stack = np.stack([data.draw(_operand(2, cols)) for _ in range(3)])
    for left in (a, stack):
        assert _same_types(Matrix(Q, Q.matmul(left, other)),
                           Matrix(Q, _cleared_matmul(left, other, exact_linalg._q)))
    m = Matrix(Q, a)
    red, pivots, _ = m.rref()
    want_red, want_pivots = _cleared_rref(a, exact_linalg._q, 0)
    assert pivots == want_pivots and _same_types(red, Matrix(Q, want_red))
    assert _same_types(m.kernel(), Matrix(Q, _cleared_kernel(a)))


def test_integral_operands_pass_through_uncopied(monkeypatch):
    """An all-int list is `_cleared`'s own answer, over denominator 1, and a
    product of two all-int object arrays builds no object array but the
    product; one holding a whole Fraction is still cleared into a new one."""
    values = [3, -1, 0, 2**70]
    ints, d = exact_linalg._cleared(values)
    assert ints is values and d == 1
    built = []
    make = exact_linalg._object_array
    monkeypatch.setattr(exact_linalg, "_object_array",
                        lambda *args: built.append(args) or make(*args))
    a = make([1, 2, 3, 4, 5, 6], (2, 3))
    b = make([1, 0, -1, 2, 0, 1], (3, 2))
    assert Q.matmul(a, b).tolist() == [[-1, 7], [-1, 16]]
    assert not built
    b[0, 0] = Fraction(2, 2)
    prod = Q.matmul(a, b)
    assert prod.tolist() == [[-1, 7], [-1, 16]] and len(built) == 1
    assert {type(x) for x in prod.reshape(-1)} == {int}


def test_numpy_integers_in_object_arrays_take_the_clearing_path():
    """A numpy integer in an object array is cleared by ``int``, as
    ``Field.coerce`` reads it: `_cleared`, `Matrix.rref`, `Q.matmul` and
    `RowSpan.add` give the values and entry types of the same array holding
    Python ints, with a Fraction beside it or with ints only."""
    for values, cleared in (([2, 1, Fraction(1, 2), 3], ([4, 2, 1, 6], 2)),
                            ([2, 1, 0, 3], ([2, 1, 0, 3], 1))):
        ints = exact_linalg._object_array(values, (2, 2))
        mixed = ints.copy()
        mixed[0, 0] = np.int64(2)
        got = exact_linalg._cleared(mixed.reshape(-1).tolist())
        assert got == cleared and {type(x) for x in got[0]} == {int}
        assert _same_types(Matrix(Q, mixed).rref()[0], Matrix(Q, ints).rref()[0])
        assert _same_types(Matrix(Q, Q.matmul(mixed, mixed)), Matrix(Q, Q.matmul(ints, ints)))
        spans = [RowSpan(Q, 2), RowSpan(Q, 2)]
        assert [span.add(a) for span, a in zip(spans, (mixed, ints))] == [2, 2]
        assert _same_types(Matrix(Q, spans[0].rows), Matrix(Q, spans[1].rows))


def _object_entries(value, seen):
    """Every entry of every object array reachable from `value` through
    containers and the attributes of frobcat's own objects."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            yield from value.reshape(-1)
        return
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    elif type(value).__module__.startswith("frobcat"):
        slots = [s for k in type(value).__mro__ for s in getattr(k, "__slots__", ())]
        children = [getattr(value, s) for s in slots if hasattr(value, s)]
        children += list(getattr(value, "__dict__", {}).values())
    else:
        return
    for child in children:
        yield from _object_entries(child, seen)


def test_rational_caches_hold_only_ints_and_fractions():
    """After dl-verify on the a3q-dlverify benchmark's inputs and criterion 8's
    battery on preprojective A3/Q, every entry of every object array in the
    algebra's hom and module stores and in both contexts' stores is a Python
    int or a Fraction of Python ints: never a float, a bool or a numpy scalar,
    such as a product over an empty inner axis could leave."""
    alg = preprojective(3, Q)
    dl_ctx = build_context(alg, alg.projectives() + [alg.simple("1")], "frobenius")
    assert all(r.passed for r in dl_verify_all(dl_ctx, default_objects(dl_ctx)))
    battery_ctx = build_context(alg, alg.projectives(), "frobenius")
    assert run_all(battery_ctx, 42, 5, default_objects(battery_ctx)).passed
    seen = set()
    entries = [x for store in (alg._hom_cache, alg._module_cache,
                               dl_ctx._caches, battery_ctx._caches)
               for x in _object_entries(store, seen)]
    assert len(entries) > 10_000
    assert not _not_rational(entries)


def _not_rational(entries):
    """The type names of the entries that are neither a Python int nor a
    Fraction of Python ints."""
    return {type(x).__name__ for x in entries
            if not (type(x) is int or (type(x) is Fraction and type(x.numerator) is int
                                       and type(x.denominator) is int))}


def test_dl_verify_with_a_summand_in_a_fractional_basis(monkeypatch):
    """dl-verify on preprojective A3/Q over P1+P2'+P3+S1, P2' being P2 given
    in the basis diag(1/2, 3) at vertex 2, so that its action holds 1/3 and
    1/2: every pair of the default objects passes with the same Ho dimension
    as over the integral generator P1+P2+P3+S1. `_cleared` passes rows of
    ints through and clears Fractions within the one run, and the caches
    hold only Python ints and Fractions of them."""
    def run(rebase):
        alg = preprojective(3, Q)
        p1, p2, p3 = alg.projectives()
        gen = [p1, rebased(p2, "2", [Fraction(1, 2), 3]) if rebase else p2, p3,
               alg.simple("1")]
        ctx = build_context(alg, gen, "frobenius")
        return alg, ctx, dl_verify_all(ctx, default_objects(ctx))

    integral = run(False)[2]
    clear, branches = exact_linalg._cleared, set()

    def cleared(values):
        out = clear(values)
        branches.add(out[0] is values)
        return out

    monkeypatch.setattr(exact_linalg, "_cleared", cleared)
    alg, ctx, mixed = run(True)
    assert {type(x) for x in ctx.components[1].action["a1*"].data.reshape(-1)} == {Fraction, int}
    assert all(r.passed for r in mixed)
    assert [(r.pair, r.dim_ho) for r in mixed] == [(r.pair, r.dim_ho) for r in integral]
    assert branches == {True, False}
    seen = set()
    entries = [x for store in (alg._hom_cache, alg._module_cache, ctx._caches)
               for x in _object_entries(store, seen)]
    assert any(type(x) is Fraction for x in entries)
    assert not _not_rational(entries)


class _ReferenceRowSpan:
    """The incremental span that the batched RowSpan replaced: one vector
    inserted at a time, every stored row re-reduced by a Python loop."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def _pivot_of(self, v):
        for j in range(self.width):
            if v[j] != 0:
                return j
        return None

    def reduce(self, v):
        field = self.field
        v = field.reduce(v.copy())
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                v = field.reduce(v - v[p] * row)
        return v

    def contains(self, v):
        return not np.any(self.reduce(v) != 0)

    def add(self, v):
        field = self.field
        v = self.reduce(v)
        p = self._pivot_of(v)
        if p is None:
            return False
        v = field.reduce(v * field.inv(v[p]))
        for i, row in enumerate(self.rows):
            if row[p] != 0:
                self.rows[i] = field.reduce(row - row[p] * v)
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < p:
            pos += 1
        self.rows.insert(pos, v)
        self.pivots.insert(pos, p)
        return True


def _rows_matrix(field, width, rows):
    out = Matrix.zeros(field, len(rows), width)
    for i, row in enumerate(rows):
        out.data[i] = row
    return out


def _check_span(span, ref, probe):
    field, width = ref.field, ref.width
    assert (span.pivots, span.rank) == (ref.pivots, ref.rank)
    assert _same(Matrix(field, span.rows), _rows_matrix(field, width, ref.rows))
    reduced = span.reduce(probe.data)
    want = _rows_matrix(field, width, [ref.reduce(r) for r in probe.data])
    assert _same(Matrix(field, reduced), want)
    assert span.contains(probe.data) == all(ref.contains(r) for r in probe.data)
    for row in probe.data:
        assert _same(Matrix(field, span.reduce(row)[None]), Matrix(field, ref.reduce(row)[None]))
        assert span.contains(row) == ref.contains(row)


# F_2 widths on either side of the 63-bit word and of two words
_F2_SPAN_WIDTHS = [62, 63, 64, 126, 127, 130]


@given(name=st.sampled_from(sorted(FIELDS) + ["F2-wide"]), width=st.integers(0, 5),
       count=st.integers(0, 8), data=st.data())
@settings(max_examples=240, deadline=None)
def test_rowspan_matches_the_reference(name, width, count, data):
    # random vectors inserted in random batch splits, some batches empty and
    # some of one vector given unstacked; "F2-wide" spans one to three packed
    # words, with unreduced residues such as -1 and 3
    if name == "F2-wide":
        field, width = FIELDS["F2"], data.draw(st.sampled_from(_F2_SPAN_WIDTHS))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

        def shaped(rows):
            return Matrix(field, _f2_array(data.draw, rng, rows, width))
    else:
        field = FIELDS[name]

        def shaped(rows):
            return data.draw(_shaped(field, rows, width))
    vectors = shaped(count).data
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=4)))
    span, ref = RowSpan(field, width), _ReferenceRowSpan(field, width)
    for lo, hi in zip([0] + cuts, cuts + [count]):
        batch = vectors[lo:hi]
        if len(batch) == 1 and data.draw(st.booleans()):
            batch = batch[0]
        grew = [ref.add(v) for v in vectors[lo:hi]]
        assert span.independent(batch) == [i for i, g in enumerate(grew) if g]
        assert span.add(batch) == sum(grew)
        _check_span(span, ref, shaped(data.draw(st.integers(0, 4))))
    assert span.contains(vectors)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rowspan_edge_cases(name):
    field = FIELDS[name]
    flat = RowSpan(field, 0)
    assert flat.add(Matrix.zeros(field, 3, 0).data) == 0 and flat.rank == 0
    assert flat.independent(Matrix.zeros(field, 2, 0).data) == []
    assert flat.contains(Matrix.zeros(field, 2, 0).data)
    assert flat.reduce(Matrix.zeros(field, 2, 0).data).shape == (2, 0)
    span = RowSpan(field, 3)
    for empty in (Matrix.zeros(field, 0, 3).data, []):
        assert span.add(empty) == 0 and span.independent(empty) == []
    assert span.reduce(Matrix.zeros(field, 0, 3).data).shape == (0, 3)
    assert span.add(Matrix.zeros(field, 2, 3).data) == 0 and span.rank == 0
    ident = Matrix.identity(field, 3).data
    assert span.independent(ident) == [0, 1, 2] and span.rank == 0
    assert span.add(ident[1]) == 1 and span.independent(ident) == [0, 2]
    assert span.add(ident) == 2 and span.contains(ident) and span.pivots == [0, 1, 2]


def test_f2_rowspan_works_on_the_packed_table_with_no_rref(monkeypatch):
    """Over F_2, RowSpan.add, independent, reduce and contains, across three
    packed words, call no Matrix.rref and no _rref_bits; over F_5 each add is
    one Matrix.rref, and independent reads its pivots off a forward
    elimination, with no Matrix.rref."""
    calls = []
    rref, rref_bits = Matrix.rref, exact_linalg._rref_bits
    monkeypatch.setattr(Matrix, "rref", lambda self: calls.append("rref") or rref(self))
    monkeypatch.setattr(exact_linalg, "_rref_bits",
                        lambda *args: calls.append("bits") or rref_bits(*args))
    rng = np.random.default_rng(0)
    vectors = rng.integers(0, 2, (6, 130))
    span = RowSpan(FIELDS["F2"], 130)
    assert span.independent(vectors) == list(range(6))
    assert span.add(vectors[:4]) == 4 and span.add(vectors[2:]) == 2
    assert span.contains(vectors) and not span.reduce(vectors).any()
    assert span.reduce(np.eye(130, dtype=np.int64)).shape == (130, 130)
    assert not calls
    span = RowSpan(F5, 130)
    span.add(vectors)
    span.independent(vectors)
    span.reduce(vectors)
    assert calls == ["rref"]


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)], ids=["0x3", "3x0", "0x0"])
def test_kernels_on_empty_shapes(name, shape):
    field = FIELDS[name]
    m = Matrix.zeros(field, *shape)
    assert _same(m.rref()[0], _reference_rref(m)[0])
    assert _same(m.kernel(), _reference_kernel(m))
    b = Matrix.zeros(field, shape[0], 2)
    assert _same(_solve(m, b), _reference_solve_cols(m, b))
    other = Matrix.zeros(field, shape[1], 2)
    assert _same(Matrix(field, field.matmul(m.data, other.data)),
                 Matrix(field, _reference_matmul(field, m.data, other.data)))


@pytest.mark.parametrize("name", ["F2", "F2-wide", "F5", "F1048573", "F1048583"])
def test_large_residue_matrices_match_the_reference(name):
    # above _ROW_CELLS cells, so for p > 2 elimination runs on the array; F2 runs
    # on bit-packed rows at every size, here 9 and (F2-wide) 19 bytes a row
    field = FIELDS[name.split("-")[0]]
    rng = random.Random(17)
    left = _random_matrix(field, rng, 40, 12)
    right = _random_matrix(field, rng, 12, 150 if name == "F2-wide" else 70)
    m = left @ right
    assert m.rows * m.cols > exact_linalg._ROW_CELLS
    assert _same(m.rref()[0], _reference_rref(m)[0])
    assert m.rank() == _reference_rref(m)[2] <= 12
    assert _same(m.kernel(), _reference_kernel(m))
    b = _random_matrix(field, rng, 40, 2)
    assert _same(_solve(m, b), _reference_solve_cols(m, b))


def test_int64_bound_and_chunked_products():
    p = 1048573
    limit = _int64_chunk(p)
    # the longest inner dimension whose worst-case sum stays below 2^63
    assert limit * (p - 1) ** 2 < 2 ** 63 <= (limit + 1) * (p - 1) ** 2
    assert limit == 8388672
    rng = np.random.default_rng(3)
    a = rng.integers(0, p, size=(3, 4, 19), dtype=np.int64)
    a[0] = p - 1
    b = rng.integers(0, p, size=(19, 5), dtype=np.int64)
    b[:, 0] = p - 1
    whole = prime_field(p).matmul(a, b)
    exact = np.array([[[sum(int(x) * int(y) for x, y in zip(row, col)) % p
                        for col in b.T] for row in slab] for slab in a])
    assert np.array_equal(whole, exact)
    for chunk in (1, 2, 7, 18, 19, limit):
        assert np.array_equal(_chunked_matmul(a, b, p, chunk), whole)
    # an inner axis longer than the field's chunk takes the chunked sum
    short = prime_field(p)
    short._chunk = 5
    assert np.array_equal(short.matmul(a, b), whole)


_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@given(data=st.data(), shape=st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 6),
                                       st.integers(0, 6)))
@settings(max_examples=200, deadline=None)
def test_f2_reduction_by_mask_matches_the_remainder(data, shape):
    # Over F_2, Field.reduce and Field.matmul reduce by `& 1`; `% 2` is the
    # reference. _chunked_matmul never runs for p = 2: the chunk there is
    # 2^63 - 1, longer than any inner axis.
    field = FIELDS["F2"]
    assert field._chunk == 2 ** 63 - 1
    batch, rows, inner, cols = shape
    entry = st.one_of(st.integers(-3, 3), _INT64)

    def draw(*dims):
        values = data.draw(st.lists(entry, min_size=int(np.prod(dims)), max_size=int(np.prod(dims))))
        return np.array(values, dtype=np.int64).reshape(dims)

    arr = draw(rows, cols)
    assert field.reduce(arr).dtype == np.int64
    assert np.array_equal(field.reduce(arr), arr % 2)
    # int64 products and sums wrap modulo 2^64, which keeps their parity
    a, b = draw(rows, inner), draw(inner, cols)
    assert np.array_equal(field.matmul(a, b), np.matmul(a, b) % 2)
    stack = draw(batch, rows, inner)
    assert np.array_equal(field.matmul(stack, b), np.matmul(stack, b) % 2)


# -- F_2 on bit-packed rows, and the row kernel for p > 2 -----------------------
#
# The residue elimination that `_rref_bits` replaced for p = 2, copied
# unchanged: on Python-int rows up to _ROW_CELLS cells, on the array above.
# Its row kernel is also the reference for the rewritten `_rref_residue_rows`.

_ROW_CELLS = 2048


def _rref_residues(field, a, reduced):
    """Gauss-Jordan elimination, on the array or on Python-int rows by size,
    touching only the rows nonzero in the pivot column and only from the pivot
    column on (left of it the pivot row is zero). Without `reduced`, only the
    rows below each pivot are cleared and no matrix is returned."""
    if a.size <= _ROW_CELLS:
        return _rref_residue_rows(field, a, reduced)
    a = a.copy()
    nrows, ncols = a.shape
    pivots = []
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
    return (a if reduced else None), pivots


def _rref_residue_rows(field, a, reduced):
    p = field.characteristic
    nrows, ncols = a.shape
    rows = a.tolist()
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        tail = [u * inv % p for u in rows[r][c:]]
        rows[r] = rows[r][:c] + tail
        for i in range(0 if reduced else r + 1, nrows):
            row = rows[i]
            x = row[c]
            if x and i != r:
                rows[i] = row[:c] + [(u - x * v) % p for u, v in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    if not reduced:
        return None, pivots
    return np.array(rows, dtype=a.dtype).reshape(nrows, ncols), pivots


# empty, one byte, and on either side of the 64-, 128- and 200-bit marks
_F2_WIDTHS = [0, 1, 5, 61, 62, 63, 64, 65, 127, 128, 129, 200]


def _f2_array(draw, rng, rows, cols):
    """A rows x cols 0/1 array: dense, sparse, zero or a product of deficient
    rank, and optionally with each entry moved by -2, 0 or 2 to unreduced
    residues such as -1, 2 and 3."""
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "deficient"]))
    if kind == "zero":
        a = np.zeros((rows, cols), dtype=np.int64)
    elif kind == "deficient":
        inner = int(rng.integers(0, max(min(rows, cols), 1)))
        a = rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols)) % 2
    else:
        a = (rng.random((rows, cols)) < (0.5 if kind == "dense" else 0.05)).astype(np.int64)
    if draw(st.booleans()):
        a = a + 2 * rng.integers(-1, 2, a.shape)
    return a


def _sig(x):
    """A matrix as its dtype, shape and bytes."""
    return None if x is None else (x.data.dtype.str, x.data.shape, x.data.tobytes())


def _f2_outcome(m, b, x):
    """rref, rank, kernel, the solve for b and for the consistent m @ x."""
    red, pivots, rank = m.rref()
    return [_sig(red), pivots, rank, m.rank(), Matrix.vstack([m, m]).rank(),
            _sig(m.kernel()), _sig(_solve(m, b)), _sig(_solve(m, m @ x))]


def _f2_span_outcome(span, vectors, cuts, probe):
    """A span fed `vectors` in batches split at `cuts`: after each batch, the
    positions that grew it, the growth, the pivots, the rows and whether it
    holds the probe and each probe row. `span` is a RowSpan, or a
    _ReferenceRowSpan, which takes the vectors one at a time."""
    out = []
    for lo, hi in zip([0] + cuts, cuts + [len(vectors)]):
        batch = vectors[lo:hi]
        if isinstance(span, RowSpan):
            picked, grew = span.independent(batch), span.add(batch)
            rows, whole = Matrix(span.field, span.rows), span.contains(probe)
        else:
            flags = [span.add(v) for v in batch]
            picked, grew = [i for i, g in enumerate(flags) if g], sum(flags)
            rows = _rows_matrix(span.field, span.width, span.rows)
            whole = all(span.contains(row) for row in probe)
        out += [picked, grew, list(span.pivots), _sig(rows), whole,
                [span.contains(row) for row in probe]]
    return out


@given(rows=st.integers(0, 70), cols=st.sampled_from(_F2_WIDTHS),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
@settings(max_examples=150, deadline=None)
def test_f2_bit_rows_match_the_residue_reference(rows, cols, seed, data):
    # the reference is given residues, as it cannot invert an unreduced 2
    field = FIELDS["F2"]
    rng = np.random.default_rng(seed)
    m = Matrix(field, _f2_array(data.draw, rng, rows, cols))
    b = Matrix(field, _f2_array(data.draw, rng, rows, data.draw(st.integers(0, 3))))
    x = Matrix(field, _f2_array(data.draw, rng, cols, data.draw(st.integers(0, 3))))
    vectors = _f2_array(data.draw, rng, data.draw(st.integers(0, 70)), cols)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(vectors)), max_size=3)))
    probe = _f2_array(data.draw, rng, data.draw(st.integers(0, 4)), cols)
    got = _f2_outcome(m, b, x) + _f2_span_outcome(RowSpan(field, cols), vectors, cuts, probe)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_linalg, "_rref_residues",
                   lambda field, a, reduced: _rref_residues(field, a % 2, reduced))
        want = _f2_outcome(m, b, x)
    want += _f2_span_outcome(_ReferenceRowSpan(field, cols), vectors, cuts, probe)
    assert got == want


@st.composite
def _residue_rows_input(draw):
    """(field, a): up to 12 x 40 over F_5, F_1048573 or F_1048583 (object
    dtype), with 5% to 50% of its entries nonzero, dense or of deficient
    rank, and optionally with each nonzero entry moved by -p, 0 or p."""
    field = FIELDS[draw(st.sampled_from(["F5", "F1048573", "F1048583"]))]
    p = field.characteristic
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 40))
    density = draw(st.floats(0.05, 0.5))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def sparse(m, n):
        return [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]

    if draw(st.booleans()):
        inner = rng.randrange(max(min(rows, cols), 1))
        left, right = sparse(rows, inner), sparse(inner, cols)
        values = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
                  if inner else [0] * cols for row in left]
    else:
        values = sparse(rows, cols)
    if draw(st.booleans()):
        values = [[x + p * rng.randrange(-1, 2) if x else 0 for x in row] for row in values]
    a = np.empty((rows, cols), dtype=field.dtype)
    a.reshape(-1)[:] = [x for row in values for x in row]
    return field, a


@given(case=_residue_rows_input())
@settings(max_examples=300, deadline=None)
def test_residue_row_kernel_matches_its_parent(case):
    """The row kernel for p > 2 against the parent kept above, both forward
    only and reduced: the same pivots, dtype and bytes.

    Its input contract: an entry may be any integer that is not a nonzero
    multiple of p, such as -1 or p + 1. The kernel inverts each pivot inline
    as pow(x, p - 2, p), which must never see a nonzero multiple of p: it
    would return 0 where the parent's Field.inv raised.

    The kernel takes and returns Python rows, where the parent took and
    returned arrays: its reduced rows go back into an array of the input's
    dtype for the comparison.
    """
    field, a = case
    for reduced in (False, True):
        rows, pivots = exact_linalg._rref_residue_rows(field.characteristic, a.tolist(), reduced)
        want = _rref_residue_rows(field, a, reduced)
        assert pivots == want[1]
        if reduced:
            got = np.array(rows, dtype=a.dtype).reshape(a.shape)
            assert _same(Matrix(field, got), Matrix(field, want[0]))
        else:
            assert want[0] is None


# The bit packing that the word packing of `_rref_bits` replaced, copied
# unchanged: np.packbits and int.from_bytes in, np.unpackbits out.

def _packbits_rref_bits(a, reduced):
    nrows, ncols = a.shape
    width = (ncols + 7) // 8  # bytes per packed row
    # callers may pass unreduced residues such as -1
    raw = np.packbits((a & 1).astype(np.uint8), axis=1, bitorder="little").tobytes()
    packed = [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(nrows)]
    table = {}
    for row in packed:
        while row:
            low = (row & -row).bit_length() - 1
            prow = table.get(low)
            if prow is None:
                table[low] = row
                break
            row ^= prow
    pivots = sorted(table)
    if not reduced:
        return None, pivots
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
    out = np.zeros((nrows, ncols), dtype=a.dtype)
    if pivots:
        raw = b"".join(table[c].to_bytes(width, "little") for c in pivots)
        out[:len(pivots)] = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(
            len(pivots), width), axis=1, count=ncols, bitorder="little")
    return out, pivots


@given(rows=st.integers(0, 70), cols=st.sampled_from(_F2_WIDTHS + [126, 189, 190]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
@settings(max_examples=150, deadline=None)
def test_f2_word_packing_matches_the_packbits_reference(rows, cols, seed, data):
    # on either side of each 63-bit word boundary, with unreduced entries
    a = _f2_array(data.draw, np.random.default_rng(seed), rows, cols)
    for reduced in (False, True):
        got, want = exact_linalg._rref_bits(a, reduced), _packbits_rref_bits(a, reduced)
        assert got[1] == want[1]
        if reduced:
            assert (got[0].dtype, got[0].shape, got[0].tobytes()) == \
                (want[0].dtype, want[0].shape, want[0].tobytes())
        else:
            assert got[0] is want[0] is None
