import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_inv, dense_rref
from quasinv.fields import Cyclotomic, _phi_cache_get
from quasinv.linalg import IncrementalSpan, SparseRow, nullspace, span_of
from quasinv.serialize import encode_coeff
from span_matrix import rank, rref


def test_identity_has_trivial_kernel():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_zero_matrix_kernel_is_standard_basis():
    basis = nullspace([[0, 0], [0, 0]])
    assert basis == [{0: 1}, {1: 1}]


def test_rank_one_matrix():
    basis = nullspace([[1, 1], [2, 2]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and any(v.values())


def test_rank_nullity_randomized():
    rng = random.Random(99)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        assert rank(m) + len(nullspace(m)) == ncols
        for v in nullspace(m):
            for row in m:
                assert sum(row[j] * c for j, c in v.items()) == 0


def test_rank_nullity_cyclotomic():
    rng = random.Random(3)
    z = Cyclotomic.zeta(3)
    for _ in range(10):
        m = [
            [Cyclotomic(3, [rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(3)]
            for _ in range(2)
        ]
        assert rank(m) + len(nullspace(m)) == 3
        for v in nullspace(m):
            for row in m:
                acc = Cyclotomic.from_rational(3, 0)
                for j, c in v.items():
                    acc = acc + row[j] * c
                assert not acc


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        rank([[Cyclotomic.zeta(3), Cyclotomic.zeta(4)]])


def test_mixed_fields_are_refused_in_plain_dict_rows():
    # a plain dict iterates over its columns, not its entries, so the field
    # is read where the entries are cleared
    rows = [{0: Cyclotomic.zeta(3)}, {1: Cyclotomic.zeta(4)}]
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        nullspace(rows, 2)
    span = IncrementalSpan()
    assert span.add(rows[0])
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        span.add(rows[1])
    assert span.dim() == 1
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        IncrementalSpan().add({0: Cyclotomic.zeta(3), 1: Cyclotomic.zeta(4)})


def test_incremental_span_contains():
    span = span_of([[1, 0, 1], [0, 1, 1]], 3)
    assert span.contains([1, 1, 2])
    assert not span.contains([1, 1, 1])
    assert span_of([], 3).contains([0, 0, 0])
    assert not span_of([], 3).contains([0, 0, 1])


def test_incremental_span_matches_rank():
    rng = random.Random(17)
    for _ in range(15):
        vectors = [
            [Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(6)
        ]
        span = IncrementalSpan()
        added = sum(1 for v in vectors if span.add(v))
        assert added == rank(vectors) if any(any(v) for v in vectors) else added == 0
        assert span.dim() == added
        for v in vectors:
            assert span.contains(v)


# -- the zero-skipping elimination against a dense reference ------------------------


def dense_nullspace(matrix):
    ncols = len(matrix[0])
    red, pivots = dense_rref(matrix)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            if red[r][fc]:
                vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


class DenseSpan:
    """`IncrementalSpan` with dense reduction and scaling."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def reduce(self, vector):
        v = [Fraction(c) if isinstance(c, int) else c for c in vector]
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vector):
        v = self.reduce(vector)
        piv = next((j for j, c in enumerate(v) if c), None)
        if piv is None:
            return False
        inv = dense_inv(v[piv])
        self.rows.append([c * inv for c in v])
        self.pivots.append(piv)
        return True


@st.composite
def _sparse_case(draw):
    """(matrix, probe, more, zeros_typed): a mostly-zero matrix over Q or Q(zeta_n),
    n <= 6, with entries 1 and small values.  When `zeros_typed` holds,
    every entry has the field's type, zeros included; otherwise the zeros
    are Fraction(0) among cyclotomic entries, as dense coordinate vectors
    of polynomials hold them."""
    n = draw(st.sampled_from([None, 2, 3, 4, 5, 6]))
    zeros_typed = n is None or draw(st.booleans())
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    if n is None:
        value = small
        zero = st.just(Fraction(0))
    else:
        d = len(_phi_cache_get(n)) - 1
        value = st.lists(small, min_size=d, max_size=d).map(lambda cs: Cyclotomic(n, cs))
        zero = st.just(Cyclotomic(n, [0]) if zeros_typed else Fraction(0))
    one = st.just(Fraction(1) if n is None else Cyclotomic(n, [1]))
    entry = st.one_of(zero, zero, zero, one, value)
    ncols = draw(st.integers(1, 6))
    matrix = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=6))
    probe = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    more = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4))
    return matrix, probe, more, zeros_typed


def _encoded(rows, zeros_typed=True):
    """Entries by their JSON encoding; untyped zeros compare by value."""
    return [[encode_coeff(c) if c or zeros_typed else 0 for c in row] for row in rows]


def _encoded_kernel(vectors):
    """Kernel vectors, sparse (`nullspace`) or dense (`dense_nullspace`), as
    their nonzero entries in column order: column, type and JSON encoding.
    A sparse vector must hold its columns in increasing order."""
    out = []
    for v in vectors:
        items = v.items() if isinstance(v, dict) else enumerate(v)
        out.append([(j, type(c).__name__, encode_coeff(c)) for j, c in items if c])
        assert [j for j, _, _ in out[-1]] == sorted(j for j, _, _ in out[-1])
    return out


@settings(max_examples=150, deadline=None)
@given(_sparse_case())
def test_zero_skipping_elimination_matches_the_dense_one(case):
    matrix, probe, more, _ = case
    red, pivots = rref(matrix)
    dense_red, dense_pivots = dense_rref(matrix)
    assert pivots == dense_pivots
    densified = [_densified(row, len(probe)) for row in red]
    assert _encoded(densified, False) == _encoded(dense_red, False)
    assert rank(matrix) == len(dense_pivots)
    assert _encoded_kernel(nullspace(matrix)) == _encoded_kernel(dense_nullspace(matrix))
    span, dense = IncrementalSpan(), DenseSpan()
    for row in [probe] + matrix + [probe]:
        assert span.contains(row) == (not any(dense.reduce(row)))
        assert span.add(row) == dense.add(row)
    assert span.pivots == dense.pivots
    # back-substitution reduces the span in place; it stays a span that
    # reduces and inserts exactly as before
    _assert_rref_matches(span, dense, len(probe))
    for row in more + [probe]:
        assert span.contains(row) == (not any(dense.reduce(row)))
        assert span.add(row) == dense.add(row)
    assert span.pivots == dense.pivots
    _assert_rref_matches(span, dense, len(probe))


def _assert_rref_matches(span, dense, ncols):
    """The span's sparse echelon rows, densified, against the dense echelon
    form of the rows the dense span kept: every entry typed, and the zeros
    (which the sparse rows do not hold) by value."""
    red, pivots = span.rref()
    dense_red, dense_pivots = dense_rref(dense.rows)
    assert pivots == dense_pivots
    assert all(row[p] == 1 and min(row) == p for row, p in zip(red, pivots))
    assert all(c for row in red for c in row.values())
    assert _encoded([_densified(row, ncols) for row in red], False) == _encoded(dense_red, False)


@st.composite
def _sparse_rows(draw):
    """(n, ncols, rows): up to ten `SparseRow`s over Q (n is None) or
    Q(zeta_n), each with at most three nonzero entries drawn from a few
    small values, so that rows cancel and repeat."""
    n = draw(st.sampled_from([None, 3, 4, 5, 8]))
    ncols = draw(st.integers(1, 7))
    small = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
    if n is None:
        value = small
    else:
        d = len(_phi_cache_get(n)) - 1
        value = st.one_of(small.map(lambda c: Cyclotomic(n, [c])),
                          st.lists(small | st.just(Fraction(0)), min_size=d, max_size=d)
                          .map(lambda cs: Cyclotomic(n, cs)).filter(bool))
    row = st.dictionaries(st.integers(0, ncols - 1), value, max_size=3).map(SparseRow)
    return n, ncols, draw(st.lists(row, min_size=1, max_size=10))


def _densified(row, ncols):
    vec = [Fraction(0)] * ncols
    for j, c in row.items():
        vec[j] = c
    return vec


@settings(max_examples=150, deadline=None)
@given(_sparse_rows())
def test_sparse_rows_match_their_dense_forms(case):
    n, ncols, rows = case
    dense_rows = [_densified(row, ncols) for row in rows]
    span, dense = IncrementalSpan(), DenseSpan()
    for row, vec in zip(rows + rows[:2], dense_rows + dense_rows[:2]):
        assert span.contains(row) == (not any(dense.reduce(vec)))
        assert span.add(row) == dense.add(vec)
        assert span.contains(row)
    assert span.pivots == dense.pivots
    _assert_rref_matches(span, dense, ncols)
    kernel = nullspace(rows, ncols)
    assert _encoded_kernel(kernel) == _encoded_kernel(dense_nullspace(dense_rows))
    # the pinned entry types: the Fraction 1 in the free slot, the last
    # column; the other entries in the rows' field
    for vec in kernel:
        *rest, free = vec
        assert vec[free].__class__ is Fraction and vec[free] == 1 and free == max(vec)
        assert all(vec[j].__class__ is (Fraction if n is None else Cyclotomic) for j in rest)
    assert [_densified(row, ncols) for row in rows] == dense_rows  # inputs untouched


# -- the kernel's vectors formed on first read -------------------------------------


def test_the_kernel_is_back_substituted_on_first_read(monkeypatch):
    calls = []
    back_substitute = IncrementalSpan.back_substitute
    monkeypatch.setattr(IncrementalSpan, "back_substitute",
                        lambda span: calls.append(span) or back_substitute(span))
    rows = [SparseRow({0: 1, 2: 1}), SparseRow({1: 1, 2: -1})]
    for read in (list, lambda kernel: [kernel[0], kernel[1]]):
        calls.clear()
        kernel = nullspace(rows, 4)
        assert len(kernel) == 2 and kernel and not calls
        assert read(kernel) == [{0: -1, 1: 1, 2: 1}, {3: 1}] and len(calls) == 1
        assert list(kernel) == kernel and kernel[1] == {3: 1} and len(calls) == 1
    # a span of full rank has no vector to form
    full = nullspace([[1, 0], [0, 1]])
    assert not full and full == [] and list(full) == [] and len(calls) == 1


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    _sparse_case().map(lambda case: (case[0], len(case[1]), case[0])),
    _sparse_rows().map(lambda case: (case[2], case[1],
                                     [_densified(row, case[1]) for row in case[2]]))))
def test_the_kernel_length_needs_no_back_substitution(case):
    # the Q and Q(zeta_n) rows above: the length is read off the forward
    # elimination, and the vectors formed on first read, by one
    # back-substitution unless the rank is full, are the dense ones
    rows, ncols, dense_rows = case
    calls = []
    back_substitute = IncrementalSpan.back_substitute
    with mock.patch.object(IncrementalSpan, "back_substitute",
                           lambda span: calls.append(span) or back_substitute(span)):
        kernel = nullspace(rows, ncols)
        length = len(kernel)
        assert not calls
        vectors = list(kernel)
        assert len(calls) == (1 if length else 0)
    assert length == len(vectors)
    assert _encoded_kernel(vectors) == _encoded_kernel(dense_nullspace(dense_rows))


@settings(max_examples=150, deadline=None)
@given(_sparse_case())
def test_free_columns_give_the_kernel_of_every_column_prefix(case):
    # a kernel vector holds its 1 in its free column and is zero right of
    # it, so the kernel of the first n columns alone is spanned by the
    # vectors whose free column is below n
    matrix = case[0]
    ncols = len(matrix[0])
    kernel = nullspace(matrix, ncols)
    free = kernel.free_columns()
    vectors = list(kernel)
    assert kernel.free_columns() == free == sorted(free) and len(free) == len(kernel)
    assert [max(v) for v in vectors] == free and all(v[fc] == 1 for v, fc in zip(vectors, free))
    for n in range(1, ncols + 1):  # equal values; the prefix may lack the Cyclotomic entries
        assert nullspace([row[:n] for row in matrix], n) == \
            [v for v, fc in zip(vectors, free) if fc < n]


def test_sparse_row_iterates_over_its_entries():
    row = SparseRow({4: Fraction(2), 1: Fraction(-1)})
    assert sorted(row) == [-1, 2] and any(row) and not any(SparseRow())
    assert dict(row) == {4: 2, 1: -1}
    with pytest.raises(ValueError):
        nullspace([SparseRow({0: Cyclotomic.zeta(3)}), SparseRow({1: Cyclotomic.zeta(4)})], 2)
