import os
import re
import tempfile

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sketchqr.experiments import gen_cmatrix
from sketchqr.mmio import MatrixMarketError, load_matrix_market, write_matrix_market


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_coordinate_identity(tmp_path):
    p = write_lines(tmp_path / "i.mtx",
                    "%%MatrixMarket matrix coordinate real general",
                    "% a comment",
                    "2 2 2",
                    "1 1 1.0",
                    "2 2 1.0")
    A = load_matrix_market(p)
    assert scipy.sparse.issparse(A)
    assert np.array_equal(A.toarray(), np.eye(2))


def test_array_is_column_major(tmp_path):
    p = write_lines(tmp_path / "a.mtx",
                    "%%MatrixMarket matrix array real general",
                    "3 2",
                    "1", "2", "3", "4", "5", "6")
    M = load_matrix_market(p)
    assert np.array_equal(M, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


def test_dense_round_trip_is_bitwise(tmp_path):
    # 8800 values: the writer formats them in more than one chunk
    C = gen_cmatrix(1100, 8)
    p = tmp_path / "c.mtx"
    write_matrix_market(str(p), C)
    C2 = load_matrix_market(str(p))
    assert np.array_equal(C, C2)


def test_awkward_values_round_trip(tmp_path):
    M = np.array([[1e-308, -np.pi], [0.1 + 0.2, 2.0 ** -1074], [-0.0, 1e17]])
    p = tmp_path / "m.mtx"
    write_matrix_market(str(p), M)
    M2 = load_matrix_market(str(p))
    assert np.array_equal(M.view(np.uint64), M2.view(np.uint64))


def test_sparse_round_trip(tmp_path):
    # 4500 entries: the writer formats them in more than one chunk
    A = scipy.sparse.random(200, 150, density=0.15,
                            random_state=np.random.RandomState(7))
    p = tmp_path / "s.mtx"
    write_matrix_market(str(p), A)
    A2 = load_matrix_market(str(p))
    assert A2.format == "csc"
    assert np.array_equal(A.toarray(), A2.toarray())


def test_symmetric_coordinate_expands(tmp_path):
    p = write_lines(tmp_path / "sym.mtx",
                    "%%MatrixMarket matrix coordinate real symmetric",
                    "3 3 4",
                    "1 1 2.0",
                    "2 1 -1.0",
                    "3 2 0.5",
                    "3 3 4.0")
    S = load_matrix_market(p).toarray()
    assert np.array_equal(S, S.T)
    assert S[0, 1] == -1.0 and S[1, 2] == 0.5
    assert S[1, 1] == 0.0


def test_symmetric_coordinate_keeps_stored_zeros(tmp_path):
    entries = ("1 1 0.0", "2 1 -0.0", "3 2 1.0")
    G = load_matrix_market(write_lines(tmp_path / "g.mtx",
                                       "%%MatrixMarket matrix coordinate real general",
                                       "3 3 3", *entries))
    S = load_matrix_market(write_lines(tmp_path / "s.mtx",
                                       "%%MatrixMarket matrix coordinate real symmetric",
                                       "3 3 3", *entries))
    assert G.nnz == 3
    # all 3 stored entries stay, and the two off the diagonal gain a mirror
    assert S.nnz == 3 + 2
    for A, cells in ((G, [(1, 0)]), (S, [(1, 0), (0, 1)])):
        for i, j in cells:
            k = A.indptr[j] + list(A.indices[A.indptr[j]:A.indptr[j + 1]]).index(i)
            assert A.data[k] == 0.0 and np.signbit(A.data[k])


def test_symmetric_array_expands(tmp_path):
    p = write_lines(tmp_path / "sa.mtx",
                    "%%MatrixMarket matrix array real symmetric",
                    "2 2",
                    "1", "7", "4")
    M = load_matrix_market(p)
    assert np.array_equal(M, [[1.0, 7.0], [7.0, 4.0]])


def test_vector_write_read(tmp_path):
    v = np.linspace(-1, 1, 9)
    p = tmp_path / "v.mtx"
    write_matrix_market(str(p), v, comment="a right-hand side")
    M = load_matrix_market(str(p))
    assert M.shape == (9, 1)
    assert np.array_equal(M[:, 0], v)


def test_bad_banner(tmp_path):
    p = write_lines(tmp_path / "b.mtx", "MatrixMarket matrix coordinate real general", "1 1 0")
    with pytest.raises(MatrixMarketError, match="line 1"):
        load_matrix_market(p)


def test_complex_field_rejected(tmp_path):
    p = write_lines(tmp_path / "b.mtx",
                    "%%MatrixMarket matrix coordinate complex general", "1 1 0")
    with pytest.raises(MatrixMarketError, match="real"):
        load_matrix_market(p)


def test_skew_symmetry_rejected(tmp_path):
    p = write_lines(tmp_path / "b.mtx",
                    "%%MatrixMarket matrix coordinate real skew-symmetric", "1 1 0")
    with pytest.raises(MatrixMarketError, match="symmetry"):
        load_matrix_market(p)


def test_index_out_of_range_reports_line(tmp_path):
    p = write_lines(tmp_path / "b.mtx",
                    "%%MatrixMarket matrix coordinate real general",
                    "2 2 2",
                    "1 1 1.0",
                    "3 1 5.0")
    with pytest.raises(MatrixMarketError, match="line 4.*row index 3"):
        load_matrix_market(p)


def test_entry_count_mismatch(tmp_path):
    p = write_lines(tmp_path / "b.mtx",
                    "%%MatrixMarket matrix coordinate real general",
                    "2 2 3",
                    "1 1 1.0")
    with pytest.raises(MatrixMarketError, match="declared 3 entries"):
        load_matrix_market(p)


def test_unparseable_value_reports_line(tmp_path):
    p = write_lines(tmp_path / "b.mtx",
                    "%%MatrixMarket matrix array real general",
                    "2 1",
                    "1.5",
                    "oops")
    with pytest.raises(MatrixMarketError, match="line 4"):
        load_matrix_market(p)


def test_symmetric_upper_entry_rejected(tmp_path):
    p = write_lines(tmp_path / "b.mtx",
                    "%%MatrixMarket matrix coordinate real symmetric",
                    "2 2 1",
                    "1 2 3.0")
    with pytest.raises(MatrixMarketError, match="lower triangle"):
        load_matrix_market(p)


def test_symmetric_must_be_square(tmp_path):
    p = write_lines(tmp_path / "b.mtx",
                    "%%MatrixMarket matrix coordinate real symmetric",
                    "2 3 1",
                    "1 1 1.0")
    with pytest.raises(MatrixMarketError, match="square"):
        load_matrix_market(p)


def test_comment_written_and_skipped(tmp_path):
    p = tmp_path / "c.mtx"
    # both formats write the same banner-and-comment block
    for M in (np.ones((2, 2)), scipy.sparse.csc_matrix(np.ones((2, 2)))):
        write_matrix_market(str(p), M, comment="two lines\nof notes")
        assert p.read_text().splitlines()[1:3] == ["% two lines", "% of notes"]
        M2 = load_matrix_market(str(p))
        assert np.array_equal(M2.toarray() if scipy.sparse.issparse(M2) else M2, np.ones((2, 2)))


def test_writer_refuses_a_3d_array(tmp_path):
    p = tmp_path / "c.mtx"
    with pytest.raises(ValueError, match="expected a vector or matrix"):
        write_matrix_market(str(p), np.ones((2, 2, 2)))
    assert not p.exists()


# finite and infinite doubles: subnormals, -0.0, the largest double and
# values that need all 17 digits; NaN is left out, '%.17g' drops its payload
DOUBLES = st.floats(allow_nan=False)
AWKWARD = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1 + 0.2, -np.inf]


def round_trip(M):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "m.mtx")
        write_matrix_market(p, M)
        return load_matrix_market(p)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def sparse_general(draw):
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)),
                          max_size=nr * nc, unique=True))
    vals = draw(st.lists(DOUBLES, min_size=len(cells), max_size=len(cells)))
    rows = [i for i, _ in cells]
    cols = [j for _, j in cells]
    return scipy.sparse.coo_matrix((np.array(vals, dtype=np.float64), (rows, cols)),
                                   shape=(nr, nc))


@settings(max_examples=150, deadline=None)
@given(sparse_general())
@example(scipy.sparse.coo_matrix((3, 2)))
@example(scipy.sparse.coo_matrix(([5e-324], ([1], [0])), shape=(2, 2)))
@example(scipy.sparse.coo_matrix((AWKWARD, (range(8), [0] * 8)), shape=(8, 1)))
def test_sparse_round_trip_is_bitwise(A):
    L = round_trip(A)
    assert L.format == "csc" and L.shape == A.shape and L.nnz == A.nnz
    assert same_bits(L.toarray(), A.toarray())
    # an explicit -0.0 keeps its sign bit in the stored entries too
    assert same_bits(np.sort(L.data.view(np.uint64)).view(np.float64),
                     np.sort(A.data.view(np.uint64)).view(np.float64))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(0, 5)), elements=DOUBLES),
    arrays(np.float64, st.integers(1, 12), elements=DOUBLES)))
@example(np.array([AWKWARD]).T)
@example(np.array(AWKWARD).reshape(2, 4))
def test_dense_and_vector_round_trip_is_bitwise(M):
    L = round_trip(M)
    assert L.flags.f_contiguous
    assert same_bits(L, M if M.ndim == 2 else M[:, None])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), arrays(np.float64, (n * (n + 1) // 2,),
                                           elements=st.floats(-1e300, 1e300)))))
def test_symmetric_storage_expands_like_the_oracle(case):
    n, lower = case
    oracle = np.zeros((n, n))
    coord, dense = [], []
    k = 0
    for j in range(n):
        for i in range(j, n):
            oracle[i, j] = oracle[j, i] = lower[k]
            dense.append(f"{lower[k]:.17g}")
            if lower[k] != 0.0:
                coord.append(f"{i + 1} {j + 1} {lower[k]:.17g}")
            k += 1
    with tempfile.TemporaryDirectory() as d:
        pc = os.path.join(d, "c.mtx")
        pa = os.path.join(d, "a.mtx")
        with open(pc, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real symmetric\n"
                     f"{n} {n} {len(coord)}\n" + "".join(ln + "\n" for ln in coord))
        with open(pa, "w") as fh:
            fh.write("%%MatrixMarket matrix array real symmetric\n"
                     f"{n} {n}\n" + "".join(ln + "\n" for ln in dense))
        S = load_matrix_market(pc)
        M = load_matrix_market(pa)
    assert np.array_equal(S.toarray(), oracle)
    assert np.array_equal(M, oracle)
    assert M.flags.f_contiguous


COORD = "%%MatrixMarket matrix coordinate real general"


@pytest.mark.parametrize("lines, message", [
    ((COORD, "% sizes next", "3 3 3", "1 1 1.0", "% a note", "", "2 2 x", "3 3 1.0"),
     "line 7: cannot parse entry '2 2 x'"),
    ((COORD, "2 2 1", "1.5 1 2.0"), "line 3: cannot parse entry '1.5 1 2.0'"),
    ((COORD, "2 2 2", "1 1 1.0", "2 2"), "line 4: entry needs 'i j value', got '2 2'"),
    ((COORD, "2 2 2", "1 1 1.0 4", "2 2 1.0"),
     "line 3: entry needs 'i j value', got '1 1 1.0 4'"),
    ((COORD, "2 2 2", "1 1 1.0", "", "2 3 1.0"), "line 5: column index 3 outside 1..2"),
    (("%%MatrixMarket matrix coordinate real symmetric", "3 3 3", "1 1 1.0", "3 1 2.0",
      "2 3 4.0"), "line 5: symmetric storage keeps only the lower triangle"),
    ((COORD, "2 2 1", "1_0 1 2.0"), "line 3: cannot parse entry '1_0 1 2.0'"),
    (("%%MatrixMarket matrix array real general", "2 1", "1.0", "2.0 3.0"),
     "line 4: array entries hold one value per line, got '2.0 3.0'"),
    ((), "line 1: empty file"),
    (("%%MatrixMarket vector coordinate real general", "2 1"),
     "line 1: unsupported object 'vector'"),
    (("%%MatrixMarket matrix sparse real general", "2 2 1"), "line 1: unsupported format 'sparse'"),
    ((COORD, "% no size line follows"), "line 2: missing size line"),
    ((COORD, "2 2"), "line 2: coordinate size line needs 3 integers, got '2 2'"),
    ((COORD, "2 x 1"), "line 2: coordinate size line needs integers, got '2 x 1'"),
    ((COORD, "2 2 -1"), "line 2: coordinate size line must be nonnegative"),
    # a size past int64 is refused on its own line, before the body is read
    ((COORD, "100000000000000000000 1 1", "99999999999999999999 1 1.0"),
     "line 2: coordinate size line holds an integer past int64, "
     "got '100000000000000000000 1 1'"),
    ((COORD, "99999999999999999999 3 1", "1 1 2.0"),
     "line 2: coordinate size line holds an integer past int64, "
     "got '99999999999999999999 3 1'"),
    ((COORD, "2 2 1", "99999999999999999999 1 1.0"),
     "line 3: row index 99999999999999999999 outside 1..2"),
])
def test_bad_entry_reports_its_line(tmp_path, lines, message):
    p = write_lines(tmp_path / "b.mtx", *lines)
    with pytest.raises(MatrixMarketError, match=f"^{re.escape(message)}$"):
        load_matrix_market(p)


def test_trailing_comment_on_an_entry_is_accepted(tmp_path):
    p = write_lines(tmp_path / "t.mtx", COORD, "2 2 2", "1 1 3.0 % diagonal", "2 1 -1.0%x")
    assert np.array_equal(load_matrix_market(p).toarray(), [[3.0, 0.0], [-1.0, 0.0]])
