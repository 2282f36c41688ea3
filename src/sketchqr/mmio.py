"""Matrix Market reading and writing, real field only.

Coordinate files come back as scipy CSC (symmetric storage expanded), array
files as Fortran-ordered dense matrices.  The writer emits 17 significant
digits so a write/read round trip reproduces doubles bit for bit.

Accepted grammar.  Line 1 is the banner.  Then come comment lines (first
non-blank character '%') and blank lines, then the size line: 'rows cols
nnz' for coordinate files, 'rows cols' for array files, integers from 0 to
2^63 - 1 only.  Every later line is an entry, a comment or blank.  An entry
holds 'i j value' (coordinate; 1-based indices, and for symmetric storage
i >= j) or one 'value' (array; column-major, and for symmetric storage the
lower triangle only).  Tokens are separated by whitespace, lines end at a
newline.  Indices are ASCII decimal integers with an optional sign, values
anything Python's float() reads from ASCII ('inf' and 'nan' included).

The body after the size line is parsed in one np.loadtxt read with '%' as
the comment character.  Two inputs read differently from a per-line
split/int/float parse: a trailing '% note' on an entry line is a comment
and is accepted, and digit separators such as '1_0' (or non-ASCII digits)
are rejected.  Entry count, index ranges and the lower-triangle rule are
checked on the parsed arrays; on any failure the body is walked once more,
line by line, to raise MatrixMarketError naming the first offending line.
"""

import warnings

import numpy as np
import scipy.sparse

BANNER = "%%MatrixMarket"

_COORD = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# the largest size the body's int64 index fields can be checked against
_INT64_MAX = np.iinfo(np.int64).max
# entries formatted per write() call by the writer
_CHUNK = 4096


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content; the message names the line."""


def _fail(lineno, msg):
    raise MatrixMarketError(f"line {lineno}: {msg}")


def _parse_banner(line):
    parts = line.split()
    if len(parts) != 5 or parts[0].lower() != BANNER.lower():
        _fail(1, f"expected '{BANNER} matrix FORMAT FIELD SYMMETRY' banner")
    obj, fmt, field, sym = (p.lower() for p in parts[1:])
    if obj != "matrix":
        _fail(1, f"unsupported object {obj!r}")
    if fmt not in ("coordinate", "array"):
        _fail(1, f"unsupported format {fmt!r}")
    if field != "real":
        _fail(1, f"only the real field is supported, got {field!r}")
    if sym not in ("general", "symmetric"):
        _fail(1, f"unsupported symmetry {sym!r}")
    return fmt, sym


def _ints(lineno, line, count, what):
    parts = line.split()
    if len(parts) != count:
        _fail(lineno, f"{what} needs {count} integers, got {line.strip()!r}")
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        _fail(lineno, f"{what} needs integers, got {line.strip()!r}")
    if any(v < 0 for v in vals):
        _fail(lineno, f"{what} must be nonnegative")
    if any(v > _INT64_MAX for v in vals):
        _fail(lineno, f"{what} holds an integer past int64, got {line.strip()!r}")
    return vals


def _size_line(fh):
    """(line number, text) of the first line after the banner that is
    neither blank nor a comment."""
    lineno = 1
    for line in iter(fh.readline, ""):
        lineno += 1
        if line.strip() and not line.lstrip().startswith("%"):
            return lineno, line
    _fail(lineno, "missing size line")


def _number(tok, kind):
    # loadtxt reads ASCII digits without '_' separators; int() and float()
    # accept both, so refuse them here to agree on what parses
    if not tok.isascii() or "_" in tok:
        raise ValueError(tok)
    return kind(tok)


def _first_bad_line(fh, szline, fmt, sym, nr, nc, want):
    """Walk the body from the line after the size line and raise the
    MatrixMarketError of the first fault: the entry count, then the first
    entry that does not parse or is out of place."""
    entries = []
    for lineno, line in enumerate(iter(fh.readline, ""), start=szline + 1):
        parts = line.split("%", 1)[0].split()
        if parts:
            entries.append((lineno, line, parts))
    if len(entries) != want:
        if fmt == "coordinate":
            _fail(szline, f"declared {want} entries, file holds {len(entries)}")
        _fail(szline, f"array body needs {want} values, file holds {len(entries)}")
    for lineno, line, parts in entries:
        if fmt == "array":
            if len(parts) != 1:
                _fail(lineno, f"array entries hold one value per line, got {line.strip()!r}")
            try:
                _number(parts[0], float)
            except ValueError:
                _fail(lineno, f"cannot parse value {line.strip()!r}")
            continue
        if len(parts) != 3:
            _fail(lineno, f"entry needs 'i j value', got {line.strip()!r}")
        try:
            i, j = _number(parts[0], int), _number(parts[1], int)
            _number(parts[2], float)
        except ValueError:
            _fail(lineno, f"cannot parse entry {line.strip()!r}")
        if not 1 <= i <= nr:
            _fail(lineno, f"row index {i} outside 1..{nr}")
        if not 1 <= j <= nc:
            _fail(lineno, f"column index {j} outside 1..{nc}")
        if sym == "symmetric" and i < j:
            _fail(lineno, "symmetric storage keeps only the lower triangle")
    _fail(szline, "body after the size line does not parse")


def _read_body(fh, dtype, ndmin):
    """The rest of fh in one loadtxt read, or None if loadtxt rejects it."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(fh, dtype=dtype, comments="%", ndmin=ndmin)
        except ValueError:
            return None


def load_matrix_market(path):
    """Parse a Matrix Market file.

    Returns a scipy CSC matrix for coordinate files and a dense float64
    array (column-major) for array files.  Raises MatrixMarketError with
    the offending line number on malformed input.
    """
    with open(path) as fh:
        banner = fh.readline()
        if not banner:
            _fail(1, "empty file")
        fmt, sym = _parse_banner(banner)
        szline, sz = _size_line(fh)
        body_at = fh.tell()
        nr, nc, *nnz = _ints(szline, sz, 3 if fmt == "coordinate" else 2, f"{fmt} size line")
        if sym == "symmetric" and nr != nc:
            _fail(szline, f"symmetric matrix must be square, got {nr}x{nc}")
        if fmt == "coordinate":
            want = nnz[0]
            body = _read_body(fh, _COORD, 1)
            ok = body is not None and len(body) == want
            if ok:
                rows, cols, vals = body["i"] - 1, body["j"] - 1, body["v"]
                ok = (np.all((0 <= rows) & (rows < nr)) and np.all((0 <= cols) & (cols < nc))
                      and not (sym == "symmetric" and np.any(rows < cols)))
        else:
            want = nr * (nr + 1) // 2 if sym == "symmetric" else nr * nc
            body = _read_body(fh, np.float64, 2)
            ok = body is not None and body.shape == (want, 1)
        if not ok:
            fh.seek(body_at)
            _first_bad_line(fh, szline, fmt, sym, nr, nc, want)
    if fmt == "coordinate":
        if sym == "symmetric":
            # one COO of the entries and their mirror: a sparse sum would
            # prune explicitly stored zeros
            off = rows != cols
            rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
            vals = np.concatenate([vals, vals[off]])
        return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(nr, nc)).tocsc()
    vals = body[:, 0]
    M = np.zeros((nr, nc), order="F")
    if sym == "symmetric":
        # the lower triangle column by column is the upper one row by row
        j, i = np.triu_indices(nr)
        M[i, j] = vals
        M[j, i] = vals
    else:
        M[:] = vals.reshape((nr, nc), order="F")
    return M


def _write_lines(fh, line_fmt, flat, per_line):
    """Write `flat` as lines of `per_line` values, one write per chunk."""
    step = _CHUNK * per_line
    for a in range(0, len(flat), step):
        part = flat[a:a + step]
        fh.write(line_fmt * (len(part) // per_line) % tuple(part))


def write_matrix_market(path, M, comment=None):
    """Write M as 'real general': coordinate format for sparse input, array
    format (column-major) for dense.  Values printed with %.17g.  Anything
    but a sparse matrix, a dense matrix or a vector raises ValueError before
    the file is opened."""
    if scipy.sparse.issparse(M):
        C = M.tocoo()
        fmt, size = "coordinate", f"{C.shape[0]} {C.shape[1]} {C.nnz}"
        flat = [0] * (3 * C.nnz)
        flat[0::3] = (C.row + 1).tolist()
        flat[1::3] = (C.col + 1).tolist()
        flat[2::3] = C.data.tolist()
        line_fmt, per_line = "%d %d %.17g\n", 3
    else:
        A = np.asarray(M, dtype=np.float64)
        if A.ndim == 1:
            A = A[:, None]
        if A.ndim != 2:
            raise ValueError("expected a vector or matrix")
        fmt, size = "array", f"{A.shape[0]} {A.shape[1]}"
        flat, line_fmt, per_line = A.ravel(order="F").tolist(), "%.17g\n", 1
    with open(path, "w") as fh:
        fh.write(f"{BANNER} matrix {fmt} real general\n")
        if comment:
            for ln in str(comment).splitlines():
                fh.write(f"% {ln}\n")
        fh.write(f"{size}\n")
        _write_lines(fh, line_fmt, flat, per_line)
