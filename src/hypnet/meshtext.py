"""Array-pass text formatting of mesh rows, byte for byte as ``%``.

:func:`vertex_rows` gives the bytes of ``"v %.17g %.17g %.17g\\n"`` and
:func:`face_rows` those of ``"f %d %d %d %d\\n"`` for a block of rows,
computed in numpy array passes instead of one value at a time.

The fast path takes finite doubles with ``1e-11 <= |x| < 1e17``, and
``±0.0``.  With ``x = ±M * 2**E``, ``k = floor(log10|x|)`` and
``q = 16 - k`` (so ``5**q < 2**63``), it rounds
``|x| * 10**q = M * 5**q * 2**(E + q)`` half to even from the exact
116-bit product of 32-bit limbs held in ``uint64``, as Ryū printf does
for a fixed precision (Adams, OOPSLA 2019).  A row falls back to ``%``
where a value is outside that range, or where the quotient before
rounding is not a 17-digit integer (``log10`` named the wrong ``k``) or
rounds up to ``10**17``; so the output is exact by construction.  The
digits come four at a time from a table of 4-byte words; each field is
laid out from a template keyed by its sign, ``k`` and digit count, and
one boolean compress per block keeps its bytes.  Face ids in
``[0, 10**16)`` take the same digit table and templates keyed by their
digit count; other ids fall back to ``%``.  The tables are built from
numpy arithmetic on first use.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)

# A vertex field: the row's lead "v " (kept before the first coordinate
# only), the sign, "0." and three zeros for -4 <= k < 0, the 17 digits,
# a point, the 17 digits again, "e-XX" for k < -4, and a separator (" ",
# "\n" after the third coordinate).  A template keeps the integer digits
# from the first copy and the fraction from the second.
_LEAD, _SIGN, _ZEROS, _LEFT, _POINT, _RIGHT, _EXP, _END, _FIELD = (
    0, 2, 3, 8, 25, 26, 43, 47, 48
)
_KS = 28  # decimal exponents k = -11 .. 16
# A face field: the row's lead "f ", 16 digits and a separator.
_ID_DIGITS, _ID_END, _ID_FIELD = 2, 18, 19


@lru_cache(maxsize=None)
def _tables() -> SimpleNamespace:
    """Read-only lookup tables of the fast path, built on first use."""
    # the four ASCII digits of 0 .. 9999 as one native 4-byte word each,
    # and their trailing zeros
    n = np.arange(10000)
    chars = np.empty((10000, 4), dtype=np.uint8)
    trailing = np.zeros(10000, dtype=np.int8)
    for j in range(4):
        chars[:, j] = n // 10 ** (3 - j) % 10 + ord("0")
        trailing += n % 10 ** (j + 1) == 0
    words = chars.view(np.uint32).ravel()
    pow5 = np.cumprod(np.full(_KS, 5, dtype=_U64)) // _U64(5)

    # vertex templates keyed by (sign, k + 11, count - 1)
    grid = np.meshgrid(
        np.arange(2), np.arange(-11, 17), np.arange(1, 18), indexing="ij"
    )
    sign, k, count = (v.reshape(-1, 1) for v in grid)
    fixed = k >= -4
    small = fixed & (k < 0)
    point = np.where(fixed, np.where(small, 17, k), 0)
    integer = np.where(small, count - 1, point)
    c = np.arange(17)
    text = np.zeros((len(k), _FIELD), dtype=np.uint8)
    text[:, :_LEFT] = np.frombuffer(b"v -0.000", np.uint8)
    text[:, _POINT] = ord(".")
    text[:, _EXP:_EXP + 2] = np.frombuffer(b"e-", np.uint8)
    text[:, _EXP + 2:_EXP + 3] = ord("0") + np.abs(k) // 10
    text[:, _EXP + 3:_END] = ord("0") + np.abs(k) % 10
    text[:, _END] = ord(" ")
    keep = np.zeros(text.shape, dtype=bool)
    keep[:, _SIGN:_SIGN + 1] = sign == 1
    keep[:, _ZEROS:_ZEROS + 2] = small
    keep[:, _ZEROS + 2:_LEFT] = small & (np.arange(3) < -k - 1)
    keep[:, _LEFT:_POINT] = c <= integer
    keep[:, _POINT:_POINT + 1] = count > point + 1
    keep[:, _RIGHT:_EXP] = (c > point) & (c < count)
    keep[:, _EXP:_END] = ~fixed
    keep[:, _END] = True

    # face templates keyed by count - 1
    id_text = np.zeros((16, _ID_FIELD), dtype=np.uint8)
    id_text[:, :_ID_DIGITS] = np.frombuffer(b"f ", np.uint8)
    id_text[:, _ID_END] = ord(" ")
    id_keep = np.zeros(id_text.shape, dtype=bool)
    id_keep[:, _ID_DIGITS:_ID_END] = np.arange(16) >= np.arange(15, -1, -1)[:, None]
    id_keep[:, _ID_END] = True

    tables = SimpleNamespace(
        words=words,
        trailing=trailing,
        pow5=pow5,
        text=text,
        keep=keep,
        id_text=id_text,
        id_keep=id_keep,
        id_powers=10 ** np.arange(1, 16),
    )
    for table in vars(tables).values():
        table.setflags(write=False)
    return tables


def _digit_groups(values: np.ndarray, count: int, words: np.ndarray):
    """Base-10**4 digit groups ``(n, count)`` of ``0 <= values <
    10**(4 count)``, most significant first, and their ASCII digits
    ``(n, 4 count)``."""
    groups = np.empty((len(values), count), dtype=np.int64)
    rest = values
    for j in range(count - 1, 0, -1):
        rest, groups[:, j] = np.divmod(rest, 10**4)
    groups[:, 0] = rest
    return groups, np.take(words, groups).view(np.uint8)


def _product(mant: np.ndarray, factor: np.ndarray):
    """``mant * factor`` of ``uint64`` arrays as 128-bit ``(hi, lo)``, for
    ``mant < 2**53`` and ``factor < 2**63``, from 32-bit limbs."""
    m0, m1 = mant & _LOW32, mant >> _U64(32)
    f0, f1 = factor & _LOW32, factor >> _U64(32)
    low = m0 * f0
    mid = m1 * f0 + m0 * f1 + (low >> _U64(32))
    return m1 * f1 + (mid >> _U64(32)), (mid << _U64(32)) | (low & _LOW32)


def _decimal17(x: np.ndarray, tables: SimpleNamespace):
    """``|x|`` rounded to 17 significant digits, exactly, where it can be.

    Returns ``(exact, k, count, chars)``: where the fast path holds, the
    decimal exponent ``k`` of the leading digit, the number of digits up
    to the last nonzero one, and the 17 ASCII digits ``(n, 17)``; a zero
    reads as ``k = 0`` and one digit ``0``.  Rows outside ``exact`` carry
    placeholders.
    """
    a = np.abs(x)
    zero = a == 0
    exact = (a >= 1e-11) & (a < 1e17)
    a[~exact] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    # log10 may round k off by one at either end of the range
    exact &= (k >= -11) & (k <= 16)
    q = 16 - k
    # |x| 10**q = mant 5**q 2**shift
    bits = a.view(_U64)
    mant = (bits & _U64(2**52 - 1)) | _U64(2**52)
    shift = (bits >> _U64(52)).astype(np.int64) - 1075 + q
    hi, lo = _product(mant, tables.pow5[np.clip(q, 0, _KS - 1)])
    # shift right by t: the quotient fits 64 bits only where hi >> t is 0
    t = np.clip(-shift, 1, 63).astype(_U64)
    quotient = (hi << (_U64(64) - t)) | (lo >> t)
    rest = lo & ((_U64(1) << t) - _U64(1))
    fits = (hi >> t) == _U64(0)
    left = shift >= 0
    if left.any():
        # k = 15 or 16 and |x| >= 2**52, so q <= 1, hi = 0 and shift <= 5:
        # an integer, exact after a left shift
        quotient = np.where(left, lo << np.maximum(shift, 0).astype(_U64), quotient)
        rest = np.where(left, _U64(0), rest)
    half = _U64(1) << (t - _U64(1))
    up = (rest > half) | ((rest == half) & ((quotient & _U64(1)) == _U64(1)))
    rounded = quotient + up
    exact &= fits & (quotient >= _U64(10**16)) & (rounded < _U64(10**17))
    rounded[~exact] = _U64(10**16)
    rounded[zero] = 0
    exact |= zero
    groups, chars = _digit_groups(rounded.view(np.int64), 5, tables.words)
    # trailing zeros of the last group, and of the groups before it for
    # the few values whose last group is 0000
    zeros = np.take(tables.trailing, groups[:, 4])
    run = np.flatnonzero(groups[:, 4] == 0)
    for j in (3, 2, 1):
        zeros[run] += np.take(tables.trailing, groups[run, j])
        run = run[groups[run, j] == 0]
    return exact, k, 17 - zeros, chars[:, 3:]


def _compress_rows(buf, keep, bad, fallback) -> bytes:
    """The kept bytes of the rows of ``buf``, with the rows in ``bad``
    replaced by the lines ``fallback(rows)`` formats for them."""
    if not bad.any():
        return buf[keep].tobytes()
    keep[bad] = False
    text = buf[keep].tobytes()
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    rows = np.flatnonzero(bad)
    pieces, start = [], 0
    for row, line in zip(rows.tolist(), fallback(rows).splitlines(keepends=True)):
        pieces += [text[start:ends[row]], line]
        start = ends[row]
    pieces.append(text[start:])
    return b"".join(pieces)


def vertex_rows(coords: np.ndarray) -> bytes:
    """``b"v %.17g %.17g %.17g\\n"`` of every row of ``coords`` ``(r, 3)``."""
    tables = _tables()
    x = coords.reshape(-1)
    rows = len(coords)
    exact, k, count, chars = _decimal17(x, tables)
    exact = exact.reshape(rows, 3)
    key = ((np.signbit(x) * _KS + k + 11) * 17 + count - 1).reshape(rows, 3)
    key = np.where(exact, key, 0)
    buf = np.take(tables.text, key, axis=0)
    keep = np.take(tables.keep, key, axis=0)
    buf[..., _LEFT:_POINT] = chars.reshape(rows, 3, 17)
    buf[..., _RIGHT:_EXP] = chars.reshape(rows, 3, 17)
    keep[:, 0, _LEAD:_SIGN] = True
    buf[:, 2, _END] = ord("\n")
    return _compress_rows(
        buf.reshape(rows, -1),
        keep.reshape(rows, -1),
        ~exact.all(axis=1),
        lambda r: (b"v %.17g %.17g %.17g\n" * len(r))
        % tuple(coords[r].ravel().tolist()),
    )


def face_rows(ids: np.ndarray) -> bytes:
    """``b"f %d %d %d %d\\n"`` of every row of ``ids`` ``(r, 4)``."""
    tables = _tables()
    v = ids.reshape(-1)
    rows = len(ids)
    fast = (v >= 0) & (v < 10**16)
    v = np.where(fast, v, 0)
    # as many 4-digit groups as the largest id needs, and the template
    # columns of that many digits
    groups = 1 + int(np.searchsorted(tables.id_powers[3::4], v.max(), side="right"))
    columns = np.r_[:_ID_DIGITS, _ID_END - 4 * groups:_ID_FIELD]
    # count - 1 is the number of powers 10 .. 10**15 at most v
    key = np.searchsorted(tables.id_powers, v, side="right").reshape(rows, 4)
    buf = np.take(tables.id_text[:, columns], key, axis=0)
    keep = np.take(tables.id_keep[:, columns], key, axis=0)
    chars = _digit_groups(v, groups, tables.words)[1]
    buf[..., _ID_DIGITS:-1] = chars.reshape(rows, 4, -1)
    keep[:, 0, :_ID_DIGITS] = True
    buf[:, 3, -1] = ord("\n")
    return _compress_rows(
        buf.reshape(rows, -1),
        keep.reshape(rows, -1),
        ~fast.reshape(rows, 4).all(axis=1),
        lambda r: (b"f %d %d %d %d\n" * len(r)) % tuple(ids[r].ravel().tolist()),
    )
