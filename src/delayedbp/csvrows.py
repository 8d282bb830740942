"""CSV rows built a chunk at a time in numpy.

``rows`` turns typed columns into the UTF-8 bytes of their rows: integers
as ``%d``, names by index (encoded with ``surrogatepass``, so a lone
surrogate goes out as its three-byte form), floats as ``%.17g`` and empty
cells, comma separated, one row per line.  The int kernel builds only as
many 4-digit groups as the chunk's widest value needs, from word tables
whose leading-group entries already pad the leading zeros.  The float
kernel scales |x| by a double-double power of
ten (Dekker's two-product) to a 17-digit integer, renders it through a
4-digit table and lays each cell out with bytewise word masks taken from
tables indexed by sign and exponent (the head and the exponent text) and by
point place and significant-digit count (the digits).  A cell
whose rounding it cannot certify (non-finite, outside [1e-270, 1e290],
within 1e-6 of a tie, or out of range on the recheck) is formatted by
Python's own ``'%.17g'``, so every cell is byte for byte what
``'%.17g' % x`` gives.

Cells are built padded with a byte that UTF-8 never uses, laid side by side
in one byte matrix per chunk, and the padding is dropped in one pass.
"""
from __future__ import annotations

import numpy as np

_PAD = 0xFF  # never a byte of UTF-8 text: marks the cells' unused room
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles
_P_MIN = -300  # powers of ten 10^p are tabled for p in [_P_MIN, -_P_MIN]
_FAST_MIN, _FAST_MAX = 1e-270, 1e290
_TIE = 1e-6  # the scaled value's fraction must sit this far from 1/2
_N_MIN, _N_MAX = 10 ** 16, 10 ** 17  # the 17-digit integers


def _split(a):
    """Veltkamp's split of ``a`` into two 26-bit halves, a = hi + lo."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table():
    """10^p as the double-double hi + lo for p in [_P_MIN, -_P_MIN], from
    integer arithmetic (int true division rounds correctly)."""
    hi, lo = [], []
    for p in range(_P_MIN, -_P_MIN + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den
        m, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - m * den) / (den * d))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _bytes(texts, width, right=False):
    """(len(texts), width) bytes of ``texts``, padded with _PAD."""
    pad = bytes.rjust if right else bytes.ljust
    return np.frombuffer(b"".join(pad(t, width, b"\xff") for t in texts),
                         np.uint8).reshape(len(texts), width)


_P10_HI, _P10_HI_HI, _P10_HI_LO, _P10_LO = _pow10_table()


def _group_words():
    """The text of each 4-digit group 0000..9999 as one 4-byte word."""
    text = np.empty((10, 10, 10, 10, 4), np.uint8)
    for i in range(4):
        shape = [1] * 4
        shape[i] = 10
        text[..., i] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(shape)
    return text.view(np.uint32).ravel()


_T4 = _group_words()
# trailing zeros of each 4-digit group: four for 0000
_TZ4 = sum(np.arange(10000) % 10 ** i == 0 for i in range(1, 5)).astype(np.int8)


def _lead_words(zero):
    """_T4 then the same groups as the leading group of a number, their
    leading zeros turned to _PAD; the group 0 as a lead is ``zero``."""
    text = _T4.copy().view(np.uint8).reshape(-1, 4)
    for i in range(3):  # byte i is a leading zero below 10^(3 - i)
        text[:10 ** (3 - i), i] = _PAD
    text[0] = np.frombuffer(zero, np.uint8)
    return np.concatenate([_T4, text.view(np.uint32).ravel()])


# an integer's groups but the last are read from _LEAD and its last group
# from _LAST, at index group + 10^4 while every higher group is 0: there a
# zero group is all padding, and a zero last group (the number 0) is "0"
_LEAD = _lead_words(b"\xff" * 4)
_LAST = _lead_words(b"\xff\xff\xff0")
_Q = np.uint64(10000)

# A float cell is built in a 32-byte row of four words:
#   bytes 0..6    the head, right-aligned: "-", and "0." and zeros for
#                 exponents -4..-1 (indexed by sign * 5 - exponent)
#   bytes 7..24   the body: the 17 digits with the point inserted and
#                 trailing digits dropped (indexed by point place, length)
#   bytes 27..31  the exponent text "e+dd" or "e-ddd" (indexed by exponent)
# Unused bytes hold _PAD.  The 4-digit table writes "000d" then four groups
# into bytes 4..23, so digit j sits at byte 7 + j.
_AT = 7
_HEADS = [b"-" * neg + (b"0." + b"0" * (e - 1)) * (e > 0) for neg in (0, 1) for e in range(5)]
_HEAD_LEN = np.array([len(h) for h in _HEADS])
_HEAD = np.hstack([_bytes(_HEADS, _AT, right=True), np.zeros((10, 1), np.uint8)])
_HEAD = _HEAD.view(np.uint64).ravel()
_E_MIN = _P_MIN
_TAIL = np.zeros((-2 * _E_MIN + 2, 8), np.uint8)
_TAIL[:, 3:] = _bytes([f"e{e:+03d}".encode() for e in range(_E_MIN, -_E_MIN + 1)] + [b""], 5)
_TAIL = _TAIL.view(np.uint64).ravel()  # the last row is blank, for fixed notation
_NO_POINT = 17  # the body's point place when it has no point


def _body_masks():
    """Word masks of the body by (point place a, length with the point): the
    digits before the point come from the row (m1), those after it from the
    row shifted up one byte (m2), and m3 sets the point and the _PAD filler."""
    a = np.arange(_NO_POINT + 1)[:, None, None] + _AT
    j = np.arange(32)
    body = (j >= _AT) & (j < _AT + np.arange(19)[:, None])
    m = np.stack([np.where(body & (j < a), 0xFF, 0),
                  np.where(body & (j > a), 0xFF, 0),
                  np.where(body & (j == a), ord("."),
                           np.where(~body & (j >= _AT) & (j < 27), _PAD, 0))])
    return m.astype(np.uint8).view(np.uint64).reshape(3, -1, 4)


_M1, _M2, _M3 = _body_masks()


def _scale(a, p):
    """a * 10^p as the unevaluated pair ph + r, with ph = fl(a * 10^p)."""
    i = p - _P_MIN
    b_hi, b_lo = _P10_HI_HI.take(i), _P10_HI_LO.take(i)
    ph = a * _P10_HI.take(i)
    a_hi, a_lo = _split(a)
    err = ((a_hi * b_hi - ph) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return ph, err + a * _P10_LO.take(i)


def _quads(n, count):
    """The ``count`` base-10^4 digit groups of ``n`` < 10^(4 count), highest
    first."""
    groups = []
    for _ in range(count - 1):
        q = n // 10000
        groups.append(n - q * 10000)  # n % 10000 is slower than a multiply
        n = q
    return [n, *groups[::-1]]


def _round17(ax):
    """(k, n, ok) for the magnitudes ``ax``: n the 17-digit integer with
    ax = n * 10^(k - 16) to 17 significant digits, and ok where that rounding
    is certified.  A zero comes out as k = n = 0, and ok."""
    zero = ax == 0
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)  # NaN compares False
    a = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    ph, r = _scale(a, 16 - k)
    # correct k from the exact pair: ph alone can round onto a power of ten
    low = (ph < _N_MIN) | ((ph == _N_MIN) & (r < 0))
    high = (ph > _N_MAX) | ((ph == _N_MAX) & (r >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += high[fix].astype(np.int64) - low[fix]
        ph[fix], r[fix] = _scale(a[fix], 16 - k[fix])
    # ph is an integer above 2^53, so the fraction of ph + r is r's
    whole = np.floor(r)
    frac = r - whole
    n = ph.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    # a round-up to 10^17 fails the recheck and goes to Python, as do ties
    ok = fast & (np.abs(frac - 0.5) > _TIE) & (n >= _N_MIN) & (n < _N_MAX)
    n[zero] = 0
    k[zero] = 0
    return k, n, ok | zero


def _digits17(n):
    """The float cells' 32-byte rows with the digits of the integers ``n`` <
    10^17 in bytes 7..23, and nd, the count of significant digits (1 for 0)."""
    lead, *groups = _quads(n, 5)
    row = np.empty((len(n), 8), np.uint32)
    row[:, 1] = _T4.take(lead)
    for col, g in enumerate(groups, 2):
        row[:, col] = _T4.take(g)
    tz = _TZ4.take(groups[-1])
    more = (groups[-1] == 0) & (n != 0)  # a group all zeros: count on into the next
    for g in groups[-2::-1]:
        if not more.any():
            break
        tz += more * _TZ4.take(g)
        more &= g == 0
    return row, np.where(n == 0, 1, 17 - tz)


def float_cells(x) -> np.ndarray:
    """(len(x), w) bytes of ``'%.17g' % x`` per float, padded with _PAD."""
    x = np.asarray(x, dtype=np.float64)
    neg = np.signbit(x)
    k, n, ok = _round17(np.abs(x))
    row, nd = _digits17(n)

    # the layout: fixed notation for exponents -4..16, else exponent form
    fixed = (k >= -4) & (k < 17)
    before = np.where(fixed, np.maximum(k + 1, 0), 1)  # body digits before the point
    point = (nd > before) & (before > 0)
    length = np.maximum(nd, before) + point
    mask = np.where(point, before, _NO_POINT) * 19 + length
    shifted = np.empty_like(row)  # byte i holds byte i - 1 of the row
    shifted.view(np.uint8).ravel()[1:] = row.view(np.uint8).ravel()[:-1]
    word, after = row.view(np.uint64), shifted.view(np.uint64)  # masked in place
    word &= _M1.take(mask, axis=0)
    after &= _M2.take(mask, axis=0)
    word |= after
    word |= _M3.take(mask, axis=0, out=after)
    head = neg * 5 + np.where(fixed & (k < 0), -k, 0)
    word[:, 0] |= _HEAD.take(head)
    word[:, 3] |= _TAIL.take(np.where(fixed, len(_TAIL) - 1, k - _E_MIN))
    cells = word.view(np.uint8)

    start = _AT - _HEAD_LEN.take(head).max()
    end = _AT + length.max()
    if not fixed.all():
        end = 31 + (np.abs(k[~fixed]) >= 100).any()
    slow = np.flatnonzero(~ok)
    if slow.size:
        texts = [b"%.17g" % v for v in x[slow].tolist()]
        end = max(end, _AT + max(map(len, texts)))
        cells[slow, :_AT] = _PAD
        cells[slow, _AT:] = _bytes(texts, 32 - _AT)
    return cells[:, start:end]


def int_cells(v) -> np.ndarray:
    """(len(v), w) bytes of ``'%d' % v`` per integer, padded with _PAD: as
    many digit groups as the widest value needs, each a word of _LEAD or
    _LAST, so a chunk of small counts costs one table read per value."""
    v = np.asarray(v, dtype=np.int64)
    u = np.abs(v).astype(np.uint64)  # |int64 min| = 2^63 fits
    width = len(str(u.max(initial=0)))
    *upper, last = _quads(u, -(-width // 4))
    row = np.empty((len(v), len(upper) + 1), np.uint32)
    lead = True  # every higher group is 0
    for col, g in enumerate(upper):
        row[:, col] = _LEAD.take(g + _Q * lead)
        lead = lead & (g == 0)
    row[:, -1] = _LAST.take(last + _Q * lead)
    cells = row.view(np.uint8)[:, 4 * row.shape[1] - width:]
    neg = v < 0
    if neg.any():
        sign = np.where(neg, ord("-"), _PAD).astype(np.uint8)
        cells = np.hstack([sign[:, None], cells])
    return cells


def labels(names) -> np.ndarray:
    """(len(names), w) UTF-8 bytes of each name, padded with _PAD; a label
    column is this table with the rows' name indices.  Lone surrogates pass
    through, so the text decodes back to exactly ``names``."""
    data = [str(name).encode("utf-8", "surrogatepass") for name in names]
    return _bytes(data, max(map(len, data), default=0))


def rows(columns) -> bytes:
    """The UTF-8 bytes of one CSV row per line from ``columns``, in order: an
    int array (``%d``), a float array (``%.17g``), a pair (``labels`` table,
    index array) for names, or None for an empty cell.  The int columns are
    formatted in one kernel call, and so are the float columns."""
    m = next(len(c[1] if isinstance(c, tuple) else c) for c in columns if c is not None)

    def kind(c):
        return "f" if c.dtype.kind == "f" else "i"

    formatted = {}
    for key, fmt in (("i", int_cells), ("f", float_cells)):
        group = [c for c in columns if isinstance(c, np.ndarray) and kind(c) == key]
        if group:  # column after column: each slot is one block of the cells
            formatted[key] = iter(fmt(np.concatenate(group)).reshape(len(group), m, -1))
    slots = [None if c is None else c[0].take(c[1], axis=0) if isinstance(c, tuple)
             else next(formatted[kind(c)]) for c in columns]
    buf = np.empty((m, sum(0 if s is None else s.shape[1] for s in slots) + len(slots)), np.uint8)
    at = 0
    for s in slots:
        if s is not None and s.shape[1]:  # one item per row: faster than a byte matrix
            cell = np.dtype((np.void, s.shape[1]))
            buf[:, at:at + s.shape[1]].view(cell)[:, 0] = s.view(cell)[:, 0]
            at += s.shape[1]
        buf[:, at] = ord(",")
        at += 1
    buf[:, -1] = ord("\n")
    return buf.tobytes().translate(None, bytes([_PAD]))
