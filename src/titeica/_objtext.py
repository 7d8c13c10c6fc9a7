"""OBJ and JSON text in numpy: exactly the bytes of CPython's
``"v %.17g %.17g %.17g\\n"`` and ``"f %d %d %d %d\\n"`` rows, and the
nested lists of ``json.dumps`` with its floats written as ``'%.17g'``, a
block of values at a time.  The "f" rows are the quads of a grid: each
block writes the text of a vertex index once and copies it to the four
slots of its quads.

Both formats are rows of values under a row template: a lead written
before each column's value and a tail after it.  The OBJ row is "v" and
" " separators, then "\\n"; a JSON row is one vertex, "[[re, im], ...],
", and the last value of each grid row takes one more table column, whose
tail closes the grid row and opens the next.  Each value gets a
fixed-width slot of ASCII bytes that holds, in order, its column's lead,
every character any of its layouts can use, and its column's tail.  A
boolean mask per slot, looked up in a table by a small code (column,
layout, sign), keeps the characters of the value's text, and one boolean
compress per block turns the slots into the text of its rows.

%.17g of a finite normal x with 10^-11 < |x| < 10^17 is integer work.
With x = m 2^e (m < 2^53) and k = floor(log10 |x|) in [-11, 16], the 17
significant digits are N = round(|x| 10^(16 - k)), ties to even, and
m 5^(16 - k) < 2^116 is a 128-bit product of 32-bit limbs, which a shift
of at most 63 bits scales by 2^(e + 16 - k).  k comes from the floor of
that scaled product, never from N: the double 1e-7 lies just below
10^-7, and under k = -7 its floor is 10^16 - 1 while N is 10^16.  N
never rounds up to 10^17 in this range (see `_decimal`).  Every other
value (zeros, subnormals, |x| <= 10^-11, |x| >= 10^17, inf and nan) is
formatted by Python: by ``'%.17g'`` in OBJ, and in JSON so too, except
that zeros and non-finite values take the tokens of ``json.dumps``
(``json.loads`` reads ``-0``, the %.17g of -0.0, as the integer 0).
"""

import json
from functools import cache
from math import isfinite

import numpy as np

# values per block, OBJ and JSON: a block's slots, masks and temporaries
# (about 3 MB) stay near a 2 MB L2 cache, and each temporary of one value
# per slot (64 KB) stays under glibc's 128 KB mmap threshold, so that a
# run reuses its heap instead of mapping fresh pages for every block
BLOCK = 1 << 13

# bytes before each value's head: its column's separator or brackets
_LEAD = 2
# no slot formatted by Python
_NONE = np.arange(0)

_U64 = np.uint64
_E16, _E17 = _U64(10 ** 16), _U64(10 ** 17)
_KMIN, _KMAX = -11, 16
_POW5 = _U64(5) ** np.arange(_KMAX - _KMIN + 1, dtype=_U64)
_POW10 = _U64(10) ** np.arange(17, dtype=_U64)

# ASCII of 0000..9999 as one uint32 per entry (its bytes in text order),
# and the place of the last nonzero digit of each as the jth of four
# groups of digits 1..16 (4 j + 1 .. 4 j + 4; 0 for 0000)
_DIGITS4 = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
_ASCII4 = np.ascontiguousarray((48 + _DIGITS4).T).view(np.uint32).ravel()
_LAST4 = np.max((_DIGITS4 > 0) * np.arange(1, 5, dtype=np.int8)[:, None], axis=0)
_LAST16 = np.where(_LAST4 > 0, _LAST4 + 4 * np.arange(4, dtype=np.int8)[:, None], 0)


def _groups(n, count):
    """The low 4 * count decimal digits of uint64 n as count groups of
    0..9999, most significant first."""
    groups = []
    for _ in range(count):
        q = n // _U64(10_000)
        groups.append(n - q * _U64(10_000))
        n = q
    return groups[::-1]


def _put_groups(chars, starts, groups):
    """Write the ASCII of digit groups at chars[:, start:start + 4 len]
    for each start."""
    outs = [chars[:, i:i + 4 * len(groups)].view(np.uint32) for i in starts]
    for j, g in enumerate(groups):
        text = np.take(_ASCII4, g)
        for out in outs:
            out[:, j] = text


def _tables(columns, head, body, keep):
    """Slot templates, prefixes and masks of rows under the row template
    columns, one (lead, tail) pair per column, and the end of the slots'
    bodies.

    A slot is _LEAD bytes, head + body and the longest tail, padded to a
    multiple of 16 bytes: numpy's take copies rows of 16 bytes 3x faster
    than 17.  keep[code] is the mask of head + body under a code in any
    column; each column also keeps its lead, right-aligned before the
    head, and its tail, just after the body.  The lead and head are stored
    right-aligned, as one prefix word per column and code, so that they
    run on into the body: each run of kept bytes costs the compress about
    as much as 40 bytes.  Slots of the ith column use rows i * len(keep)
    .. (i + 1) * len(keep) - 1 of the returned prefixes and masks."""
    ncodes = len(keep)
    stop = _LEAD + len(head) + len(body)
    width = -(-(stop + max(len(tail) for _, tail in columns)) // 16) * 16
    templates = np.full((len(columns), width), ord("_"), np.uint8)
    masks = np.zeros((len(columns), ncodes, width), bool)
    for i, (lead, tail) in enumerate(columns):
        start = _LEAD - len(lead)
        templates[i, start:stop + len(tail)] = np.frombuffer(lead + head + body + tail,
                                                             np.uint8)
        masks[i, :, start:_LEAD] = True
        masks[i, :, _LEAD:stop] = keep
        masks[i, :, stop:stop + len(tail)] = True
    masks = masks.reshape(-1, width)
    h = _LEAD + len(head)
    order = np.argsort(masks[:, :h], axis=1, kind="stable")
    heads = np.repeat(templates[:, :h], ncodes, axis=0)
    prefix = np.take_along_axis(heads, order, axis=1).view(f"u{h}").ravel()
    masks[:, :h] = np.sort(masks[:, :h], axis=1)
    for a in (templates, prefix, masks):
        a.flags.writeable = False
    return templates, prefix, masks, stop


def _obj_row(letter, ncols):
    """The row template of an OBJ row "<letter> a b ...\\n"."""
    leads = [letter + b" "] + [b" "] * (ncols - 1)
    tails = [b""] * (ncols - 1) + [b"\n"]
    return tuple(zip(leads, tails))


def _json_row(cell):
    """The row template of a JSON vertex of the given shape, as json.dumps
    writes nested lists, and one more column: the vertex's last value at
    the end of a grid row, which closes it and opens the next."""
    parts = json.dumps(np.zeros(cell).tolist()).encode().split(b"0.0")
    between = [p.split(b", ") for p in parts[1:-1]]
    leads = [parts[0]] + [after for _, after in between]
    tails = [before + b", " for before, _ in between] + [parts[-1] + b", "]
    return tuple(zip(leads, tails)) + ((leads[-1], parts[-1] + b"], ["),)


class _Slots:
    """Byte slots and masks of a block of rows of ncols values: chars
    holds the slots of a block, value by value, and mask their masks.
    Under tables of ncols + 1 columns, the last value of every group-th
    row takes the last table column."""

    def __init__(self, tables, ncols, rows, group=0):
        self.templates, self.prefix, self.masks, stop = tables
        self.ncols, self.group = ncols, group
        self.ncodes = len(self.masks) // len(self.templates)
        self.head = self.prefix.dtype.itemsize
        self.body = stop - self.head
        self.chars = np.tile(self.templates[:ncols], (rows, 1))
        self.mask = np.empty_like(self.chars, bool)
        self.col_code = np.tile(np.arange(ncols) * self.ncodes, rows)
        self.ends = np.arange(0)

    def begin(self, row, size):
        """Start a block of size values whose first row is row: the last
        slots of the rows that end a group take the last table column."""
        if not self.group:
            return
        last = self.ncols - 1
        self.chars[self.ends] = self.templates[last]
        self.col_code[self.ends] = last * self.ncodes
        self.ends = np.arange(-(row + 1) % self.group, size // self.ncols,
                              self.group) * self.ncols + last
        self.chars[self.ends] = self.templates[self.ncols]
        self.col_code[self.ends] = self.ncols * self.ncodes

    def select(self, code, index=_NONE, texts=()):
        """Set prefixes and masks of the first code.size slots by code, and
        the bodies of those at flat indices to Python's texts."""
        size = code.size
        code = code + self.col_code[:size]
        h = self.head
        self.chars[:size, :h].view(self.prefix.dtype)[:, 0] = np.take(self.prefix, code)
        np.take(self.masks, code, axis=0, out=self.mask[:size], mode="clip")
        if index.size:
            body = np.array(texts, dtype=f"S{self.body}")
            body = body.view(np.uint8).reshape(index.size, -1)
            self.chars[index, h:h + self.body] = body
            self.mask[index, h:h + self.body] = body != 0

    def text(self, size, index=_NONE):
        """The kept bytes of the first size slots; then the slots at flat
        indices get their template bytes back."""
        out = self.chars[:size][self.mask[:size]]
        self.chars[index] = self.templates[self.col_code[index] // self.ncodes]
        return out


def _blocks(values, block):
    """Rows per block (about block values, at least one row), and the
    blocks of values, each flattened, with the index of its first row."""
    per = max(1, block // values.shape[1])
    return min(per, len(values)), ((r, values[r:r + per].ravel())
                                   for r in range(0, len(values), per))


# -- floats ----------------------------------------------------------------
#
# slot: lead lead '-' '0' '.' 000 | D0 D1..D16 '.' D1..D16 'e' '-' E E | tail
# The first copy of the digits holds the integer part (k >= 0), or the
# digits after 0.000 (-4 <= k < 0), or the leading digit of d.ddde-XX
# (k < -4); the second copy holds the digits after the point.
_F_A, _F_POINT, _F_B, _F_EXP = 8, 25, 26, 42


@cache
def _float_tables(columns):
    """Tables with one mask per code ((k - KMIN) * 17 + last) * 2 + negative,
    where last is the place of the last nonzero digit of N."""
    k = np.arange(_KMIN, _KMAX + 1)[:, None, None, None]
    last = np.arange(17)[:, None, None]
    neg = np.arange(2)[:, None]
    pos = np.arange(_LEAD, _F_EXP + 4)
    fixed, small, sci = k >= 0, (k < 0) & (k >= -4), k < -4
    a = pos - _F_A          # place of the digit in the first copy
    b = pos - _F_B + 1      # place of the digit in the second copy
    keep = (((pos == 2) & (neg == 1))
            | (((pos == 3) | (pos == 4)) & small)
            | ((pos >= 5) & (pos < 4 - k) & small)
            | ((a >= 0) & (a <= 16)
               & ((fixed & (a <= k)) | (small & (a <= last)) | (sci & (a == 0))))
            | ((pos == _F_POINT) & np.where(fixed, last > k, sci & (last >= 1)))
            | ((b >= 1) & (b <= 16) & (b <= last) & ((fixed & (b > k)) | sci))
            | ((pos >= _F_EXP) & sci))
    keep = np.broadcast_to(keep, (k.size, 17, 2, pos.size)).reshape(-1, pos.size)
    body = b"0" * 17 + b"." + b"0" * 16 + b"e-00"
    return _tables(columns, b"-0.000", body, keep)


def _scaled(m, e, k):
    """floor(m 2^e 10^(16 - k)) and whether it rounds up, ties to even."""
    p = 16 - k
    f = np.take(_POW5, p)
    ml, mh = m & _U64(0xFFFFFFFF), m >> _U64(32)
    fl, fh = f & _U64(0xFFFFFFFF), f >> _U64(32)
    ll = ml * fl
    mid = ml * fh + mh * fl          # < 2^63 + 2^53: mh < 2^21, fh < 2^31
    lo = ll + (mid << _U64(32))
    hi = mh * fh + (mid >> _U64(32)) + (lo < ll)
    t = e + p
    s = np.maximum(-t, 0).astype(_U64)
    # a 128-bit shift right by s <= 63: hi << 64 is 0 when s is 0
    floor = ((hi << (_U64(63) - s)) << _U64(1)) | (lo >> s)
    if t.max() > 0:  # only from about 4.5e15 on
        floor <<= np.maximum(t, 0).astype(_U64)
    # the s bits shifted out are rem / 2^s, which rounds up past one half
    # and, at one half, to an even floor: 2 rem + odd > 2^s
    one = _U64(1) << s
    rem = lo & (one - _U64(1))
    return floor, (rem << _U64(1)) + (floor & _U64(1)) > one


def _decimal(x):
    """N and k of finite normal x with 10^-11 < x < 10^17: %.17g prints
    the 17 digits of N with decimal exponent k."""
    bits = x.view(_U64)
    e = (bits >> _U64(52)).astype(np.int64) - 1075
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    k = np.floor(np.log10(x)).astype(np.int64)
    np.clip(k, _KMIN, _KMAX, out=k)
    floor, up = _scaled(m, e, k)
    # log10 can be one off next to a power of ten
    bad = np.flatnonzero((floor < _E16) | (floor >= _E17))
    while bad.size:
        k[bad] += np.where(floor[bad] < _E16, -1, 1)
        floor[bad], up[bad] = _scaled(m[bad], e[bad], k[bad])
        bad = bad[(floor[bad] < _E16) | (floor[bad] >= _E17)]
    # N = floor + up < 10^17: only x within 5e-18 (relative) below a power
    # of ten would round up to the next one, and no double in range is
    return floor + up, k


def _float_text(values, columns, block, python, group=0):
    """Yield the text of the rows of a 2-D float array under the row
    template columns, a block of about block values at a time; values
    outside 10^-11 < |x| < 10^17 take python(x)."""
    rows, blocks = _blocks(values, block)
    slots = _Slots(_float_tables(columns), values.shape[1], rows, group)
    for row, x in blocks:
        slots.begin(row, x.size)
        ax = np.abs(x)
        fast = (ax > 1e-11) & (ax < 1e17)
        n, k = _decimal(np.where(fast, ax, 1.0))
        lead = n // _E16
        groups = _groups(n - lead * _E16, 4)
        last = np.take(_LAST16[0], groups[0])
        for j in range(1, 4):
            np.maximum(last, np.take(_LAST16[j], groups[j]), out=last)
        chars = slots.chars[:x.size]
        chars[:, _F_A] = 48 + lead
        # the fraction of d.ddd and of d.ddde-XX
        after_point = (k.max() >= 0) | (k.min() < -4)
        _put_groups(chars, (_F_A + 1, _F_B) if after_point else (_F_A + 1,), groups)
        sci = np.flatnonzero(k < -4)
        chars[sci, _F_EXP + 2] = 48 + -k[sci] // 10
        chars[sci, _F_EXP + 3] = 48 + -k[sci] % 10
        other = np.flatnonzero(~fast)
        slots.select(((k - _KMIN) * 17 + last) * 2 + (np.signbit(x) & fast),
                     other, [python(v) for v in x[other].tolist()])
        yield slots.text(x.size, other)


def float_rows(values):
    """Yield the bytes of ``"v %.17g %.17g ...\\n" % tuple(row)`` for the
    rows of a 2-D float array, a block of about BLOCK values at a time."""
    values = np.asarray(values, dtype=np.float64)
    return _float_text(values, _obj_row(b"v", values.shape[1]), BLOCK,
                       b"%.17g".__mod__)


def _json_float(x):
    """JSON of a float that `_float_text` leaves to Python."""
    return b"%.17g" % x if x and isfinite(x) else json.dumps(x).encode()


def json_array(values):
    """Yield the bytes of ``json.dumps(values.tolist())`` for a float
    array of 2 to 4 dimensions, each float as ``'%.17g'`` but zeros and
    non-finite values as json.dumps writes them, a block of about BLOCK
    values at a time.  json.loads reads every float back bit-exactly."""
    values = np.asarray(values, dtype=np.float64)
    if not 2 <= values.ndim <= 4:
        raise ValueError(f"cannot write a {values.ndim}-D array as JSON rows")
    if not values.size:
        yield json.dumps(values.tolist()).encode()
        return
    n, m, *cell = values.shape
    text = b"[["
    for block in _float_text(values.reshape(n * m, -1), _json_row(cell),
                             BLOCK, _json_float, group=m):
        yield text
        text = block
    yield text[:-len(b", [")]      # the last grid row opens no next one
    yield b"]"


# -- face indices ----------------------------------------------------------
#
# slot: lead lead | D..D | tail, the digits of a one-based vertex index
# 0 < i < 10^w left-aligned in a body of w <= 16 places


@cache
def _index_tables(w):
    """Tables of the OBJ row "f a b c d" with one mask per code digits - 1,
    for bodies of w digits."""
    pos = np.arange(_LEAD, _LEAD + w)
    keep = pos < _LEAD + np.arange(1, w + 1)[:, None]
    return _tables(_obj_row(b"f", 4), b"", b"0" * w, keep)


def _index_text(chars, first, w):
    """Write the indices first, first + 1, ... (below 10^w) left-aligned
    in the bodies of the rows of chars, one index a row; return their
    codes, the number of digits less one."""
    i = np.arange(first, first + len(chars), dtype=_U64)
    digits = np.searchsorted(_POW10, i, side="right")
    i *= np.take(_POW10, w - digits)
    _put_groups(chars, (_LEAD,), _groups(i, w // 4))
    return digits - 1


def face_rows(n, m):
    """Yield the bytes of ``"f %d %d %d %d\\n"`` rows of the one-based
    vertex indices of the quads of an n x m grid (n m < 10^16), in the
    order of `ImmersionMesh.quads`, a block of grid rows of about BLOCK
    values at a time.  Each block writes the text of the indices of its
    vertex rows once and gathers four slots per quad."""
    if n < 2 or m < 2:
        return
    w = 4 * -(-len(str(n * m)) // 4)
    per = min(max(1, BLOCK // (4 * (m - 1))), n - 1)
    first = np.arange(per)[:, None] * m + np.arange(m - 1)
    corners = np.stack([first, first + m, first + m + 1, first + 1], axis=-1).ravel()
    slots = _Slots(_index_tables(w), 4, per * (m - 1))
    # a slot per vertex of a block's rows; its tail, the newline, is kept
    # only where the vertex is the last corner of a quad
    vertex = np.tile(slots.templates[3], ((per + 1) * m, 1))
    for start in range(0, n - 1, per):
        rows = min(per, n - 1 - start)
        size = 4 * (m - 1) * rows
        code = _index_text(vertex[:(rows + 1) * m], start * m + 1, w)
        np.take(vertex, corners[:size], axis=0, out=slots.chars[:size], mode="clip")
        slots.select(np.take(code, corners[:size]))
        yield slots.text(size)
