"""OBJ and JSON text in numpy: exactly the bytes of CPython's
``"v %.17g %.17g %.17g\\n"`` and ``"f %d %d %d %d\\n"`` rows, and the
nested lists of ``json.dumps`` with its floats written as ``'%.17g'``, a
block of values at a time.

Floats are rows of values under a row template: a lead written before
each column's value and a tail after it.  The OBJ row is "v" and " "
separators, then "\\n"; a JSON row is one vertex, "[[re, im], ...], ",
and the last value of each grid row takes one more table column, whose
tail closes the grid row and opens the next.  Each value gets a
fixed-width slot of ASCII bytes that holds, in order, its column's lead,
every character any of its layouts can use, and its column's tail.  A
boolean mask per slot, looked up in a table by a small code (column,
layout, sign), keeps the characters of the value's text, and one boolean
compress per block turns the slots into the text of its rows.

numpy formats the doubles 10^-6 <= |x| < 10^17.  With k = floor(log10
|x|) in [-6, 16], the 17 significant digits are N = round(|x| 10^p),
p = 16 - k, ties to even.  10^p = 5^p 2^p is an exact double for
p <= 22 (5^22 < 2^53), so Dekker's two-product (Numer. Math. 18, 1971)
gives |x| 10^p = hi + lo exactly, and from hi >= 2^53, an integer, N is
hi + rint(lo).  k comes from the floor of that product, never from N:
under a k one too large, a double less than 5e-17 (relative) below a
power of ten would round up to N = 10^16, as the double 1e-6 does under
k = -6.  N never rounds up to 10^17 in this range (see `_decimal`).
Every other value (|x| < 10^-6, which takes in the double 1e-6,
subnormals and zeros, |x| >= 10^17, inf and nan) is formatted by Python,
one value at a time: by ``'%.17g'`` in OBJ, and in JSON so too, except
that zeros and non-finite values take the tokens of ``json.dumps``
(``json.loads`` reads ``-0``, the %.17g of -0.0, as the integer 0).
Values below 10^-6 are rare in a mesh: the workloads' meshes hold at
most a few dozen.

The "f" rows are the quads of a grid.  Between two quads at which some
corner's one-based index reaches a power of ten, every row has the same
width, and such a run is written as a table of fixed-width rows: the
digits of each vertex index are written once per block of grid rows,
and each corner copies a slice of them.
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

_U64 = np.uint64
_E16 = _U64(10 ** 16)
# the decimal exponents k of the values numpy formats, 10^-6 <= |x| < 10^17,
# and the least of those values: the double 1e-6 lies below 10^-6
_KMIN, _KMAX = -6, 16
_XMIN = np.nextafter(1e-6, 1.0)

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

    def select(self, code, index, texts):
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

    def text(self, size, index):
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


def _split(a):
    """Veltkamp's split of doubles a = hi + lo, each half of at most 26
    significant bits, so that products of halves are exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10^p for p = 16 - k, each an exact double (5^22 < 2^53), and its halves
_POW10 = np.array([float(10 ** p) for p in range(_KMAX - _KMIN + 1)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(x, xh, xl, k):
    """floor(x 10^(16 - k)) and its value rounded half to even, as int64,
    from the exact product x 10^(16 - k) = hi + lo (Dekker's two-product
    of x = xh + xl and 10^(16 - k))."""
    p = 16 - k
    fh, fl = np.take(_POW10_HI, p), np.take(_POW10_LO, p)
    hi = x * np.take(_POW10, p)
    lo = xh * fh - hi + xh * fl + xl * fh + xl * fl
    # hi is an integer at and above 2^53 < 10^16, so the floor and the
    # rounding of hi + lo are those of lo added to hi; below 2^53, where
    # k is too large, int64(hi) + floor(lo) is at most hi + lo < 10^16
    whole = hi.astype(np.int64)
    return (whole + np.floor(lo).astype(np.int64),
            whole + np.rint(lo).astype(np.int64))


def _decimal(x):
    """N and k of doubles 10^-6 <= x < 10^17: %.17g prints the 17 digits
    of N with decimal exponent k.  Smaller values are Python's to format:
    for them 10^p, p > 22, is no exact double, and one two-product is not
    enough."""
    k = np.floor(np.log10(x)).astype(np.int64)
    np.clip(k, _KMIN, _KMAX, out=k)
    xh, xl = _split(x)
    floor, n = _scaled(x, xh, xl, k)
    # log10 can be one off next to a power of ten; k stays in [KMIN, KMAX]
    # as it moves toward the exponent of x, which lies there
    bad = np.flatnonzero((floor < 10 ** 16) | (floor >= 10 ** 17))
    while bad.size:
        k[bad] += np.where(floor[bad] < 10 ** 16, -1, 1)
        floor[bad], n[bad] = _scaled(x[bad], xh[bad], xl[bad], k[bad])
        bad = bad[(floor[bad] < 10 ** 16) | (floor[bad] >= 10 ** 17)]
    # N < 10^17: only x within 5e-18 (relative) below a power of ten would
    # round up to the next one, and no double in range is
    return n.astype(_U64), k


def _float_text(values, columns, block, python, group=0):
    """Yield the text of the rows of a 2-D float array under the row
    template columns, a block of about block values at a time; values
    outside 10^-6 <= |x| < 10^17 take python(x)."""
    rows, blocks = _blocks(values, block)
    slots = _Slots(_float_tables(columns), values.shape[1], rows, group)
    for row, x in blocks:
        slots.begin(row, x.size)
        ax = np.abs(x)
        fast = (ax >= _XMIN) & (ax < 1e17)
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
# The "f a b c d" rows of the quads of a grid, whose one-based corner
# indices a, a + m, a + m + 1 and a + 1 all grow with the quad: between two
# quads at which a corner's index reaches a power of ten, every row has the
# same width, and the digits of each corner are a slice of the digits of
# the vertex indices of the grid rows next to it.

# the (row, column) offsets of the corners of the quad at a vertex, in
# the order of `ImmersionMesh.quads`
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _digits(i, count):
    """The low 4 * count decimal digits of each uint64 in i, as a row of
    4 * count ASCII bytes: right-aligned, with leading zeros."""
    text = np.empty((len(i), 4 * count), np.uint8)
    _put_groups(text, (0,), _groups(i, count))
    return text


def _face_cuts(n, m):
    """The quads of an n x m grid, in order, at which some corner's
    one-based index first reaches a power of ten, between 0 and the
    number of quads."""
    quads = (n - 1) * (m - 1)
    cuts = {0, quads}
    for j in range(1, len(str(n * m))):
        for di, dk in _CORNERS:
            # the corner of the quad at vertex v is 10^j when v is this
            v = 10 ** j - 1 - di * m - dk
            # the first quad at a vertex >= v: v - v // m skips the vertex
            # of column m - 1 in each row before it
            cuts.add(min(max(v - v // m, 0), quads))
    return sorted(cuts)


def _rectangles(q0, q1, width):
    """The quads q0..q1 - 1 of a grid of width quads a row as rectangles
    (rows i0..i1 - 1, columns k0..k1 - 1): whole rows, and the parts of
    rows before and after them."""
    while q0 < q1:
        i, k = divmod(q0, width)
        rows = 0 if k else (q1 - q0) // width
        if rows:
            yield i, i + rows, 0, width
            q0 += rows * width
        else:
            k1 = min(width, k + q1 - q0)
            yield i, i + 1, k, k1
            q0 += k1 - k


def face_rows(n, m):
    """Yield the bytes of ``"f %d %d %d %d\\n"`` rows of the one-based
    vertex indices of the quads of an n x m grid (n m < 10^16), in the
    order of `ImmersionMesh.quads`, a block of grid rows of about BLOCK
    values at a time.  Each block writes the digits of the indices of its
    vertex rows once (`_digits`), and each run of its quads between two
    `_face_cuts` as a table of fixed-width rows, whose corners copy
    slices of those digits."""
    if n < 2 or m < 2:
        return
    count = -(-len(str(n * m)) // 4)
    per = min(max(1, BLOCK // (4 * (m - 1))), n - 1)
    cuts = _face_cuts(n, m)
    for start in range(0, n - 1, per):
        stop = min(start + per, n - 1)
        i = np.arange(start * m + 1, (stop + 1) * m + 1, dtype=_U64)
        digits = _digits(i, count).reshape(stop + 1 - start, m, -1)
        lo, hi = start * (m - 1), stop * (m - 1)
        bounds = [lo] + [q for q in cuts if lo < q < hi] + [hi]
        for q0, q1 in zip(bounds[:-1], bounds[1:]):
            # the widths of the corners of quad q0 hold for the run
            a = q0 + q0 // (m - 1) + 1
            widths = [len(str(a + di * m + dk)) for di, dk in _CORNERS]
            row = b"f " + b" ".join(b"0" * w for w in widths) + b"\n"
            for i0, i1, k0, k1 in _rectangles(q0 - lo, q1 - lo, m - 1):
                text = np.empty((i1 - i0, k1 - k0, len(row)), np.uint8)
                text[...] = np.frombuffer(row, np.uint8)
                at = 2
                for (di, dk), w in zip(_CORNERS, widths):
                    # one void item of w bytes a corner copies fastest
                    text[..., at:at + w].view(f"V{w}")[...] = (
                        digits[i0 + di:i1 + di, k0 + dk:k1 + dk, -w:].view(f"V{w}"))
                    at += w + 1
                yield text.reshape(-1)
