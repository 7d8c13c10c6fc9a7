"""OBJ text in numpy: exactly the bytes of CPython's
``"v %.17g %.17g %.17g\\n"`` and ``"f %d %d %d %d\\n"`` rows, a block of
rows at a time.

Each value gets a fixed-width slot of ASCII bytes that holds, in order,
every character any of its layouts can use.  A boolean mask per slot,
looked up in a table by a small code (layout, sign, column), keeps the
characters of the value's text, and one boolean compress per block turns
the slots into the text of its rows.

%.17g of a finite normal x with 10^-11 < |x| < 10^17 is integer work.
With x = m 2^e (m < 2^53) and k = floor(log10 |x|) in [-11, 16], the 17
significant digits are N = round(|x| 10^(16 - k)), ties to even, and
m 5^(16 - k) < 2^116 is a 128-bit product of 32-bit limbs, which a shift
of at most 63 bits scales by 2^(e + 16 - k).  k comes from the floor of
that scaled product, never from N: the double 1e-7 lies just below
10^-7, and under k = -7 its floor is 10^16 - 1 while N is 10^16.  N
never rounds up to 10^17 in this range (see `_decimal`).  Every other
value (zeros, subnormals, |x| <= 10^-11, |x| >= 10^17, inf and nan) is
formatted by Python's ``'%.17g'``; so is every integer of 17 digits or
more by ``'%d'``.
"""

from functools import cache

import numpy as np

# values per block: the temporaries of a block stay within about 12 MB
BLOCK = 1 << 15

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


def _tables(head, body, keep, ncols):
    """Slot templates, prefixes and masks of rows of ncols values.

    A slot is head + body + one byte.  keep[code] is the mask of a code in
    any column; the first column also keeps byte 0 (the row's letter) and
    the last column its last byte, the row's newline, where the others hold
    a space.  The head (separator, sign, ...) is stored right-aligned, as
    one prefix word per column and code, so that it runs on into the body:
    each run of kept bytes costs the compress about as much as 40 bytes.
    Slots of the ith column use rows i, ncols + i, ... of the returned
    prefixes and masks."""
    width = len(head) + len(body) + 1
    templates = np.tile(np.frombuffer(head + body + b" ", np.uint8), (ncols, 1))
    templates[1:, 0] = ord(" ")
    templates[-1, -1] = ord("\n")
    masks = np.repeat(np.reshape(keep, (1, -1, width)), ncols, axis=0)
    masks[0, :, 0] = True
    masks[-1, :, -1] = True
    masks = masks.reshape(-1, width)
    h = len(head)
    order = np.argsort(masks[:, :h], axis=1, kind="stable")
    heads = np.repeat(templates[:, :h], len(masks) // ncols, axis=0)
    prefix = np.take_along_axis(heads, order, axis=1).view(f"u{h}").ravel()
    masks[:, :h] = np.sort(masks[:, :h], axis=1)
    for a in (templates, prefix, masks):
        a.flags.writeable = False
    return templates, prefix, masks


class _Slots:
    """Byte slots and masks of a block of rows of ncols values: chars
    holds the slots of a block, value by value, and mask their masks."""

    def __init__(self, tables, rows):
        self.templates, self.prefix, self.masks = tables
        self.ncols = len(self.templates)
        self.head = self.prefix.dtype.itemsize
        self.chars = np.tile(self.templates, (rows, 1))
        self.mask = np.empty_like(self.chars, bool)
        self.col_code = np.tile(np.arange(self.ncols) * (len(self.masks) // self.ncols),
                                rows)

    def select(self, code, index, texts):
        """Set prefixes and masks of the first code.size slots by code, and
        the bodies of those at flat indices to Python's texts."""
        size = code.size
        code = code + self.col_code[:size]
        h = self.head
        self.chars[:size, :h].view(self.prefix.dtype)[:, 0] = np.take(self.prefix, code)
        np.take(self.masks, code, axis=0, out=self.mask[:size], mode="clip")
        if index.size:
            body = np.array(texts, dtype=f"S{self.chars.shape[1] - h - 1}")
            body = body.view(np.uint8).reshape(index.size, -1)
            self.chars[index, h:-1] = body
            self.mask[index, h:-1] = body != 0

    def text(self, size, index):
        """The kept bytes of the first size slots; then the slots at flat
        indices get their template bytes back."""
        out = self.chars[:size][self.mask[:size]]
        self.chars[index] = self.templates[index % self.ncols]
        return out


def _blocks(values):
    """Rows per block (about 2^15 values, at least one row), and the
    blocks of values, each flattened."""
    per = max(1, BLOCK // values.shape[1])
    return min(per, len(values)), (values[r:r + per].ravel()
                                   for r in range(0, len(values), per))


# -- floats ----------------------------------------------------------------
#
# slot: 'v' ' ' '-' '0' '.' 000 | D0 D1..D16 '.' D1..D16 'e' '-' E E _ nl
# The first copy of the digits holds the integer part (k >= 0), or the
# digits after 0.000 (-4 <= k < 0), or the leading digit of d.ddde-XX
# (k < -4); the second copy holds the digits after the point.
_F_A, _F_POINT, _F_B, _F_EXP = 8, 25, 26, 42


@cache
def _float_tables(ncols):
    """Tables with one mask per code ((k - KMIN) * 17 + last) * 2 + negative,
    where last is the place of the last nonzero digit of N."""
    k = np.arange(_KMIN, _KMAX + 1)[:, None, None, None]
    last = np.arange(17)[:, None, None]
    neg = np.arange(2)[:, None]
    pos = np.arange(48)
    fixed, small, sci = k >= 0, (k < 0) & (k >= -4), k < -4
    a = pos - _F_A          # place of the digit in the first copy
    b = pos - _F_B + 1      # place of the digit in the second copy
    keep = ((pos == 1)
            | ((pos == 2) & (neg == 1))
            | (((pos == 3) | (pos == 4)) & small)
            | ((pos >= 5) & (pos < 4 - k) & small)
            | ((a >= 0) & (a <= 16)
               & ((fixed & (a <= k)) | (small & (a <= last)) | (sci & (a == 0))))
            | ((pos == _F_POINT) & np.where(fixed, last > k, sci & (last >= 1)))
            | ((b >= 1) & (b <= 16) & (b <= last) & ((fixed & (b > k)) | sci))
            | ((pos >= _F_EXP) & (pos < _F_EXP + 4) & sci))
    keep = np.broadcast_to(keep, (k.size, 17, 2, pos.size))
    body = b"0" * 17 + b"." + b"0" * 16 + b"e-00_"
    return _tables(b"v -0.000", body, keep, ncols)


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


def float_rows(values):
    """Yield the bytes of ``"v %.17g %.17g ...\\n" % tuple(row)`` for the
    rows of a 2-D float array, a block of about 2^15 values at a time."""
    values = np.asarray(values, dtype=np.float64)
    rows, blocks = _blocks(values)
    slots = _Slots(_float_tables(values.shape[1]), rows)
    for x in blocks:
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
                     other, [b"%.17g" % v for v in x[other].tolist()])
        yield slots.text(x.size, other)


# -- integers --------------------------------------------------------------
#
# slot: 'f' ' ' '-' _ | D..D __ nl, the digits of |i| < 10^w left-aligned
# in the first w <= 16 places of the body; wider values are formatted by
# Python into the whole body


@cache
def _int_tables(ncols, w, width):
    """Tables with one mask per code (digits - 1) * 2 + negative, for
    bodies of width bytes; the slot takes 16 bytes at w = 8."""
    pos = np.arange(4 + width + 1)
    digits = np.arange(1, w + 1)[:, None, None]
    neg = np.arange(2)[:, None]
    keep = ((pos == 1) | ((pos == 2) & (neg == 1))
            | ((pos >= 4) & (pos < 4 + digits)))
    keep = np.broadcast_to(keep, (w, 2, pos.size))
    return _tables(b"f -_", b"0" * w + b"_" * (width - w), keep, ncols)


def int_rows(values):
    """Yield the bytes of ``"f %d %d ...\\n" % tuple(row)`` for the rows of
    a 2-D int64 array, a block of about 2^15 values at a time."""
    values = np.asarray(values, dtype=np.int64)
    widest = max(int(values.max(initial=0)), -int(values.min(initial=0)))
    w = min(16, 4 * -(-len(str(widest)) // 4))
    # room for Python's text of any value, in a slot of 4 + width + 1 =
    # 16 j bytes: numpy's take copies rows of 16 bytes 3x faster than 17
    width = max(w, len(str(-widest)))
    width += (11 - width) % 16
    rows, blocks = _blocks(values)
    slots = _Slots(_int_tables(values.shape[1], w, width), rows)
    for i in blocks:
        n = np.abs(i).astype(_U64)   # |-2^63| wraps to 2^63, as wanted
        fast = n < _POW10[w]
        n[~fast] = 0
        digits = np.ones(i.size, np.int64)
        for p in _POW10[1:w]:
            digits += n >= p
        n *= np.take(_POW10, w - digits)
        _put_groups(slots.chars[:i.size], (4,), _groups(n, w // 4))
        other = np.flatnonzero(~fast)
        slots.select((digits - 1) * 2 + ((i < 0) & fast),
                     other, [b"%d" % v for v in i[other].tolist()])
        yield slots.text(i.size, other)
