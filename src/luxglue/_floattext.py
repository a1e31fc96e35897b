"""CSV rows of numbers, each float64 written as the exact bytes of its repr.

CPython's repr of a float is the shortest decimal that reads back to the same
bits, laid out by fixed rules.  repr runs a bignum algorithm one float at a
time; here a whole column is decided with fixed-width arithmetic instead, and
every cell that arithmetic cannot decide for certain goes through repr
itself, so the bytes are repr's in every case.  docs/DECISIONS.md section 10
holds the argument.

For a finite normal float x that is not a power of two, let s = |x| 10^k be
|x| scaled into [1e16, 1e17).  The decimals that read back to x lie in the
open interval of half-width ulp(x)/2 around x, `half` once scaled.  The
shortest of them has 17 - j digits for the largest j such that the nearest
multiple of 10^j to s lies in that interval, and it is that multiple.  s is
computed as a sum of two float64s with an error below 6e-15, so a comparison
is trusted only outside a MARGIN of 2^-40 around its threshold.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple, Sequence

import numpy as np

MARGIN = 2.0**-40  # > 3.1e-14, the error of a distance to the interval's end
_GUARD = 32.0  # > 19 + half + MARGIN: s this close to 1e16 or 1e17 goes to repr
_MANT = np.uint64(2**52 - 1)
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: y C splits y into two 26-bit halves
_K_LO, _K_HI = -293, 325  # the scale exponents k that normal floats reach
_ROWS = 2048  # rows compacted at a time, so that the byte mask stays small

# Where each character of a float's text may go: one position for each
# character that some layout puts there, in the order repr writes them.  A
# cell's text is its layout's positions, each filled or left NUL; the NULs
# vanish when the rows are compacted.
_SIGN, _INT, _ZINT, _POINT, _LZ, _FRAC, _TZ, _EXP, _WIDTH = 0, 1, 18, 19, 20, 23, 40, 41, 46
_SLOTS = ((_SIGN, _INT), (_INT, _ZINT), (_ZINT, _POINT), (_POINT, _LZ), (_LZ, _FRAC),
          (_FRAC, _TZ), (_TZ, _EXP), (_EXP, _WIDTH))
# A layout is (sign, class, digit count nd).  The class is decpt + 3 for the
# fixed notation (-3 <= decpt <= 16), and 20 or 21 for the scientific one
# with a two- or a three-digit exponent.
_CLASSES = 22


class _Tables(NamedTuple):
    """10^k = 2^twos (hi + lo) for _K_LO <= k <= _K_HI, with hi + lo in [1, 2]
    within 2^-105 of its exact value and hi split as hi_hi + hi_lo, two
    26-bit halves; 10^j as int64 for j <= 16; the ASCII digit quads "0000"
    to "9999" as uint32; and each layout's 0/255 byte mask over the _WIDTH
    positions."""
    twos: np.ndarray
    hi: np.ndarray
    hi_hi: np.ndarray
    hi_lo: np.ndarray
    lo: np.ndarray
    pow10: np.ndarray
    quads: np.ndarray
    masks: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """Built on the first table write, not on import."""
    twos, his, los = [], [], []
    for k in range(_K_LO, _K_HI + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        t = num.bit_length() - den.bit_length()  # 2^t <= 10^k < 2^(t+1)
        if num << max(-t, 0) < den << max(t, 0):
            t -= 1
        shift = 127 - t
        top = (num << shift) // den if shift >= 0 else num // (den << -shift)  # 128 bits
        hi = float(top)
        twos.append(t)
        his.append(hi / 2.0**127)
        los.append(float(top - int(hi)) / 2.0**127)
    hi = np.array(his)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digits, digits, digits, digits, indexing="ij"), axis=-1)

    neg = np.arange(2)[:, None, None]
    cls = np.arange(_CLASSES)[None, :, None]
    nd = np.arange(1, 18)[None, None, :]
    decpt, sci = cls - 3, cls >= 20
    lead = np.where(sci, 1, np.maximum(decpt, 0))  # digits before the point
    i = np.arange(17)
    masks = np.zeros((2, _CLASSES, 17, _WIDTH), bool)
    masks[..., _SIGN] = neg
    masks[..., _INT:_ZINT] = i < lead[..., None]
    masks[..., _ZINT] = ~sci & (decpt <= 0)  # 0.000ddd
    masks[..., _POINT] = ~(sci & (nd == 1))  # 1e+16 has no point
    masks[..., _LZ:_FRAC] = ~sci[..., None] & (np.arange(3) < -decpt[..., None])
    masks[..., _FRAC:_TZ] = (lead[..., None] <= i) & (i < nd[..., None])
    masks[..., _TZ] = ~sci & (decpt >= nd)  # ddd00.0
    masks[..., _EXP:] = sci[..., None]
    masks[..., _EXP + 2] = cls == 21  # the exponent's hundreds digit
    return _Tables(np.array(twos, np.int32), hi, hi_hi, hi - hi_hi, np.array(los),
                   10 ** np.arange(17, dtype=np.int64), quads.view(np.uint32).ravel(),
                   masks.reshape(-1, _WIDTH) * np.uint8(255))


def _scale(x: np.ndarray, k: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """x 10^k as p + lo, two float64s, to within 6e-15 where it is near 1e16
    to 1e17: y = x 2^twos exactly, y hi exactly by Dekker's product, and y lo
    rounded."""
    i = k - _K_LO
    y = np.ldexp(x, t.twos[i])
    c = y * _SPLIT
    y_hi = c - (c - y)
    y_lo = y - y_hi
    hi, hi_hi, hi_lo = t.hi[i], t.hi_hi[i], t.hi_lo[i]
    p = y * hi
    err = (((y_hi * hi_hi - p) + y_hi * hi_lo) + y_lo * hi_hi) + y_lo * hi_lo  # y hi - p
    return p, err + y * t.lo[i]


def _shortest(x: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each cell of x, the shortest digits that read back to it as r, a
    17-digit integer (the digits, then zeros), their count nd and decpt (the
    value is 0.digits 10^decpt); and the mask of cells these are certain for.
    The other cells hold placeholders and go to repr."""
    a = np.abs(x)
    mant = x.view(np.uint64) & _MANT
    # not 0, inf, nan, a subnormal or a power of two
    fast = (a >= np.finfo(np.float64).tiny) & (a < np.inf) & (mant != 0)
    xs = np.where(fast, a, 1.5)
    # log10 guesses the decade; s itself, not log10's last bits, settles it
    k = 16 - np.floor(np.log10(xs)).astype(np.int64)
    p, lo = _scale(xs, k, t)
    off = np.flatnonzero((p < 1e16) | (p >= 1e17))
    if off.size:
        k[off] += np.where(p[off] < 1e16, 1, -1)
        p[off], lo[off] = _scale(xs[off], k[off], t)
    fast &= (p >= 1e16 + _GUARD) & (p <= 1e17 - _GUARD)
    half = p * 0.5 / (mant | np.uint64(2**52))
    lo_floor = np.floor(lo)
    big = p.astype(np.int64) + lo_floor.astype(np.int64)  # p is an integer here
    frac = lo - lo_floor  # exact: s = big + frac
    # j = 0 always works: the nearest integer is within 0.5 + 3.1e-14 of s,
    # and half >= 1e16 2^-54 > 0.55.  Each pass keeps the cells whose nearest
    # multiple of 10^j lies inside the interval by more than MARGIN and drops
    # those outside it by more; a cell within MARGIN goes to repr.  The first
    # pass runs on every cell, the others on the cells still in.
    live = slice(None)
    j_best = np.zeros(x.size, np.int64)
    for j in range(1, 17):
        b = big[live]
        m = b - b // t.pow10[j] * t.pow10[j]
        f = frac[live]
        # distances to the multiples below and above s; D - m is exact in int64
        d = np.minimum(m + f, (t.pow10[j] - m) - f) - half[live]
        close = np.abs(d) <= MARGIN
        if j == 1:
            fast &= ~close
            live = np.flatnonzero(fast & (d < 0))
        else:
            fast[live[close]] = False
            live = live[(d < 0) & ~close]
        if live.size == 0:
            break
        j_best[live] = j
    step = t.pow10[j_best]
    m = big % step
    below, above = m + frac, (step - m) - frac
    fast &= np.abs(below - above) > 2 * MARGIN  # not a near tie between the two
    r = big - m + np.where(above < below, step, 0)
    # ±0.0 is the one digit 0 at decpt 1, which the layout table writes as 0.0
    zero = np.flatnonzero(a == 0)
    r[zero], j_best[zero], k[zero], fast[zero] = 0, 16, 16, True
    return r, 17 - j_best, 17 - k, fast


def _repr_bytes(values: list) -> np.ndarray:
    """The repr bytes of each value, one NUL-padded row each."""
    text = np.array([repr(v) for v in values], dtype=np.bytes_)
    return text.view(np.uint8).reshape(len(values), text.itemsize)


class _FloatColumn:
    """A float64 column's texts: each cell's digits and layout, and the cells
    left to repr.  render writes them into a byte matrix of `width` columns."""

    def __init__(self, x: np.ndarray) -> None:
        tables = _tables()
        r, nd, decpt, fast = _shortest(x, tables)
        sci = (decpt <= -4) | (decpt > 16)  # CPython's rule for repr
        cls = np.where(sci, 20 + (np.abs(decpt - 1) >= 100), decpt + 3)
        self.layout = (np.signbit(x) * _CLASSES + cls) * 17 + nd - 1
        self.r, self.decpt = r, decpt.astype(np.int16)
        self.rest = np.flatnonzero(~fast)
        self.text = _repr_bytes(x[self.rest].tolist())
        masks = tables.masks
        used = masks[np.bincount(self.layout[fast], minlength=len(masks)) > 0].any(axis=0)
        # each slot's used positions, as one run from the first to the last
        self.runs = []
        for start, stop in _SLOTS:
            at = start + np.flatnonzero(used[start:stop])
            if at.size:
                self.runs.append((int(at[0]), int(at[-1]) + 1))
        self.width = max(sum(b - a for a, b in self.runs), self.text.shape[1])

    def render(self, out: np.ndarray) -> None:
        quads, masks = _tables().quads, _tables().masks
        n = len(out)
        buf = np.empty((n, 20), np.uint8)  # 3 spare bytes, then r's 17 ASCII digits
        four, r = buf.view(np.uint32), self.r
        for i in range(4, 0, -1):
            q = r // 10000
            four[:, i] = quads.take(r - q * 10000)
            r = q
        buf[:, 3] = r + ord("0")
        digits = buf[:, 3:]
        at, cols = 0, []
        for a, b in self.runs:
            dst = out[:, at:at + b - a]
            if a >= _EXP:
                e = np.abs(self.decpt - 1)
                exp = np.empty((n, 5), np.uint8)
                exp[:, 0] = ord("e")
                exp[:, 1] = np.where(self.decpt > 1, ord("+"), ord("-"))
                exp[:, 2:] = quads.take(e).view(np.uint8).reshape(n, 4)[:, 1:]
                dst[:] = exp[:, a - _EXP:b - _EXP]
            elif _INT <= a < _ZINT:
                dst[:] = digits[:, a - _INT:b - _INT]
            elif _FRAC <= a < _TZ:
                dst[:] = digits[:, a - _FRAC:b - _FRAC]
            else:
                dst[:] = ord("-") if a == _SIGN else ord(".") if a == _POINT else ord("0")
            cols += range(a, b)
            at += b - a
        out[:, :at] &= masks[:, cols].take(self.layout, axis=0)
        if self.rest.size:
            out[self.rest] = 0
            out[self.rest, :self.text.shape[1]] = self.text


class _TextColumn:
    """Any other column: each value's repr."""

    def __init__(self, values: np.ndarray) -> None:
        self.text = _repr_bytes(values.tolist())
        self.width = self.text.shape[1]

    def render(self, out: np.ndarray) -> None:
        out[:] = self.text


def csv_rows(columns: Sequence) -> Iterator[np.ndarray]:
    """The bytes of the rows of columns (numpy arrays or lists of numbers, of
    one length), as csv.writer writes them: fields joined by commas, each
    row ended by CRLF, in runs of _ROWS rows.  A float64 column's fields are
    the bytes of each float's repr, made as the module docstring says; any
    other column's are each value's repr."""
    columns = [np.asarray(c) for c in columns]
    plan = [_FloatColumn(np.ascontiguousarray(c)) if c.dtype == np.float64 else _TextColumn(c)
            for c in columns]
    n = len(columns[0])
    rows = np.zeros((n, sum(c.width + 1 for c in plan) + 1), np.uint8)
    at = 0
    for c in plan:
        c.render(rows[:, at:at + c.width])
        rows[:, at + c.width] = ord(",")
        at += c.width + 1
    rows[:, at - 1:] = np.frombuffer(b"\r\n", np.uint8)
    del plan
    for start in range(0, n, _ROWS):
        part = rows[start:start + _ROWS]
        yield part[part != 0]
