"""Byte-exact ``"%.17g"`` text for blocks of float rows, computed in numpy.

``format_rows(table)`` returns the bytes of
``"".join(",".join("%.17g" % x for x in row) + "\\n" for row in table)``.

For a finite x with 1e-280 <= |x| <= 1e280 the 17 significant digits are
N = round(|x| 10^(16-k)), k = floor(log10|x|).  The product is formed in
double-double arithmetic: 10^q is stored as hi + lo (hi the nearest
double, lo the nearest double to the rest), and |x| hi is split exactly by
Dekker's TwoProduct (Numer. Math. 18, 224, 1971), since numpy has no fused
multiply-add; |x| is split by rounding away its low 27 bits, hi by
Veltkamp's splitter.  That puts p + r within about 1e-14 of the exact
|x| 10^(16-k).  k is moved by one where log10 missed the decade, so that
N lies in [1e16, 1e17), and an N that rounds up to 10^17 carries to 10^16
in the next decade.  N = p + rint(r) unless r lies within ``_TIE`` of a
half; near-ties (exact ones like 2**-25 among them), subnormals and
magnitudes outside the range go through per-value ``%`` formatting, and
zeros, infinities and NaN are fixed strings.

A block whose least and largest |x| both lie in the range holds no such
value, and skips the masks that find them.

Each value is written into a slot of four little-endian words: the
separator that precedes it, a byte for the sign, and its text, with zero
bytes where nothing is written.  The fourth word holds only the last
digit of a three-digit exponent.  The decimal string S of the value's
digits, with a ``0`` standing where the dot goes (N with one digit
inserted, S = N + 9 P (N // P) for the power of ten P at the dot), ends
the slot in fixed notation and sits before the exponent in exponent
notation.  So each slot word holds whole 8-digit groups of S scaled by a
power of ten, which a 10,000-entry table of 4-digit ASCII turns into
text.  The slot byte L of the last digit other than ``0`` is the highest
nonzero byte of the third word, read by frexp (of all three words for the
few values whose third word is all ``0``).  Four XOR words, looked up by
L and k, write the separator, the ``0.000`` prefix, the dot and the
exponent, and clear the ``0`` padding, the trailing zeros and a dot left
last.  Deleting the zero bytes of the block with ``bytes.translate`` gives
the lines.

Costs, on the 39 blocks of up to 2,045 values that an atom-cd run
writes (numpy 2.4, a shared 2-vCPU host whose speed drifts by about 2x):
a block takes about 240-410 us.  Timed statement by statement, the
double-double digits and their checks take about 25% of it, the digit
groups 19%, the slot array and its ASCII gathers 13%, the last digit, XOR
words, sign and separators 18%, deleting the zero bytes 20%, and the
block's range check 4%.

Each stage's arrays are freed once they are dead, the two ASCII halves are
gathered one at a time, and the slot array is freed before its bytes lose
their zeros.  So a full block holds about 115 bytes per value at its peak,
the slot array and the gathered halves beside the index array still to be
gathered, against about 250 when every array lived to the end (tracemalloc,
full blocks of 4, 5 and 9 columns, numpy 2.4.6).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

import numpy as np

# Values per formatted block: a block is formatted and written before the next is built.
BLOCK_VALUES = 2048

# Largest |k| the fast path meets: log10 of |x| <= 1e280, corrected by one, plus a carry.
_KMAX = 282
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# A residual this close to a half is too near a rounding tie to decide in double-double.
_TIE = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles

_U = np.uint64
_E4 = _U(10**4)
_E8 = _U(10**8)
_ZEROS = _U(0x3030303030303030)  # eight ASCII "0"
_WORD_SCALE = np.array([[1.0], [2.0**64], [2.0**128]])
# |x| rounded to its high 26 bits: add half of the low 27, then clear them.
_HALF27 = _U(1 << 26)
_HIGH26 = _U(2**64 - 2**27)
# N in [10^16 + 1, 10^17 - 1] needs no decade check and no carry.
_N_FIRST = _U(10**16 + 1)
_N_SPAN = _U(9 * 10**16 - 2)
_MINUS = _U(ord("-") << 8)
_ROW_START = _U(ord(",") ^ ord("\n"))

# Slot bytes: 0 separator, 1 sign, 2-5 the "0.000" prefix, then S.  In fixed
# notation S (18 characters) fills bytes 6-23; in exponent notation it fills
# bytes 2-19 and the exponent bytes 20-23, and byte 24 when it has three digits;
# bytes 25-31 stay zero.
_FIXED_AT, _EXP_AT = 6, 2
# XOR words per k, one per slot byte L = 2-23 of the last digit other than "0"
# (row L - 2): S starts at byte 2 or later, so L is never 0 or 1.
_LAST_ROWS = 22


class _Tables(NamedTuple):
    """Lookup tables; rows of pow10 and digits are indexed by k + _KMAX."""

    pow10: np.ndarray     # float (., 4): hi, lo, and hi's high and low halves of 10^(16-k)
    digits: np.ndarray    # uint64 (., 4): P, Q = 9 P or 0, and the split divisor and scale
    xor: np.ndarray       # uint64 (_LAST_ROWS * ., 4) by L - 2 rows of k: the slot words'
                          # fixed bytes, XORed over ASCII digits, L the last digit other than "0"
    ascii_hi: np.ndarray  # uint64 (10**4,): 4 digits as ASCII in bytes 0-3, the first lowest
    ascii_lo: np.ndarray  # uint64 (10**4,): the same in bytes 4-7
    special: np.ndarray   # uint64 (5,): ",0", ",-0", ",inf", ",-inf", ",nan"


def _pow10_pairs(top: int, bottom: int) -> np.ndarray:
    """(2, top - bottom + 1): hi, lo for q = top down to bottom, hi + lo = 10**q.

    hi is the nearest double to 10**q and lo the nearest to 10**q - hi.  For
    q >= 0 both are read off the integer 5**q, and for q < 0 off the floor
    of 2**1023 / 10**-q, which keeps at least 139 bits.  The floor rounds
    as the exact quotient unless the bits it drops below hi or lo form an
    exact tie; the tests compare every row with exact arithmetic.  Scaling
    by 2**q or 2**-1023 is exact in the normal range.
    """
    ints = (list(itertools.accumulate(itertools.repeat(5, top), operator.mul, initial=1))[::-1]
            + list(itertools.accumulate(itertools.repeat(10, -bottom), operator.floordiv,
                                        initial=1 << 1023))[1:])
    hi = list(map(float, ints))
    lo = list(map(float, map(operator.sub, ints, map(int, hi))))
    q = np.arange(top, bottom - 1, -1)
    return np.ldexp(np.array([hi, lo]), np.where(q < 0, -1023, q))


def _formatted(value: float) -> bytes:
    """Per-value formatting, for the values the vector path leaves out."""
    return b"%.17g" % value


def _words(byte_rows: np.ndarray) -> np.ndarray:
    """(m, 8 w) uint8 rows as (m, w) little-endian words."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view("<u8")


@functools.cache
def _tables() -> _Tables:
    """Every lookup table, built on the first call so importing costs nothing."""
    ks = np.arange(-_KMAX, _KMAX + 1)
    pow10 = np.empty((ks.size, 4))
    pow10[:, :2] = _pow10_pairs(16 + _KMAX, 16 - _KMAX).T
    c = _SPLIT * pow10[:, 0]
    pow10[:, 2] = c - (c - pow10[:, 0])
    pow10[:, 3] = pow10[:, 0] - pow10[:, 2]

    fixed = (ks >= 0) & (ks < 16)   # ddd.ddd: the dot after digit k
    small = (ks >= -4) & (ks < 0)   # 0.000ddd
    expo = (ks < -4) | (ks > 16)    # d.ddde+kk; k = 16 prints all 17 digits, no dot
    power = 10 ** np.arange(18, dtype=np.uint64)
    digits = np.empty((ks.size, 4), np.uint64)
    digits[:, 0] = power[np.where(fixed, 16 - ks, np.where(expo, 16, 17))]
    digits[:, 1] = np.where(fixed | expo, 9 * digits[:, 0], 0)
    digits[:, 2:] = np.where(expo[:, None], power[[4, 4]], power[[8, 0]])

    # XOR bytes over the ASCII digits: "0" ^ 0x30 is 0, and 0x30 clears a padding "0"
    xor = np.zeros((ks.size, 32), np.uint8)
    xor[:, 0] = 0x30 ^ ord(",")
    xor[:, 1] = 0x30
    xor[~expo, 2:6] = 0x30
    first = np.where(small, 6 + ks, 6)  # the prefix "0." + "0" * (-k - 1) ends at byte 6
    at = np.arange(2, 7)
    prefix = np.where(at < first[:, None], 0x30,
                      np.where(at == first[:, None] + 1, 0x30 ^ 0x2E, 0))
    xor[small, 2:7] = prefix[small]
    xor[fixed, _FIXED_AT + 1 + ks[fixed]] = 0x30 ^ 0x2E
    xor[ks == 16, _FIXED_AT] = 0x30
    e = np.abs(ks[expo])
    three = e >= 100
    xor[expo, _EXP_AT + 1] = 0x30 ^ 0x2E
    xor[expo, 20] = 0x30 ^ ord("e")
    xor[expo, 21] = 0x30 ^ np.where(ks[expo] < 0, ord("-"), ord("+"))
    xor[expo, 22] = np.where(three, e // 100, e // 10)
    xor[expo, 23] = np.where(three, e // 10 % 10, e % 10)
    xor[expo, 24] = np.where(three, 0x30 + e % 10, 0)  # past the digits: written as is

    # A value whose last digit other than "0" sits at slot byte L keeps S up to
    # byte L, or up to its least kept byte: the whole part in fixed notation, the
    # first digit in exponent notation.  From there to S's end, a "0" digit or
    # the dot becomes "0" ^ 0x30 = 0.
    least = np.where(expo, _EXP_AT + 1, np.where(fixed, _FIXED_AT + 1 + ks,
                                                  np.where(small, _FIXED_AT + 1, 24)))
    # masks for start 0-24, to byte 20 or 24; the row of slot byte L (2-23) is L - 2
    start = np.arange(25)[:, None]
    pos = np.arange(32)
    masks = _words(np.concatenate([(pos >= start) & (pos < end) for end in (20, 24)]) * 0xFF)
    rows = (np.maximum(np.arange(3, 3 + _LAST_ROWS)[:, None], least)
            + np.where(expo, 0, start.size))
    strip = np.take(masks, rows, axis=0).reshape(_LAST_ROWS, -1)
    words = _words(xor).ravel()
    strip &= words ^ _ZEROS
    strip ^= words

    pair = np.arange(100)
    pair = pair // 10 + 0x30 | (pair % 10 + 0x30) << 8
    ascii_hi = (pair[:, None] | pair << 16).ravel().astype(np.uint64)
    special = [int.from_bytes(b"," + s, "little") for s in (b"0", b"-0", b"inf", b"-inf", b"nan")]
    return _Tables(pow10, digits, strip.reshape(-1, 4), ascii_hi, ascii_hi << _U(32),
                   np.array(special, np.uint64))


def _scaled(ax: np.ndarray, kk: np.ndarray, pow10: np.ndarray):
    """(p, r) with p + r = ax 10^(16-k) to ~1e-14: p = fl(ax hi), r its exact error plus ax lo."""
    hi, lo, bh, bl = np.take(pow10, kk, axis=0).T
    p = ax * hi
    ah = ((ax.view(np.uint64) + _HALF27) & _HIGH26).view(np.float64)
    al = ax - ah
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e + ax * lo


def _rounded(p: np.ndarray, r: np.ndarray):
    """N = p + rint(r) as uint64, and rint(r)."""
    ri = np.rint(r)
    n = p.astype(np.int64)
    n += ri.astype(np.int64)
    return n.view(np.uint64), ri


def _last_digit(words: np.ndarray) -> np.ndarray:
    """Slot byte of the last digit other than "0" in (3, m) words of ASCII digits.

    With "0" XORed away every byte is a digit below 16, so the sum of the
    words scaled by 2**64 and 2**128 rounds no byte up into a higher one,
    and frexp reads the highest nonzero byte from its exponent.
    """
    digits = (words ^ _ZEROS).astype(np.float64)
    digits *= _WORD_SCALE
    return (np.frexp(digits.sum(axis=0))[1] - 1) >> 3


def format_rows(table: np.ndarray) -> bytes:
    """The rows of a 2-D float table as "%.17g" text, comma-separated, one line per row."""
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    if not table.size:
        return b"\n" * rows
    x = table.ravel()
    size = x.size
    t = _tables()
    ax = np.abs(x)
    special = per_value = np.empty(0, np.intp)
    if not _FAST_MIN <= ax.min() <= ax.max() <= _FAST_MAX:  # NaN fails every comparison
        odd = np.flatnonzero(~((ax >= _FAST_MIN) & (ax <= _FAST_MAX)))
        xo = x[odd]
        fixed = (xo == 0) | ~np.isfinite(xo)
        special, per_value = odd[fixed], odd[~fixed]
        ax[odd] = 1.0

    # k + _KMAX from log10, truncated (it is positive), then moved into the
    # decade of ax 10^(16-k) where it missed; N = 10^17 carries into the next one
    kk = np.log10(ax)
    kk += _KMAX
    kk = kk.astype(np.intp)
    p, r = _scaled(ax, kk, t.pow10)
    n, ri = _rounded(p, r)
    fix = np.flatnonzero(n - _N_FIRST > _N_SPAN)
    if fix.size:
        pf, rf = p[fix], r[fix]
        kf = kk[fix] + ((pf - 1e17) + rf >= 0.0) - ((pf - 1e16) + rf < 0.0)
        pf, rf = _scaled(ax[fix], kf, t.pow10)
        nf, rif = _rounded(pf, rf)
        carry = nf == _U(10**17)
        nf[carry] = _U(10**16)
        kf += carry
        kk[fix], n[fix], r[fix], ri[fix] = kf, nf, rf, rif
    r -= ri
    np.abs(r, out=r)
    if r.max() > 0.5 - _TIE:
        per_value = np.union1d(per_value, np.flatnonzero(r > 0.5 - _TIE))
    texts = {i: _formatted(x[i]) for i in per_value.tolist()}
    del p, r, ri, ax  # each stage's arrays are freed once dead, so they do not add up

    # S = N with a 0 at the dot, then its three slot words as 8-digit groups
    dg = np.take(t.digits, kk, axis=0)
    s = n // dg[:, 0]
    s *= dg[:, 1]
    s += n
    q = s // dg[:, 2]
    groups = np.empty((3, size), np.uint64)
    np.floor_divide(q, _E8, out=groups[0])
    np.multiply(groups[0], _E8, out=groups[1])
    np.subtract(q, groups[1], out=groups[1])
    np.multiply(s, dg[:, 3], out=groups[2])
    q *= _E8
    groups[2] -= q
    del n, dg, s, q
    high = groups // _E4
    groups -= high * _E4
    # one slot per value and a last one for the closing newline
    out = np.empty((size + 1, 4), "<u8")
    out[size] = 0
    out[size, 0] = ord(",")
    words = out[:size, :3].T
    # one ASCII half at a time, each index array freed once gathered
    ascii_hi = np.take(t.ascii_hi, high.view(np.intp))
    del high
    ascii_lo = np.take(t.ascii_lo, groups.view(np.intp))
    del groups
    np.bitwise_or(ascii_hi, ascii_lo, out=words)
    del ascii_hi, ascii_lo

    # the last digit other than "0" lies in the third word but for round values;
    # the XOR word for it clears the trailing zeros, and a dot left last.  Slot
    # byte L reads as row L - 2, and a third word of all "0" as row 15 - 2
    last = np.frexp((words[2] ^ _ZEROS).astype(np.float64))[1]
    last += 127 - 16
    last >>= 3
    round_ = np.flatnonzero(last == 15 - 2)
    if round_.size:
        last[round_] = _last_digit(words[:, round_]) - 2
    last *= 2 * _KMAX + 1
    last += kk
    del kk
    out[:size, 3] = 0
    out[:size] ^= np.take(t.xor, last, axis=0)
    del last
    words[0] ^= (x.view(np.uint64) >> _U(63)) * _MINUS
    del words

    if special.size:
        xs = x[special]
        out[special, 1:] = 0
        out[special, 0] = t.special[np.where(np.isnan(xs), 4, 2 * np.isinf(xs) + np.signbit(xs))]
    if texts:
        text = out.view(np.uint8).reshape(size + 1, -1)
        for i, chars in texts.items():
            text[i, 1:] = 0
            text[i, 1:1 + len(chars)] = np.frombuffer(chars, np.uint8)
        del text
    # every slot opens with its separator: "," from the XOR word, "\n" at a row start
    out[::cols, 0] ^= _ROW_START
    out[0, 0] &= ~_U(0xFF)
    slots = out.tobytes()
    del out  # the slot array, before its bytes are copied once more without the zeros
    return slots.translate(None, b"\0")
