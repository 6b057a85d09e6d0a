"""Integer fixed-point primitives of the numeric layer: powers and
correctly rounded decimal printing, on Python integers alone.

    power(n, d, s, F)        (n/d)^(-s) in units of 2^-F, with a count of
                             units that bounds its error
    to_str(num, den, dps)    num/den correctly rounded to dps digits, in
                             the notation of mp.nstr, at any magnitude

For s = sn/sd with sd <= ROOT_MAX_DENOMINATOR, power is the exact integer
sd-th root of the rational power,

    floor((d^sn 2^(F sd) / n^sn)^(1/sd))      (math.isqrt for sd = 2, 4,
                                               integer Newton otherwise),

within 1 unit.  Its cost grows with sd; at 1000 and 3400 bits it stops
being faster than the other route past sd = 8.  Any other s (such as 0.37
or 1 + 10^-29) goes through fixed-point log and exp with argument
reduction (after Brent and Zimmermann, Modern Computer Arithmetic, 2010,
ch. 4): ln(n/d) = m ln 2 + ln(j/32) + 2 atanh(z), |z| <= 1/83, the
ln(j/32) cached; -s ln(n/d) = k ln 2 + r with 0 <= r < ln 2; exp(r) from
its Taylor series at r / 2^m', summed by rectangular splitting and
squared back m' times.  Every floor of that route is counted, and the
working precision carries the log2 of the count as guard bits, so the
result is within 2 or 3 units.  The counts are not a proof (ROADMAP
item 6).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, isqrt, log10, log2
from typing import Tuple


def floor_shift(num: int, den: int, shift: int) -> int:
    """floor(num 2^shift / den) for den > 0."""
    return (num << shift) // den if shift >= 0 else num // (den << -shift)


def ceil_shift(num: int, den: int, shift: int) -> int:
    """ceil(num 2^shift / den) for den > 0."""
    return -floor_shift(-num, den, shift)


def _numeral(n: int) -> str:
    """The decimal digits of n >= 0: str below about 250 digits, else the
    two halves of a division by a power of ten, which keeps clear of
    Python's limit on str however large n is."""
    size = n.bit_length() * 3 // 10  # at most n's number of digits
    if size < 250:
        return str(n)
    half = size // 2
    high, low = divmod(n, 10**half)
    return _numeral(high) + _numeral(low).rjust(half, "0")


def to_str(num: int, den: int, dps: int) -> str:
    """num/den (den > 0) rounded to dps >= 1 significant digits, ties away
    from zero, in mpmath's notation: fixed for a leading digit at 10^e with
    min(-(dps//3), -5) < e < dps, trailing zeros stripped, x.0 for an
    integer.

    e starts from the float log10 and is settled by the exact quotient
    q = floor(|num| 10^(dps-1-e) / den), which must have dps digits; q is
    then rounded half up on its remainder."""
    if not num:
        return "0.0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    e = floor(log10(num) - log10(den))
    low = 10 ** (dps - 1)
    while True:
        k = dps - 1 - e
        n, d = (num * 10**k, den) if k >= 0 else (num, den * 10**-k)
        q, r = divmod(n, d)
        if q < low:
            e -= 1
        elif q >= 10 * low:
            e += 1
        else:
            break
    if 2 * r >= d:
        q += 1
        if q == 10 * low:
            q, e = low, e + 1
    digits, split = _numeral(q), 1
    if min(-(dps // 3), -5) < e < dps:
        if e < 0:
            digits = "0" * -e + digits
        else:
            split = e + 1
        e = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if e == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if e > 0 else ''}{e}"


#: Denominators of s up to which power takes the exact integer root.
ROOT_MAX_DENOMINATOR = 8


def _iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0: math.isqrt for k = 2 and 4, else
    integer Newton from above, seeded by the root of the leading bits."""
    if k == 1 or x < 2:
        return x
    if k == 2:
        return isqrt(x)
    if k == 4:
        return isqrt(isqrt(x))
    b = x.bit_length()
    if b <= 64:
        y = int(x ** (1.0 / k)) + 2
    else:
        e = b // (2 * k)
        # x < (x >> ke + 1) 2^ke, so this start lies above the root
        y = (_iroot(x >> (k * e), k) + 1) << e
    while True:
        z = ((k - 1) * y + x // y ** (k - 1)) // k
        if z >= y:
            return y
        y = z


def _power_root(n: int, d: int, sn: int, sd: int, F: int) -> int:
    """floor((n/d)^(-sn/sd) 2^F): the integer sd-th root of the exact
    rational power, shifted by F sd bits."""
    k = -sn
    num, den = (n**k, d**k) if k >= 0 else (d**-k, n**-k)
    return _iroot(floor_shift(num, den, F * sd), sd)


def _atanh_fixed(u: int, v: int, W: int) -> Tuple[int, int]:
    """(t, e): atanh(u/v) 2^W within e units, 0 <= u/v <= 1/3, from the
    series sum (u/v)^(2i+1) / (2i+1).  Each term costs at most 3 units
    (its floor, the floor of its division, the carried error times u/v);
    the tail past the last nonzero term at most 2."""
    x = (u << W) // v
    u2, v2 = u * u, v * v
    t, i, e = 0, 1, 2
    while x:
        t += x // i
        x = x * u2 // v2
        i += 2
        e += 3
    return t, e


#: ln(n/d) is reduced by c = j / 2^_LN_TABLE_BITS, the nearest such step
_LN_TABLE_BITS = 5


@lru_cache(maxsize=128)
def _ln_step_at(j: int, W: int) -> Tuple[int, int]:
    # 2 atanh((j - 32)/(j + 32)), |j - 32| / (j + 32) <= 1/3 for 16 <= j <= 64
    one = 1 << _LN_TABLE_BITS
    t, e = _atanh_fixed(abs(j - one), j + one, W)
    return (2 * t if j >= one else -2 * t), 2 * e


def _ln_step(j: int, W: int) -> Tuple[int, int]:
    """(l, e): ln(j / 2^_LN_TABLE_BITS) 2^W within e units, cached at a
    multiple of 128 bits."""
    Wc = -(-W // 128) * 128
    l, e = _ln_step_at(j, Wc)
    return l >> (Wc - W), (e >> (Wc - W)) + 1


def _ln2(W: int) -> Tuple[int, int]:
    """(l, e): ln 2 2^W within e units, cached as the step j = 64."""
    return _ln_step(2 << _LN_TABLE_BITS, W)


def _ln_fixed(n: int, d: int, W: int) -> Tuple[int, int]:
    """(L, e): ln(n/d) 2^W within e units: n/d = 2^m c y with
    2/3 <= c y < 4/3, c = j/32 the nearest step (its log cached) and
    |y - 1| <= 1/42, so ln y = 2 atanh((y - 1)/(y + 1)) gains 12.7 bits a
    term."""
    m = n.bit_length() - d.bit_length()
    num, den = (n, d << m) if m >= 0 else (n << -m, d)
    if 3 * num < 2 * den:
        num, m = num << 1, m - 1
    elif 3 * num >= 4 * den:
        den, m = den << 1, m + 1
    j = ((num << (_LN_TABLE_BITS + 1)) + den) // (2 * den)
    num, den = num << _LN_TABLE_BITS, den * j
    u = num - den
    t, e = _atanh_fixed(abs(u), num + den, W)
    l2, e2 = _ln2(W)
    lc, ec = _ln_step(j, W) if j != 1 << _LN_TABLE_BITS else (0, 0)
    return (2 * t if u >= 0 else -2 * t) + lc + m * l2, 2 * e + ec + abs(m) * e2


def _exp_fixed(r: int, W: int) -> Tuple[int, int]:
    """(E, e): exp(r 2^-W) 2^W within e units, for 0 <= r < 2^W.

    The argument x is r 2^-W halved m ~ W^(1/3) times.  Its Taylor series
    is summed at W2 bits by rectangular splitting: with the powers x^i,
    i <= u ~ sqrt(terms), it is sum_{i<u} x^i S_i, S_i = sum_j
    x^(ju) / (ju + i)!, so each term costs one division by a small
    integer and each block of u terms one full product.  The sum is then
    squared back m times.  e counts every floor: x^i is within i - 1
    units; a term within ea is within ceil(ea / t) + 1 after its division
    by t and within ea + u after its product with x^u; the tail past the
    first zero term is at most twice that term's bound; a squaring takes
    an error d to (2E + d) d 2^-W2 plus 2 units."""
    m = round(W ** (1 / 3))
    W2 = W + m + 10 + W.bit_length()
    x = r << (W2 - W - m)
    one = 1 << W2
    u = max(2, isqrt(W2 // (m + 4)))
    powers = [one, x]
    for _ in range(u - 1):
        powers.append(powers[-1] * x >> W2)
    xu = powers[u]
    sums = [0] * u
    a, ea, t, err = one, 0, 0, 0
    while a:
        for i in range(u):
            sums[i] += a
            err += ea
            t += 1
            a //= t
            ea = -(-ea // t) + 1
        a = a * xu >> W2
        ea += u
    E = sums[0]
    err += 2 * ea + 1
    for i in range(1, u):
        E += sums[i] * powers[i] >> W2
        err += (sums[i] * (i - 1) >> W2) + 2
    for _ in range(m):
        err = ((2 * E + err) * err >> W2) + 2
        E = E * E >> W2
    shift = W2 - W
    return E >> shift, (err >> shift) + 2


def power_exp(n: int, d: int, s: Fraction, F: int) -> Tuple[int, int]:
    """(v, e): (n/d)^(-s) 2^F within e units, by fixed-point log and exp:
    -s ln(n/d) = k ln 2 + r with 0 <= r < ln 2, and v = 2^(F + k) exp(r).

    The working precision W is F + k plus the log2 of the error counts of
    the log, the product by s and the reduction by k ln 2, so the result
    is within 2 or 3 units."""
    sn, sd = s.numerator, s.denominator
    lx = log2(n) - log2(d)
    est = ceil(-sn / sd * lx)  # >= k - 1
    base = max(F + est, 0) + 64
    W = base + (base * (abs(sn) // sd + abs(est) + 2) * (abs(ceil(lx)) + 2)).bit_length() + 8
    L, eL = _ln_fixed(n, d, W)
    t = -(sn * L) // sd
    et = -(-abs(sn) * eL // sd) + 1
    l2, e2 = _ln2(W)
    k = t // l2
    r = t - k * l2
    E, eE = _exp_fixed(r, W)
    # exp grows errors of r by at most exp(ln 2 + tiny) < 3
    eE += 3 * (et + abs(k) * e2)
    shift = F + k - W
    if shift >= 0:
        return E << shift, eE << shift
    return E >> -shift, (eE >> -shift) + 2


def power(n: int, d: int, s: Fraction, F: int) -> Tuple[int, int]:
    """(v, e): (n/d)^(-s) 2^F within e units, for integers n, d > 0 and
    any integer F (negative when a large s scales the power below 1): the
    exact integer root (e = 1) for a small denominator of s, fixed-point
    log and exp otherwise."""
    if s.denominator <= ROOT_MAX_DENOMINATOR:
        return _power_root(n, d, s.numerator, s.denominator, F), 1
    return power_exp(n, d, s, F)
