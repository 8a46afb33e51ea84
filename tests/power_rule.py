"""The reference power rule that the tests hold the residue kernels to.

`maybe_power` asks every power modulus's factor table in `sieve`, one value
(or int64 array) at a time.  The kernels pack those same tables into row
patterns, so on every cell they keep they must agree with it."""

from apforge import sieve


def maybe_power(v, l: int, etas: tuple = (1,)):
    """Whether v (an int or an int64 array) may be eta * x^l, eta in etas:
    every power modulus's factor table at v, and v >= 0 for even l when
    every eta is positive.  False only where no such x exists."""
    f, *rest = sieve._POWER_MODULI
    ok = sieve._factor_table(l, f, etas)[v % f]  # a new array (or scalar), so &= is safe
    for f in rest:
        ok &= sieve._factor_table(l, f, etas)[v % f]
    if l % 2 == 0 and min(etas) > 0:
        ok &= v >= 0
    return ok
