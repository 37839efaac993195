"""Stable JSON-friendly encodings for exact values.

Rationals travel as strings "p/q" ("p" when q == 1) so no precision is lost
and output bytes do not depend on platform integer formatting; `parse_rat`
reads them back.  `dumps` is the one JSON writer: same value, same bytes.
"""

import json
from fractions import Fraction


def rat_str(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_rat(s):
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, Fraction):
        return s
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def dumps(obj):
    """Canonical JSON: sorted keys, no whitespace variance, no NaNs."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
