"""The integer kernel of Q[x]: functions on plain lists of ints that never
touch a ``Poly``, and import nothing from the package.

``polynomials`` handles a rational polynomial p as k * v(x): a rational k and
a primitive integer vector v, lowest degree first, with a positive leading
entry.  [] is the zero vector.  The ``_zz_`` functions compute on such
vectors in ints: exact division, the small-primes modular gcd and Yun's
squarefree decomposition.  ``_root_candidates`` gives the rational roots'
candidates by Loos' Newton-Hensel lift of the roots mod a small prime.
"""

import math
from fractions import Fraction


def _split_content(v):
    """(c, v / c) for a nonzero integer vector, c its gcd signed like its
    leading entry."""
    c = math.gcd(*v)
    if v[-1] < 0:
        c = -c
    return c, v if c == 1 else [a // c for a in v]


def _zz_derivative(v):
    return [e * c for e, c in enumerate(v)][1:]


def _zz_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    while out and not out[-1]:
        out.pop()
    return out


def _zz_divexact(f, h):
    """f / h for integer vectors when h (nonzero) divides f in Z[x], else
    None."""
    m = len(h) - 1
    lead = h[-1]
    r = list(f)
    q = [0] * max(len(f) - m, 0)
    for k in range(len(f) - 1 - m, -1, -1):
        c, rem = divmod(r[k + m], lead)
        if rem:
            return None
        if c:
            q[k] = c
            for j in range(m):
                r[k + j] -= c * h[j]
    if any(r[:m]):
        return None
    return q


# the first twelve primes, the bases of _is_prime
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# primes below 2^62 in descending order, found as the modular gcd needs them
_PRIMES = []


def _is_prime(n):
    """Whether the integer n is prime: trial division by _MR_BASES, then
    Miller-Rabin to each of them, which decides every n < 3.18e23 (Sorenson
    & Webster, Math. Comp. 86, 2017)."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in _MR_BASES:
        x = [pow(a, (n - 1) >> s, n)]
        while len(x) < s:
            x.append(x[-1] * x[-1] % n)
        if x[0] != 1 and n - 1 not in x:
            return False
    return True


def _primes():
    """The primes below 2^62, largest first, extending _PRIMES on demand."""
    i = 0
    while True:
        if i == len(_PRIMES):
            p = _PRIMES[-1] if _PRIMES else (1 << 62) + 1
            _PRIMES.append(next(q for q in range(p - 2, 1, -2) if _is_prime(q)))
        yield _PRIMES[i]
        i += 1


def _gf_gcd(a, b, p):
    """A gcd, not made monic, of two residue vectors mod p with nonzero
    leading entries: Euclid on remainders scaled so that none inverts."""
    while len(b) > 1:
        n, lead = len(b) - 1, b[-1]
        for k in range(len(a) - 1 - n, -1, -1):
            c = a.pop()
            if c:
                a[k:] = [(lead * x - c * y) % p for x, y in zip(a[k:], b)]
                if k:
                    a[:k] = [lead * x % p for x in a[:k]]
        while a and not a[-1]:
            a.pop()
        if not a:
            return b
        a, b = b, a
    return b


def _zz_gcd(f, g):
    """(h, f / h, g / h) for integer vectors f and g, not both zero: h is
    their primitive gcd with a positive leading entry, and the cofactors are
    exact in Z[x].

    The small-primes modular gcd (Brown, J. ACM 18, 1971; von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 6).  At a prime p dividing neither
    leading entry, gcd(f mod p, g mod p) has degree at least deg h, so 0
    proves f and g coprime.  Else the images of the lowest degree seen,
    scaled by b = gcd(lead f, lead g), are combined by CRT.  The primitive
    part of their symmetric residue is tried when it first appears and when
    a prime leaves it unchanged; once it divides f and g it is h."""
    if not f or not g:
        c, h = _split_content(f or g)
        return (h, [c], []) if f else (h, [], [c])
    cf, f = _split_content(f)
    cg, g = _split_content(g)
    b = math.gcd(f[-1], g[-1])
    n = min(len(f), len(g)) + 1
    for p in _primes():
        if f[-1] % p == 0 or g[-1] % p == 0:
            continue
        w = _gf_gcd([c % p for c in f], [c % p for c in g], p)
        if len(w) == 1:
            h, qf, qg = [1], f, g
            break
        if len(w) > n:
            continue
        t = b * pow(w[-1], -1, p)
        w = [t * c % p for c in w]
        if len(w) < n:
            n, m, v, last = len(w), p, w, None
        else:
            t = pow(m, -1, p)
            v, m = [x + m * ((y - x) * t % p) for x, y in zip(v, w)], m * p
        h = _split_content([x - m if 2 * x > m else x for x in v])[1]
        if last is None or h == last:
            qf = _zz_divexact(f, h)
            qg = None if qf is None else _zz_divexact(g, h)
            if qg is not None:
                break
        last = h
    return (h, qf if cf == 1 else [cf * a for a in qf],
            qg if cg == 1 else [cg * a for a in qg])


def _zz_yun(v):
    """Yun's squarefree decomposition of a primitive integer vector:
    [(primitive factor, multiplicity)] in increasing multiplicity, [] for
    the constant [1].  Every gcd is primitive, so by Gauss's lemma every
    quotient of the loop is integral."""
    _, c, d = _zz_gcd(v, _zz_derivative(v))
    d = _zz_sub(d, _zz_derivative(c))
    out = []
    i = 1
    while len(c) > 1:
        f, c, d = _zz_gcd(c, d)
        if len(f) > 1:
            out.append((f, i))
        d = _zz_sub(d, _zz_derivative(c))
        i += 1
    return out


def _eval_mod(c, xs, q):
    """[c(x) mod q for x in xs] for integer coefficients c, lowest degree
    first: one Horner pass over the whole list."""
    vals = [0] * len(xs)
    for a in reversed(c):
        a %= q
        vals = [(v * x + a) % q for v, x in zip(vals, xs)]
    return vals


def _root_candidates(v):
    """Rational numbers that include every rational root of the primitive
    integer vector v of positive degree whose constant term is nonzero."""
    if len(v) == 2:
        return [Fraction(-v[0], v[1])]
    if len(v) == 3:
        c, b, a = v
        disc = b * b - 4 * a * c
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return []
        return [Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)]
    return _lifted_roots(v)


# primes showing a repeated root of h mod p before _lifted_roots takes the
# squarefree part of h; a squarefree h shows one only at a prime dividing
# its discriminant
_REPEATED_ROOT_PRIMES = 8


def _lifted_roots(h):
    """Candidates including every rational root of a primitive integer
    polynomial h of positive degree with h[0] != 0 (Loos, SIAM J. Comput.
    12, 1983).

    p is the first prime not dividing lead at which every root of h mod p
    is simple.  A squarefree h has one (any prime not dividing its
    discriminant); a repeated factor of h may leave a repeated root at every
    prime, so once _REPEATED_ROOT_PRIMES primes have shown one, h is
    replaced by its squarefree part, which has the same roots.  Every root
    lies inside (-B, B) for the power of two B from Fujiwara's bound for h
    / lead.  A root a/b in lowest terms has b | lead, so it reduces to one
    of the simple roots mod p, whose lift mod q is unique: Newton's step,
    with q squared up to q >= 2 |lead| B, misses none, and the symmetric
    residue of lead r mod q is (lead / b) a.  Fraction(it, lead) has a
    denominator dividing lead; its numerator must divide h[0]."""
    dh = _zz_derivative(h)
    p, repeated = 1, 0
    while True:
        p += 1
        if h[-1] % p == 0 or not _is_prime(p):
            continue
        roots = [r for r, v in enumerate(_eval_mod(h, range(p), p)) if v == 0]
        if all(_eval_mod(dh, roots, p)):
            break
        repeated += 1
        if repeated == _REPEATED_ROOT_PRIMES:
            h = _split_content(_zz_gcd(h, dh)[1])[1]
            dh = _zz_derivative(h)
    n = len(h) - 1
    lead = h[-1]
    shift = abs(lead).bit_length() - 1
    e = max(-(-(abs(ci).bit_length() - shift) // (n - i)) for i, ci in enumerate(h[:-1]))
    bound = 1 << max(e + 1, 1)
    q = p
    while roots and q < 2 * abs(lead) * bound:
        q *= q
        roots = [(r - v * pow(d, -1, q)) % q for r, v, d in
                 zip(roots, _eval_mod(h, roots, q), _eval_mod(dh, roots, q))]
    out = []
    for r in roots:
        s = lead * r % q
        x = Fraction(s - q if 2 * s > q else s, lead)
        if x and h[0] % x.numerator == 0:
            out.append(x)
    return out
