"""Checks of a dataset on its own terms: its Dirichlet series summed
directly where it converges absolutely, and the axioms the analysis
relies on, on the dataset and its completed values."""

import mpmath as mp

from .errors import InputError, InsufficientCoefficients
from .numutil import divisor_counts, divisor_tail

# Working bits of the direct sum beyond the requested mantissa.
_GUARD_BITS = 32


def dirichlet_l(s, data, prec):
    """Partial Dirichlet sum with a divisor-function tail majorant.

    Valid only in the absolute-convergence half plane Re(s) > w/2 + 1.
    Returns (value, tail_bound); raises InsufficientCoefficients when the
    tail bound misses prec.target_abs_error.  The majorant assumes the
    coefficient bound |lambda(n)| <= d_degree(n) n^{w/2} (checked on the
    stored range by verify_hypothesis).
    """
    with mp.workprec(prec.mantissa_bits + _GUARD_BITS):
        sv = mp.mpmathify(s)
        if not mp.re(sv) > mp.mpf(data.weight) / 2 + 1:
            raise InputError(
                "dirichlet_l requires Re(s) > w/2 + 1 = %s" % (data.weight / 2 + 1,)
            )
        x = data.coeff_limit
        value = mp.fsum(
            mp.mpf(lam) * mp.power(n, -sv)
            for n, lam in enumerate(data.coefficients, start=1)
            if lam
        )
        tail = divisor_tail(x, mp.re(sv) - mp.mpf(data.weight) / 2, data.degree)
        if tail > mp.mpf(prec.target_abs_error):
            raise InsufficientCoefficients(
                "tail bound %s exceeds target %s with X = %d"
                % (mp.nstr(tail, 8), mp.nstr(mp.mpf(prec.target_abs_error), 8), x),
                required=None,
            )
        return +value, +tail


def verify_hypothesis(data, vals):
    """Check the axioms the rest of the pipeline relies on; returns a list
    of violation strings (empty iff everything passes within bounds).

    Checked: the coefficient bound |lambda(n)| <= d_degree(n) n^{w/2}
    (degree-d divisor function) on the stored range; functional-equation
    symmetry of vals; central nonnegativity; the monotonicity chain
    Lambda(m+1) <= Lambda(m+2) <= ... ; and for eps = -1 the strengthened
    chain Lambda(m+1+k)/k nondecreasing (central value zero).  Values from
    special_values satisfy the functional equation and, for eps = -1, the
    central zero by construction; on them those two checks hold trivially
    and matter for value sets supplied from elsewhere, such as a cache.
    """
    out = []
    w = data.weight
    m = data.m
    eps = data.root_number
    dk = divisor_counts(data.coeff_limit, data.degree)
    for n in range(1, data.coeff_limit + 1):
        lam = data.coefficients[n - 1]
        if isinstance(lam, int):
            if lam * lam > int(dk[n]) ** 2 * n ** w:
                out.append(
                    "grc: n=%d |lambda|=%d bound=%s"
                    % (n, abs(lam), mp.nstr(mp.mpf(int(dk[n])) * mp.mpf(n) ** (mp.mpf(w) / 2), 8))
                )
        else:
            bound = mp.mpf(int(dk[n])) * mp.mpf(n) ** (mp.mpf(w) / 2)
            if abs(mp.mpf(lam)) > bound * (1 + mp.mpf("1e-12")):
                out.append(
                    "grc: n=%d |lambda|=%s bound=%s"
                    % (n, mp.nstr(abs(mp.mpf(lam)), 8), mp.nstr(bound, 8))
                )

    def v(s):
        return mp.mpf(vals.value(s))

    def e(s):
        return mp.mpf(vals.error(s))

    for s in range(1, w + 1):
        t = w + 1 - s
        if abs(v(s) - eps * v(t)) > e(s) + e(t) + mp.mpf("1e-30") * abs(v(s)):
            out.append(
                "functional-equation: s=%d |Lambda(s) - eps Lambda(w+1-s)| = %s"
                % (s, mp.nstr(abs(v(s) - eps * v(t)), 8))
            )
            break

    c = m + 1
    if v(c) < -e(c):
        out.append("central-sign: Lambda(%d) = %s < 0" % (c, mp.nstr(v(c), 8)))
    if eps == -1 and abs(v(c)) > e(c) + mp.mpf("1e-28") * (1 + abs(v(w))):
        out.append(
            "central-zero: eps=-1 but Lambda(%d) = %s != 0" % (c, mp.nstr(v(c), 8))
        )

    for s in range(m + 1, w):
        if v(s) > v(s + 1) + e(s) + e(s + 1):
            out.append(
                "monotonicity: Lambda(%d) = %s > Lambda(%d) = %s"
                % (s, mp.nstr(v(s), 8), s + 1, mp.nstr(v(s + 1), 8))
            )

    if eps == -1:
        # strengthened chain: 0 <= Lambda(m+2) <= Lambda(m+3)/2 <= Lambda(m+4)/3 ...
        for k in range(1, m):
            s, t = m + 1 + k, m + 2 + k
            lhs = v(s) / k
            rhs = v(t) / (k + 1)
            if lhs > rhs + e(s) / k + e(t) / (k + 1):
                out.append(
                    "strengthened-chain: Lambda(%d)/%d = %s > Lambda(%d)/%d = %s"
                    % (s, k, mp.nstr(lhs, 8), t, k + 1, mp.nstr(rhs, 8))
                )
    return out
