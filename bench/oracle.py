"""Expected values computed apart from the program.

Nothing here imports `derived_kernel`.  Dimensions on P^n come from
counting monomials, Hilbert polynomials from the binomial formula, and
the homotopy of the derived schemes in the workloads from the hand
derivations written out in README.md.
"""

from itertools import product


def count_monomials(nvars, degree):
    """Number of monomials of the given degree in `nvars` variables, by
    enumerating exponent vectors."""
    if degree < 0:
        return 0
    return sum(1 for alpha in product(range(degree + 1), repeat=nvars)
               if sum(alpha) == degree)


def line_bundle_h(n, d, p):
    """dim H^p(P^n, O(d)).

    H^0 has a basis of the monomials of degree d; H^n has a basis of the
    Laurent monomials of degree d with every exponent <= -1, which are
    x^(-1-beta) for beta >= 0 of degree -d-n-1; H^p vanishes for
    0 < p < n."""
    if p == 0:
        return count_monomials(n + 1, d)
    if p == n:
        return count_monomials(n + 1, -d - n - 1)
    return 0


def hilbert_value(n, a, t):
    """chi(O(a + t)) on P^n, i.e. the Hilbert polynomial of O(a) at t:
    the binomial polynomial (t + a + n)(t + a + n - 1)...(t + a + 1)/n!,
    which is an integer at every integer t."""
    num = 1
    for k in range(n):
        num *= t + a + n - k
    den = 1
    for k in range(2, n + 1):
        den *= k
    return num // den


def hilbert_vector(n, classes):
    """The Hilbert polynomial of sum c*[O(a)] over (a, c) in `classes`,
    as its values at t = 0..n (n + 1 values fix a polynomial of degree
    n)."""
    return [sum(c * hilbert_value(n, a, t) for a, c in classes)
            for t in range(n + 1)]


def twist_sum_sections(n, twists, homological=None):
    """pi_i of derived global sections of a sum of shifted line bundles
    O(k)[s] on P^n, for every i: pi_i = sum over summands of
    H^(s - i)(O(k)).  `homological` gives each summand's shift s
    (default 0)."""
    shifts = homological or [0] * len(twists)
    out = {}
    for k, s in zip(twists, shifts):
        for p in range(n + 1):
            dim = line_bundle_h(n, k, p)
            if dim:
                out[s - p] = out.get(s - p, 0) + dim
    return out


# Homotopy of derived global sections of O_X, derived by hand (README.md,
# "Expected values").  Keys are scheme names used by the workloads.
SECTIONS_OF_O = {
    "dbl": {0: 1, 1: 1},       # V(x0, x0) in P^1
    "dline": {0: 2, 1: 0},     # V(x0, x0^2) in P^2
    "three": {0: 2, 1: 2},     # V(x0, x0^2 + x1*x2, x0) in P^2
    "point": {0: 1},           # O/x0 on P^1: one point
    "sky": {0: 1},             # O/(x0, x1) on P^2: one point
}
