"""Modified Bessel function of the first kind, order zero.

Evaluated by its power series

    I0(x) = sum_k (x/2)^(2k) / (k!)^2

with the sum truncated once a term falls below 1e-16 relative to the
accumulated value.  The series converges quickly for the argument range
used by the channel model (|x| of order 1 or less).
"""

RELATIVE_TRUNCATION = 1e-16
_MAX_TERMS = 400


def i0m1(x: float) -> float:
    """I0(x) - 1, summed without the leading 1 to avoid cancellation.

    1.0 + i0m1(x) is I0(x) to ~1e-15 relative for |x| <= 10; the form serves
    expressions such as exp(s)*I0(x) - 1 with both s and x small.
    """
    q = 0.25 * x * x
    term = q  # k = 1 term
    total = 0.0
    k = 1
    while k < _MAX_TERMS:
        total += term
        k += 1
        term *= q / (k * k)
        if term < RELATIVE_TRUNCATION * (1.0 + total):
            total += term
            break
    return total
