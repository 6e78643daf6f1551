"""Package-wide defaults, and the residual maximum every numerical check
shares (this module imports nothing, so every verb can load it)."""

# Default PRNG seed for every sampled verification; reports echo the
# seed actually used so runs are reproducible byte for byte.
DEFAULT_SEED = 1729

# The largest dimension of an algebra read from a catalog key or a JSON
# document. It admits st(8) and sl(6) (dim 35), the top of the size
# ladders, with room to spare; an analyze report holds dim^3 derivation
# entries, so far larger algebras (st(40) has dim 819) would run for hours.
MAX_CATALOG_DIM = 40

# Bounds on the sizes an input may ask for, each checked as the value is read,
# before any work; each admits every shipped scenario, golden and benchmark input.
# The samples of `act verify`, `deform verify --samples` and the projective `vf verify`:
MAX_SAMPLES = 10_000
# `n` of a matrix action kind and of the disk (`generators("ST", n)` holds about n^4/2 floats):
MAX_ACTION_N = 16
# The balls of a multiball (each generator of each ball is applied through every ball):
MAX_BALLS = 8
# The exponent of a variable in a polynomial term:
MAX_EXPONENT = 64
# The profiles of a commuting family (each gives one field u(f) X):
MAX_PROFILES = 8
# The terms each field u(f) X of a commuting family can have, C(d + n, n) for
# d = deg u * deg f + deg X in n variables (the monomials of degree at most d),
# worked out before any u(f) is built:
MAX_FIELD_TERMS = 200
# The steps of a flow (the trajectory is held in memory, 8 bytes a coordinate):
MAX_FLOW_STEPS = 10**6


def max_residual(best: float, *residuals: float) -> float:
    """max(best, *residuals), except that it is NaN once any of them is NaN
    (the builtin max drops a NaN that does not come first), so that a
    `<= tolerance` test on the result fails."""
    for r in residuals:
        if not r <= best and best == best:  # r is larger, or r is NaN
            best = r
    return best
