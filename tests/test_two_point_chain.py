"""Every conditional-moment closed form of `core`, at gamma = -1 and
sigma*tau > 0, against an exact two-point Markov chain.

X_t sits on the atoms a_t > 0 > -b_t of the two-point law with mean 0,
variance t and third moment m3(t) = ((eta+sigma*theta) t^2 + (theta+tau*eta) t)
/ (1-sigma*tau).  From x the chain moves to a_t with probability
(x + b_t)/(a_t + b_t) and to -b_t otherwise.  That step is a martingale, and
a mean-zero law on two given atoms is unique, so X_t keeps its two-point
marginal.  The kernel is a probability exactly when the atoms never shrink,
which holds when sigma*tau < 1 and (1-sigma*tau)^2 + (eta+sigma*theta)(theta+tau*eta) >= 0.

Every conditional law of the chain has two atoms, so each conditional moment
is a sum over atoms.  The oracle forms the atoms, the kernel and those sums
in 50-digit ``decimal`` arithmetic from the exact float inputs, so it loses
nothing where the atoms barely grow and the kernel takes their small
differences: in plain floats, a_t - a_s ~ 2e-7 left the two-sided variance
of the pinned example 1.17e-9 of its scale off.  Variances are taken
centred, as w_a*w_b*(a+b)^2/(w_a+w_b)^2.

Tolerance: each comparison is relative to ``scale``, the sum of the absolute
values of the terms of the closed form (or of the atoms, for the means).
Only the closed form's own float evaluation, and the rounding of the atom
it is evaluated at, are left: the worst of 20,000 random points (and the
pinned example) read 8.3e-15 of the scale.  TOL = 1e-9 stays as it was,
while a 1e-6 change of one coefficient of a closed form moves it by up to
1e-6 of the scale.
"""

import decimal

from hypothesis import assume, example, given, settings, strategies as st

from qharness.core import (
    HarnessParams,
    double_mean,
    double_var,
    one_sided_mean,
    var_backward,
    var_forward,
)
from qharness.moments import hankel3, marginal_moments, two_point_from_moments

TOL = 1e-9

linear = st.floats(-3.0, 3.0)
quadratic = st.floats(0.0, 3.0)
start = st.floats(0.01, 30.0)
growth = st.floats(0.01, 3.0)


def atoms(p, t):
    """(a_t, b_t) as Decimals: X_t is a_t > 0 or -b_t < 0, with a_t*b_t = t and
    a_t - b_t = m3(t)/t; each from a sum, the other as t over it."""
    eta, theta, sigma, tau, t = map(decimal.Decimal, (p.eta, p.theta, p.sigma, p.tau, t))
    d = ((eta + sigma * theta) * t + theta + tau * eta) / (1 - sigma * tau)
    root = (d * d + 4 * t).sqrt()
    if d >= 0:
        a = (d + root) / 2
        return a, t / a
    b = (root - d) / 2
    return t / b, b


def kernel(a, b, x):
    """P(X_t = a | x), P(X_t = -b | x) for the atoms a, -b of X_t and x an
    atom at an earlier time."""
    return (x + b) / (a + b), (a - x) / (a + b)


def two_point(w_a, w_b, a, b):
    """Mean and centred variance of weights w_a on a and w_b on -b."""
    n = w_a + w_b
    return (w_a * a - w_b * b) / n, w_a * w_b * (a + b) ** 2 / (n * n)


def close(got, want, scale):
    return abs(got - float(want)) <= TOL * float(scale)


@settings(max_examples=300, deadline=None)
@given(linear, linear, quadratic, quadratic, start, growth, growth)
# the atoms barely grow from s to t here: the float oracle failed it
@example(eta=-0.33984375, theta=2.9375, sigma=0.0, tau=0.0, s=0.01171875, g1=0.03125, g2=1.0)
def test_closed_forms_match_two_point_chain(eta, theta, sigma, tau, s, g1, g2):
    st_ = sigma * tau
    assume(st_ < 1.0 and (1.0 - st_) ** 2 + (eta + sigma * theta) * (theta + tau * eta) >= 0.0)
    p = HarnessParams(eta, theta, sigma, tau, -1.0)
    t = s * (1.0 + g1)
    u = t * (1.0 + g2)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        check_chain(p, s, t, u)


def check_chain(p, s, t, u):
    """Every closed form at s < t < u against the chain, in the current
    decimal context; the closed forms take floats."""
    eta, theta, sigma, tau = p.eta, p.theta, p.sigma, p.tau
    (a_s, b_s), (a_t, b_t), (a_u, b_u) = atoms(p, s), atoms(p, t), atoms(p, u)

    # the marginal at t: a singular Hankel matrix, and m4 = (m3^2 + t^3)/t
    mv = two_point_from_moments(t, marginal_moments(p, t).m3).moment_vector()
    assert close(hankel3(mv), 0.0, mv.m2 * mv.m4 + mv.m3**2 + mv.m2**3)
    assert close(marginal_moments(p, t).m4, mv.m4, mv.m4)

    for x in (a_s, -b_s):  # forward: X_t given X_s = x
        up, down = kernel(a_t, b_t, x)
        assert min(up, down) >= -TOL  # the atoms do not shrink
        mean, var = two_point(up, down, a_t, b_t)
        xf = float(x)
        assert close(one_sided_mean("forward", s, t, xf), mean, abs(x) + a_t + b_t)
        scale = (t - s) / (1.0 + sigma * s) * (1.0 + abs(eta * xf) + sigma * xf * xf)
        assert close(var_forward(p, s, t, xf), var, scale)

    for y, k in ((a_t, 0), (-b_t, 1)):  # backward: X_s given X_t = y, by Bayes
        w_a = b_s / (a_s + b_s) * kernel(a_t, b_t, a_s)[k]
        w_b = a_s / (a_s + b_s) * kernel(a_t, b_t, -b_s)[k]
        mean, var = two_point(w_a, w_b, a_s, b_s)
        yf = float(y)
        assert close(one_sided_mean("backward", s, t, yf), mean, abs(y) + a_s + b_s)
        r = yf / t
        scale = s * (t - s) / (t + tau) * (1.0 + abs(theta * r) + tau * r * r)
        assert close(var_backward(p, s, t, yf), var, scale)

    for x in (a_s, -b_s):  # two-sided: X_t given X_s = x and X_u = z
        for z, k in ((a_u, 0), (-b_u, 1)):
            if kernel(a_u, b_u, x)[k] <= 0:  # a path of probability 0
                continue
            up, down = kernel(a_t, b_t, x)
            w_a = up * kernel(a_u, b_u, a_t)[k]
            w_b = down * kernel(a_u, b_u, -b_t)[k]
            mean, var = two_point(w_a, w_b, a_t, b_t)
            xf, zf = float(x), float(z)
            assert close(double_mean(s, t, u, xf, zf), mean, abs(x) + abs(z) + a_t + b_t)
            dx, m = (zf - xf) / (u - s), (u * xf - s * zf) / (u - s)
            scale = (u - t) * (t - s) / (u * (1.0 + s * sigma) + tau + s) * (
                1.0 + abs(theta * dx) + abs(eta * m) + tau * dx * dx + sigma * m * m
                + 2.0 * abs(m * dx))
            assert close(double_var(p, s, t, u, xf, zf), var, scale)
