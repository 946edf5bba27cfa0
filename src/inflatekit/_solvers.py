"""Small numerical solvers in plain Python and numpy.

Brent's root finder and a limited-memory BFGS minimiser; with the
collocation solver in `_bvp`, the package needs no scipy.
"""

from __future__ import annotations

import math
import sys
from collections import deque

import numpy as np

from .errors import NonConvergenceError

# the defaults of scipy.optimize.brentq
BRENTQ_XTOL = 2e-12
BRENTQ_RTOL = 4 * sys.float_info.epsilon
BRENTQ_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float = BRENTQ_XTOL) -> float:
    """A root of f in the bracket [a, b] (either order) by Brent's method.

    A step for step port of scipy.optimize.brentq (its C routine) with its
    rtol and maxiter defaults, so it returns the same float for the same f,
    bracket and xtol.  Raises ValueError when f(a) and f(b) have the same
    sign or f returns nan, and NonConvergenceError after BRENTQ_MAXITER
    iterations.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is nan")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:  # C gives inf or nan here, and bisects
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NonConvergenceError(
        f"brentq did not converge in {BRENTQ_MAXITER} iterations, at x = {xcur}"
    )


# L-BFGS: corrections kept (scipy's maxcor), Armijo constant, and the step
# halvings a line search may take before it gives up
LBFGS_HISTORY = 10
ARMIJO_C1 = 1e-4
MAX_HALVINGS = 60


# an overflowing trial point gives an inf or nan value and is backtracked
# from, with no numpy warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def lbfgs(fun, x0: np.ndarray, gtol: float, maxiter: int):
    """Minimise fun from x0 by L-BFGS with a backtracking (Armijo) line search.

    fun(x) returns (value, gradient); a value of inf marks an x outside the
    domain and is backtracked from.  Stops once every gradient component is
    at most gtol, after maxiter iterations, or when no step along the search
    direction lowers the value (round-off at the minimum, or a line search
    that cannot descend): the caller checks the result.  The first trial
    step has unit length, as in scipy's L-BFGS-B; later ones are scaled by
    the curvature s.y / y.y of the last correction.  Returns (x, iterations).
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    history = deque(maxlen=LBFGS_HISTORY)  # (s, y, 1 / y.s), oldest first
    for iteration in range(maxiter):
        if np.abs(g).max() <= gtol:
            return x, iteration
        # two-loop recursion: d = -H g
        d = -g
        alphas = []
        for s, y, rho in reversed(history):
            alpha = rho * (s @ d)
            d -= alpha * y
            alphas.append(alpha)
        if history:
            s, y, rho = history[-1]
            d *= 1.0 / (rho * (y @ y))
        else:
            d /= np.linalg.norm(d)
        for (s, y, rho), alpha in zip(history, reversed(alphas)):
            d += (alpha - rho * (y @ d)) * s
        slope = g @ d
        if not slope < 0:  # not a descent direction: restart from -g
            history.clear()
            d = -g / np.linalg.norm(g)
            slope = g @ d
        t = 1.0
        for _ in range(MAX_HALVINGS):
            x_new = x + t * d
            f_new, g_new = fun(x_new)
            # strictly lower too: a decrease below the round-off of f is none
            if f_new <= f + ARMIJO_C1 * t * slope and f_new < f:
                break
            t *= 0.5
        else:
            return x, iteration
        s, y = x_new - x, g_new - g
        ys = y @ s
        if ys > 0:  # keep only corrections that the BFGS update can use
            history.append((s, y, 1.0 / ys))
        x, f, g = x_new, f_new, g_new
    return x, maxiter
