"""Collocation solver for two-point boundary value problems, in numpy.

A step for step port of scipy.integrate.solve_bvp, the residual-control
method of Kierzenka & Shampine (ACM TOMS 27(3), 2001): a C1 cubic spline
collocated at interval midpoints (4th-order Lobatto IIIA), Newton on the
collocation residuals with Jacobian reuse and Armijo backtracking, and mesh
refinement on a 5-point Lobatto estimate of the RMS relative residual, all
with scipy's constants; the iterates, meshes and counts are scipy's.  Three
things differ:

- the caller passes analytic Jacobians of the right-hand side and the
  boundary conditions (scipy would difference them);
- each Newton system, bordered block-bidiagonal, is factored by
  structured-QR cyclic reduction (S. J. Wright, SIAM J. Sci. Stat. Comput.
  13, 1992) instead of a sparse LU.  Block elimination without orthogonal
  steps is unstable on systems with growing and decaying modes, which the
  full shell system has;
- the residual estimate reuses Newton's last evaluation of fun and bc.

Only real problems with no singular term are handled.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(float).eps

# Newton (scipy's solve_newton): factorizations and iterations per mesh, the
# Armijo constant, the backtracking factor and the backtracking steps
MAX_NJEV = 4
MAX_NEWTON_ITER = 8
ARMIJO_SIGMA = 0.2
BACKTRACK = 0.5
N_TRIAL = 4
# meshes per solve
MAX_ITERATION = 10

TERMINATION_MESSAGES = {
    0: "The algorithm converged to the desired accuracy.",
    1: "The maximum number of mesh nodes is exceeded.",
    2: "A singular Jacobian encountered when solving the collocation system.",
    3: "The solver was unable to satisfy boundary conditions tolerance on iteration "
    f"{MAX_ITERATION}.",
}


class CubicHermite:
    """The C1 cubic through values y and slopes yp at the nodes x, with
    scipy's PPoly coefficients and evaluation order; extrapolates with the
    end pieces."""

    def __init__(self, x, y, yp):
        h = np.diff(x)
        slope = (y[:, 1:] - y[:, :-1]) / h
        t = (yp[:, :-1] + yp[:, 1:] - 2 * slope) / h
        self.x = x
        # highest power first, (4, n, m - 1)
        self.c = np.stack([t / h, (slope - yp[:, :-1]) / h - t, yp[:, :-1], y[:, :-1]])

    def __call__(self, xp, nu: int = 0):
        """Values (nu = 0) or first derivatives (nu = 1) at xp, shape (n, len(xp))."""
        x = self.x
        i = np.clip(np.searchsorted(x, xp, side="right") - 1, 0, len(x) - 2)
        s = xp - x[i]
        c0, c1, c2, c3 = self.c[:, :, i]
        if nu == 0:
            s2 = s * s
            return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)
        return c2 + c1 * s * 2.0 + c0 * (s * s) * 3.0


class BVPResult:
    """What solve_bvp returns: the final mesh x, values y and parameters p,
    the interpolant sol, the RMS relative residual per interval, the meshes
    solved (niter), the Newton Jacobians factored over all of them
    (jacobians), and the status (0 converged) with its message."""

    def __init__(self, sol, x, y, p, rms_residuals, niter, jacobians, status):
        self.sol, self.x, self.y, self.p = sol, x, y, p
        self.rms_residuals = rms_residuals
        self.niter, self.jacobians = niter, jacobians
        self.status, self.message = status, TERMINATION_MESSAGES[status]

    @property
    def max_rms_residual(self) -> float:
        return float(np.max(self.rms_residuals))


class _CyclicReduction:
    """Factorization of the Newton system of the collocation residuals

        A_i y_i + C_i y_{i+1} + P_i p = r_i      (intervals i = 0 .. m-2)
        Ba y_0 + Bb y_{m-1} + Bp p = r_bc        (n + k boundary rows)

    Each level pairs intervals (2j, 2j+1) and eliminates their shared node
    by a QR factorization of its two n x n blocks [C_2j; A_2j+1]: the lower
    n rows of Q^T applied to the pair are one interval equation on the
    coarser mesh, the upper n rows give the eliminated node back.  With an
    odd count the last interval passes to the next level as it is.  The last
    interval equation and the boundary rows form one dense (2n+k)^2 system.
    Every operator a solve applies is built here, so a solve is a few batched
    matrix products per level.
    """

    def __init__(self, A, C, P, Ba, Bb, Bp):
        n = self.n = A.shape[1]
        blocks = np.concatenate([A, C, P], axis=2)  # [A_i C_i P_i] per interval
        boundary = np.concatenate([Ba, Bb, Bp], axis=1)
        # QR and inv give finite garbage for some non-finite blocks
        if not (np.isfinite(blocks).all() and np.isfinite(boundary).all()):
            raise np.linalg.LinAlgError("non-finite Jacobian")
        self.levels = []
        while len(blocks) > 1:
            q = len(blocks) // 2
            # [[A_2j C_2j P_2j], [A_2j+1 C_2j+1 P_2j+1]]
            pair = np.concatenate([blocks[0:2 * q:2], blocks[1:2 * q:2]], axis=1)
            Q, R = np.linalg.qr(
                np.concatenate([pair[:, :n, n:2 * n], pair[:, n:, :n]], axis=1), mode="complete"
            )
            pair[:, :n, n:2 * n] = pair[:, n:, :n] = 0.0
            Qt = Q.transpose(0, 2, 1)
            reduced = Qt @ pair
            # node 2j+1 = back[:, :, :2n] r_pair - back[:, :, 2n:] [y_2j; y_2j+2; p]
            back = np.linalg.inv(R[:, :n]) @ np.concatenate([Qt[:, :n], reduced[:, :n]], axis=2)
            # one product gives back[:, :, :2n] r_pair and the coarse right-hand side
            forward = np.concatenate([back[:, :, :2 * n], Qt[:, n:]], axis=1)
            self.levels.append((q, forward, back[:, :, 2 * n:4 * n], back[:, :, 4 * n:]))
            blocks = np.concatenate([reduced[:, n:], blocks[2 * q:]])
        self.final_inv = np.linalg.inv(np.concatenate([blocks[0], boundary]))

    def solve(self, r, r_bc):
        """The Newton step for collocation residuals r (m - 1, n) and boundary
        residuals r_bc: node values (m, n) and parameters (k,)."""
        n = self.n
        tops = []
        for q, forward, _, _ in self.levels:
            out = (forward @ r[:2 * q].reshape(q, 2 * n, 1))[:, :, 0]
            tops.append(out[:, :n])
            r = out[:, n:] if len(r) == 2 * q else np.concatenate([out[:, n:], r[2 * q:]])
        z = self.final_inv @ np.concatenate([r[0], r_bc])
        p = z[2 * n:]
        y = z[:2 * n].reshape(2, n)
        for (q, _, back_y, back_p), top in zip(reversed(self.levels), reversed(tops)):
            # y holds the nodes 0, 2, .., 2q (and 2q+1 with an odd count) of
            # this level; row j of ends is [y_2j; y_2j+2]
            ends = np.concatenate([y[:q], y[1:q + 1]], axis=1)
            fine = np.empty((len(y) + q, n))
            fine[0:2 * q + 1:2] = y[:q + 1]
            fine[1:2 * q:2] = top - (back_y @ ends[:, :, None])[:, :, 0] - back_p @ p
            fine[2 * q + 1:] = y[q + 1:]
            y = fine
        return y, p


def _collocation(fun, y, p, x, h):
    """Collocation residuals (n, m-1), midpoint values, node and midpoint slopes."""
    f = fun(x, y, p)
    y_middle = 0.5 * (y[:, 1:] + y[:, :-1]) - 0.125 * h * (f[:, 1:] - f[:, :-1])
    f_middle = fun(x[:-1] + 0.5 * h, y_middle, p)
    col_res = y[:, 1:] - y[:, :-1] - h / 6 * (f[:, :-1] + f[:, 1:] + 4 * f_middle)
    return col_res, y_middle, f, f_middle


# a non-finite Jacobian reaches the finiteness check of the factorization
# with no numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _factor(fun_jac, bc_jac, x, h, y, p, y_middle):
    """The Newton system's blocks (scipy's construct_global_jac), factored."""
    n = len(y)
    df_dy, df_dp = fun_jac(x, y, p)
    df_dy_middle, df_dp_middle = fun_jac(x[:-1] + 0.5 * h, y_middle, p)
    df_dy = np.transpose(df_dy, (2, 0, 1))
    df_dy_middle = np.transpose(df_dy_middle, (2, 0, 1))
    h = h[:, None, None]
    eye = np.identity(n)
    A = -eye - h / 6 * (df_dy[:-1] + 2 * df_dy_middle) - h**2 / 12 * (df_dy_middle @ df_dy[:-1])
    C = eye - h / 6 * (df_dy[1:] + 2 * df_dy_middle) + h**2 / 12 * (df_dy_middle @ df_dy[1:])
    df_dp = np.transpose(df_dp, (2, 0, 1))
    df_dp_middle = np.transpose(df_dp_middle, (2, 0, 1))
    df_dp_middle = df_dp_middle + 0.125 * h * (df_dy_middle @ (df_dp[:-1] - df_dp[1:]))
    P = -h / 6 * (df_dp[:-1] + df_dp[1:] + 4 * df_dp_middle)
    Ba, Bb, Bp = bc_jac(y[:, 0], y[:, -1], p)
    return _CyclicReduction(A, C, P, Ba, Bb, Bp)


def _newton(fun, bc, fun_jac, bc_jac, x, h, y, p, tol):
    """scipy's solve_newton: returns y, p, col_res, f, f_middle and bc_res at
    them, the Jacobians factored and whether one was singular."""
    # midpoint residuals r_middle = 1.5 col_res / h, to 1.5 orders below tol
    tol_r = 2 / 3 * h * 5e-2 * tol
    col_res, y_middle, f, f_middle = _collocation(fun, y, p, x, h)
    bc_res = bc(y[:, 0], y[:, -1], p)
    njev = 0
    recompute_jac = True
    for _ in range(MAX_NEWTON_ITER):
        if recompute_jac:
            njev += 1
            try:
                factored = _factor(fun_jac, bc_jac, x, h, y, p, y_middle)
            except np.linalg.LinAlgError:
                return y, p, col_res, f, f_middle, bc_res, njev, True
            y_step, p_step = factored.solve(col_res.T, bc_res)
            cost = _cost(y_step, p_step)
        alpha = 1
        for trial in range(N_TRIAL + 1):
            y_new = y - alpha * y_step.T
            p_new = p - alpha * p_step
            col_res, y_middle, f, f_middle = _collocation(fun, y_new, p_new, x, h)
            bc_res = bc(y_new[:, 0], y_new[:, -1], p_new)
            y_step_new, p_step_new = factored.solve(col_res.T, bc_res)
            cost_new = _cost(y_step_new, p_step_new)
            if cost_new < (1 - 2 * alpha * ARMIJO_SIGMA) * cost:
                break
            if trial < N_TRIAL:
                alpha *= BACKTRACK
        y, p = y_new, p_new
        if njev == MAX_NJEV:
            break
        if (np.all(np.abs(col_res) < tol_r * (1 + np.abs(f_middle)))
                and np.all(np.abs(bc_res) < tol)):
            break
        # after a full step keep the Jacobian (the approach of BVP_SOLVER)
        if alpha == 1:
            y_step, p_step, cost = y_step_new, p_step_new, cost_new
            recompute_jac = False
        else:
            recompute_jac = True
    return y, p, col_res, f, f_middle, bc_res, njev, False


def _cost(y_step, p_step):
    """The affine-invariant criterion ||J^-1 r||^2."""
    return np.dot(y_step.ravel(), y_step.ravel()) + np.dot(p_step, p_step)


def _rms_residuals(fun, sol, x, h, p, r_middle, f_middle):
    """RMS relative residual per interval by 5-point Lobatto quadrature (the
    residual vanishes at the nodes)."""
    x_middle = x[:-1] + 0.5 * h
    s = 0.5 * h * (3 / 7) ** 0.5
    x1, x2 = x_middle + s, x_middle - s
    y1, y2 = sol(x1), sol(x2)
    f1, f2 = fun(x1, y1, p), fun(x2, y2, p)
    r1 = (sol(x1, 1) - f1) / (1 + np.abs(f1))
    r2 = (sol(x2, 1) - f2) / (1 + np.abs(f2))
    r_middle = r_middle / (1 + np.abs(f_middle))
    r1 = np.sum(r1 * r1, axis=0)
    r2 = np.sum(r2 * r2, axis=0)
    r_middle = np.sum(r_middle * r_middle, axis=0)
    return (0.5 * (32 / 45 * r_middle + 49 / 90 * (r1 + r2))) ** 0.5


def _refine(x, insert_1, insert_2):
    """x with one node inserted mid-interval in insert_1 and two, at thirds,
    in insert_2."""
    return np.sort(np.hstack((
        x,
        0.5 * (x[insert_1] + x[insert_1 + 1]),
        (2 * x[insert_2] + x[insert_2 + 1]) / 3,
        (x[insert_2] + 2 * x[insert_2 + 1]) / 3,
    )))


def solve_bvp(fun, bc, x, y, p=None, *, fun_jac, bc_jac, tol=1e-3, max_nodes=1000):
    """Solve y' = fun(x, y, p) on [x[0], x[-1]] with bc(y(a), y(b), p) = 0.

    Arguments and result follow scipy.integrate.solve_bvp: fun(x, y, p) takes
    x (m,), y (n, m) and p (k,) and returns (n, m); bc returns (n + k,).
    fun_jac(x, y, p) returns df/dy (n, n, m) and df/dp (n, k, m); bc_jac(ya,
    yb, p) returns dbc/dya (n + k, n), dbc/dyb (n + k, n) and dbc/dp
    (n + k, k).  x is the initial mesh, strictly increasing; y the guess on
    it.  A mesh is refined until the RMS relative residual is below tol on
    every interval and the boundary residuals below tol, for at most
    MAX_ITERATION meshes and max_nodes nodes.  Returns a BVPResult.
    """
    x = np.asarray(x, dtype=float)
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("x must be strictly increasing")
    y = np.asarray(y, dtype=float)
    p = np.empty(0) if p is None else np.asarray(p, dtype=float)
    tol = max(tol, 100 * EPS)
    iteration = jacobians = 0
    while True:
        y, p, col_res, f, f_middle, bc_res, njev, singular = _newton(
            fun, bc, fun_jac, bc_jac, x, h, y, p, tol
        )
        iteration += 1
        jacobians += njev
        sol = CubicHermite(x, y, f)
        rms_res = _rms_residuals(fun, sol, x, h, p, 1.5 * col_res / h, f_middle)
        if singular:
            status = 2
            break
        insert_1, = np.nonzero((rms_res > tol) & (rms_res < 100 * tol))
        insert_2, = np.nonzero(rms_res >= 100 * tol)
        nodes_added = insert_1.shape[0] + 2 * insert_2.shape[0]
        if len(x) + nodes_added > max_nodes:
            status = 1
            break
        if nodes_added > 0:
            x = _refine(x, insert_1, insert_2)
            h = np.diff(x)
            y = sol(x)
        elif np.max(abs(bc_res)) <= tol:
            status = 0
            break
        elif iteration >= MAX_ITERATION:
            status = 3
            break
    return BVPResult(sol, x, y, p, rms_res, iteration, jacobians, status)
