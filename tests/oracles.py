"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (explicit
loops, normal equations, textbook continued fractions) and shares no code
with the package internals.
"""

import math

import numpy as np


def gaussian_kernel_oracle(sigma):
    radius = math.ceil(4.0 * sigma)
    weights = np.array([math.exp(-(d * d) / (2.0 * sigma * sigma))
                        for d in range(-radius, radius + 1)])
    return weights / weights.sum()


def convolve_column_oracle(column, sigma):
    """Zero-padded centered discrete convolution, element by element."""
    kernel = gaussian_kernel_oracle(sigma)
    radius = (len(kernel) - 1) // 2
    n = len(column)
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            d = i - j + radius
            if 0 <= d < len(kernel):
                out[i] += kernel[d] * column[j]
    return out


def smooth_matrix_oracle(matrix, block_ids, sigma):
    matrix = np.asarray(matrix, dtype=float)
    ids = np.asarray(block_ids)
    out = np.zeros_like(matrix)
    for block in dict.fromkeys(ids.tolist()):
        rows = np.flatnonzero(ids == block)
        for j in range(matrix.shape[1]):
            out[rows, j] = convolve_column_oracle(matrix[rows, j], sigma)
    return out


def ridge_normal_eq_oracle(X, Y, X_eval, alpha):
    """(X'X + aI)^-1 X'Y with an unpenalized intercept via centering."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    X_eval = np.asarray(X_eval, float)
    if Y.ndim == 1:
        Y = Y[:, None]
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    if alpha == 0.0:
        W = np.linalg.lstsq(Xc, Yc, rcond=None)[0]
    else:
        W = np.linalg.solve(Xc.T @ Xc + alpha * np.eye(X.shape[1]), Xc.T @ Yc)
    return (X_eval - x_mean) @ W + y_mean


def apply_band_scaling(band_matrices, gamma):
    """Each band's columns times its gamma entry, bands side by side."""
    return np.hstack([g * np.asarray(m, float)
                      for g, m in zip(gamma, band_matrices)])


def block_penalty_oracle(X_bands, Y, Xe_bands, alpha, gamma):
    """Unscaled design with a separate L2 penalty alpha/gamma^2 per band."""
    X = np.hstack([np.asarray(b, float) for b in X_bands])
    Xe = np.hstack([np.asarray(b, float) for b in Xe_bands])
    Y = np.asarray(Y, float)
    if Y.ndim == 1:
        Y = Y[:, None]
    penalties = np.concatenate([
        np.full(b.shape[1], alpha / (g * g))
        for b, g in zip(X_bands, gamma)
    ])
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    W = np.linalg.solve(Xc.T @ Xc + np.diag(penalties), Xc.T @ Yc)
    return (Xe - x_mean) @ W + y_mean


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 500
    eps = 3e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("betacf failed to converge")


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) via the series/continued-fraction split."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf_oracle(t, dof):
    """P(T <= t) for Student-t with ``dof`` degrees of freedom."""
    if t == 0.0:
        return 0.5
    x = dof / (dof + t * t)
    tail = 0.5 * regularized_incomplete_beta(dof / 2.0, 0.5, x)
    return tail if t < 0 else 1.0 - tail


def bh_stepup_oracle(p_values, level):
    """Direct Benjamini-Hochberg step-up on one family of p-values."""
    p = np.asarray(p_values, float)
    m = p.size
    order = np.argsort(p, kind="stable")
    k = 0
    for i in range(m):
        if p[order[i]] <= (i + 1) * level / m:
            k = i + 1
    rejected = np.zeros(m, dtype=bool)
    rejected[order[:k]] = True
    return rejected


def submodel_max_oracle(table, required=None):
    """Per-unit max over subsets by exhaustive python loops."""
    keys = [k for k in table if required is None or required in k]
    n_units = len(next(iter(table.values())))
    out = np.empty(n_units)
    for unit in range(n_units):
        out[unit] = max(table[k][unit] for k in keys)
    return out


def layered_best_oracle(table, order):
    """Filter-then-max per tier: subsets containing the tier's space and
    nothing ranked above it."""
    rank = {s: i for i, s in enumerate(order)}
    result = []
    for i, space in enumerate(order):
        best = -np.inf
        for key, score in table.items():
            if space in key and all(rank[s] <= i for s in key):
                best = max(best, score)
        result.append(best)
    return result


def single_band_alpha_grid_oracle(X, Y, plan, alphas):
    """Plain per-unit alpha-grid selection built from public ops only:
    z-score per fold, pooled validation R^2, argmax, refit, predict."""
    import encodebench as eb

    n, n_units = Y.shape
    test_pred = np.zeros((n, n_units))
    chosen_alpha = np.zeros((len(plan.outer_folds), n_units))
    val_r2 = np.zeros((len(plan.outer_folds), n_units))
    for k, fold in enumerate(plan.outer_folds):
        per_alpha, val_rows, icpt_rows = [], [], []
        for inner in fold.inner_folds:
            xtr, (xva,), _, _ = eb.zscore_fit_apply(
                X[inner.train], [X[inner.validation]])
            per_alpha.append(eb.ridge_solve(xtr, Y[inner.train], xva, alphas))
            val_rows.append(inner.validation)
            icpt_rows.append(np.tile(Y[inner.train].mean(0),
                                     (len(inner.validation), 1)))
        pooled = np.concatenate(per_alpha, axis=1)
        y_val = Y[np.concatenate(val_rows)]
        icpt = np.concatenate(icpt_rows)
        r2 = np.stack([eb.r2_oos(y_val, pooled[a], icpt)
                       for a in range(len(alphas))])
        aidx = np.argmax(r2, axis=0)
        chosen_alpha[k] = np.asarray(alphas)[aidx]
        val_r2[k] = r2[aidx, np.arange(n_units)]
        trval = np.setdiff1d(np.arange(n), fold.test)
        xtr, (xte,), _, _ = eb.zscore_fit_apply(X[trval], [X[fold.test]])
        preds = eb.ridge_solve(xtr, Y[trval], xte, alphas)
        for unit in range(n_units):
            test_pred[fold.test, unit] = preds[aidx[unit], :, unit]
    return test_pred, chosen_alpha, val_r2


def min_norm_ridge_oracle(X, Y, train, eval_rows, alphas, standardize=True):
    """Predictions of ``X[eval_rows]`` per alpha from a fit on
    ``X[train]``: columns z-scored on the training rows (a constant column
    becomes 0; with ``standardize=False`` only centered, so a band scaling
    applied to X stays in effect), ridge by the normal equations, and
    ``alpha = 0`` as the minimum-norm least-squares solution, ``pinv`` with
    singular values below 1e-10 of the largest taken as zero."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    mean = X[train].mean(axis=0)
    std = X[train].std(axis=0)
    scale = np.zeros_like(std)
    scale[std > 0] = 1.0 / std[std > 0]
    if not standardize:
        scale = np.ones_like(std)
    Z = (X[train] - mean) * scale
    Z_eval = (X[eval_rows] - mean) * scale
    y_mean = Y[train].mean(axis=0)
    Yc = Y[train] - y_mean
    out = []
    for alpha in alphas:
        if alpha == 0.0:
            W = np.linalg.pinv(Z, rcond=1e-10) @ Yc
        else:
            W = np.linalg.solve(Z.T @ Z + alpha * np.eye(Z.shape[1]), Z.T @ Yc)
        out.append(Z_eval @ W + y_mean)
    return np.array(out)
