"""Hot numerical kernels, vectorized with numpy.

Every closed form and the oracle's spectral sums run through these
functions. Callers look them up as ``K.<name>`` on this module, so a
kernel can be wrapped (timed, traced) in one place.

Kernels never raise domain errors; argument validation lives in the
calling modules.
"""

from __future__ import annotations

import math

import numpy as np

# Switch radius to the Chebyshev branch of sin(dx)/(d sin x). The direct
# ratio loses ~|x| eps / |sin x| absolute accuracy near the poles (the
# rounding of d*x lands on a zero of the numerator), while the Chebyshev
# recurrence stays at ~d^3 eps for any window, so the window is kept wide.
_SIN_EPS = 1e-3

# cos_sum's uniform-grid path: np.linspace drifts ~1 ulp of max|t| from
# t_0 + k dt (its last point is set to t_max exactly), so allow a few
_GRID_ULPS = 8
# lines per GEMM block: at n = 4001 the complex (64 x block) phase and
# exponential blocks are ~4 MB each
_LINE_BLOCK = 4096

# matrices per chunk in scs_overlaps and in entropy_norm_batch for d >= 4:
# bounds their temporaries (a few complex d x d x chunk arrays, ~1.6 MB each
# at d = 7)
_CHUNK = 2048
# entropy_norm_batch's power-sum series for d >= 4 takes the rows with
# nu = ||d M / Tr M - 1||_F <= _NU_MAX and stops at n = _SERIES_N. Every
# |Tr Y^n| <= nu^n, so its truncation error is at most
# nu^(N+1) / (N (N+1) (1 - nu)) = 4.1e-20 nats.
_NU_MAX = 0.1
_SERIES_N = 16


def dirichlet_ratio(d, x):
    """sin(d x) / (d sin x) elementwise, with removable singularities filled.

    Near sin x = 0 the ratio is evaluated as U_{d-1}(cos x)/d via the
    Chebyshev recurrence, which is exact at the singular points.
    """
    x = np.asarray(x, dtype=float)
    s = np.sin(x)
    small = np.abs(s) < _SIN_EPS
    safe = np.where(small, 1.0, s)
    out = np.sin(d * x) / (d * safe)
    if np.any(small):
        c = np.cos(x[small])
        u_prev = np.ones_like(c)
        u = 2.0 * c
        for _ in range(2, d):
            u_prev, u = u, 2.0 * c * u - u_prev
        out[small] = (u if d >= 2 else u_prev) / d
    return out


def dirichlet_ratio_m1(d, x):
    """sin(d x)/(d sin x) - 1, cancellation-free.

    Uses the identity g(x) - 1 = -(2/d) * sum_m sin^2(m x) over the 2S+1
    magnetic quantum numbers m, exact for any x.
    """
    x = np.asarray(x, dtype=float)
    m = 0.5 * (d - 1) - np.arange(d)
    return -(2.0 / d) * np.sum(np.sin(np.multiply.outer(x, m)) ** 2, axis=-1)


def fid_product(d, couplings, times):
    """prod_f sin(d b_f t)/(d sin b_f t) at each t."""
    times = np.asarray(times, dtype=float)
    out = np.ones_like(times)
    for b in couplings:
        out *= dirichlet_ratio(d, b * times)
    return out


def fid_deficit(d, couplings, times):
    """prod_f g(b_f t) - 1 without cancellation (valid while every g > 0).

    Falls back to the direct product when a factor is non-positive, which
    only happens far from t = 0 where the deficit is O(1) anyway.
    """
    times = np.asarray(times, dtype=float)
    m1 = np.array([dirichlet_ratio_m1(d, b * times) for b in couplings])
    ok = np.all(m1 > -1.0, axis=0)
    out = np.expm1(np.sum(np.log1p(m1, where=m1 > -1.0, out=np.zeros_like(m1)), axis=0))
    if not np.all(ok):
        out = np.where(ok, out, fid_product(d, couplings, times) - 1.0)
    return out


def lattice_fid(d, b_matrix, times):
    """Site-averaged Ising FID: mean over probe i of prod_{j != i} g(b_ij t)."""
    n = b_matrix.shape[0]
    return sum(fid_product(d, np.delete(b_matrix[i], i), times) for i in range(n)) / n


def _uniform_step(times):
    """Step of a grid uniform to within a few ulps of max|t|, else None."""
    n = times.size
    if n < 2:
        return None
    step = (times[-1] - times[0]) / (n - 1)
    drift = np.max(np.abs(times - (times[0] + step * np.arange(n))))
    if not drift <= _GRID_ULPS * np.finfo(float).eps * np.max(np.abs(times)):
        return None  # also for NaN
    return step


def cos_sum(weights, freqs, times):
    """sum_p w_p cos(omega_p t) at each t.

    On a uniform grid t_k = t_0 + k dt, k = j L + r with L = ceil(sqrt n),
    the sum is Re(A @ E) with A[j, p] = w_p exp(i omega_p T_j) at the
    coarse times T_j = t_{jL} and E[p, r] = exp(i omega_p r dt). That is
    one complex GEMM per block of lines and ~2 sqrt(n) exponentials per
    line instead of n cosines; the last row's entries past t_{n-1} are
    dropped. It is exact up to roundoff: T_j + r dt differs from t_k only
    by the grid's own few-ulp drift, which ``_uniform_step`` bounds at
    _GRID_ULPS ulps of max|t|. Blocks of _LINE_BLOCK lines bound the
    temporaries to a few complex (sqrt n x block) arrays: a ~13 MB peak
    at n = 4001, against 64 MB for the direct sum. Other grids take the
    direct sum, chunked to 4e6 entries.
    """
    times = np.asarray(times, dtype=float)
    step = _uniform_step(times)
    if step is not None:
        n = times.size
        fine = step * np.arange(math.ceil(math.sqrt(n)))
        coarse = times[::fine.size]
        out = np.zeros((coarse.size, fine.size))
        for lo in range(0, freqs.size, _LINE_BLOCK):
            f = freqs[lo:lo + _LINE_BLOCK]
            a = weights[lo:lo + _LINE_BLOCK] * np.exp(1j * np.multiply.outer(coarse, f))
            out += (a @ np.exp(1j * np.multiply.outer(f, fine))).real
        return out.ravel()[:n]
    out = np.empty_like(times)
    chunk = max(1, int(4e6) // max(1, freqs.size))
    for lo in range(0, times.size, chunk):
        sl = times[lo:lo + chunk]
        out[lo:lo + chunk] = np.cos(np.outer(sl, freqs)) @ weights
    return out


def poly_in_sin2(coeffs, x):
    """sum_n c_n (sin^2 x)^n by Horner's rule."""
    s2 = np.sin(np.asarray(x, dtype=float)) ** 2
    out = np.full_like(s2, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * s2 + c
    return out


def scs_overlaps(rho4, amps):
    """Partial inner products <v_n| rho |v_n> over the first spin.

    rho4 is the pair matrix reshaped (d, d, d, d); amps is (n, d). Returns
    the stack of d x d matrices over the second spin, one per state, as an
    (n, d, d) view of a (d, d, n) array: M_ce(n) = sum_ab rho_acbe W_ab(n)
    with W_ab(n) = conj(c_na) c_nb is the GEMM R @ W of
    R = rho4.transpose(1, 3, 0, 2) as a d^2 x d^2 matrix, one per chunk
    of _CHUNK states.
    """
    n, d = amps.shape
    r = rho4.transpose(1, 3, 0, 2).reshape(d * d, d * d)
    out = np.empty((d * d, n), dtype=complex)
    for lo in range(0, n, _CHUNK):
        a = np.ascontiguousarray(amps[lo:lo + _CHUNK].T)
        out[:, lo:lo + _CHUNK] = r @ (a.conj()[:, None] * a[None]).reshape(d * d, -1)
    return out.reshape(d, d, n).transpose(2, 0, 1)


def _abs2(z):
    """|z|^2 without the rounding of a square root."""
    return z.real**2 + z.imag**2


def _deflated_eigvals3(mats, diag, q, top):
    """x = lambda / q - 1 for 3 x 3 Hermitian M whose top root ``top`` is isolated.

    The lower pair comes from its sum (c1 - P) / top and its product
    P = det M / top, with c1 the sum of the principal 2 x 2 minors. det M is
    the largest diagonal entry times the determinant of the 2 x 2 Schur
    complement on it, so its roundoff scales with the pair rather than with
    M, and a pure state gives exactly (-1, -1, 2). The top x is minus the
    pair's sum, so sum x = 0.
    """
    order = (np.argmax(diag, axis=1)[:, None] + np.arange(3)) % 3
    mp = mats[np.arange(len(mats))[:, None, None], order[:, :, None], order[:, None, :]]
    pivot = mp[:, 0, 0].real  # >= Tr M / 3 > 0
    u, v = mp[:, 1, 0], mp[:, 2, 0]
    s11 = mp[:, 1, 1].real - _abs2(u) / pivot
    s22 = mp[:, 2, 2].real - _abs2(v) / pivot
    det = pivot * (s11 * s22 - _abs2(mp[:, 1, 2] - u * v.conj() / pivot))
    c1 = (diag[:, 0] * diag[:, 1] + diag[:, 0] * diag[:, 2] + diag[:, 1] * diag[:, 2]
          - _abs2(mats[:, 0, 1]) - _abs2(mats[:, 0, 2]) - _abs2(mats[:, 1, 2]))
    half = np.maximum(c1 - det / top, 0.0) / (2.0 * top)
    prod = np.clip(det / top, 0.0, half**2)
    mid = half + np.sqrt(half**2 - prod)
    low = np.divide(prod, mid, out=np.zeros_like(mid), where=mid > 0.0)
    x_low, x_mid = low / q - 1.0, mid / q - 1.0
    return np.stack([x_low, x_mid, -(x_low + x_mid)], axis=1)


def _deviation_eigvals3(mats, tr):
    """Eigenvalues x of 3 M / Tr M - 1 for a stack of 3 x 3 Hermitian M.

    The trigonometric roots of the traceless part A = M - (Tr M / 3) (Smith,
    Commun. ACM 4, 168 (1961)): with p^2 = Tr A^2 / 6 and cos(3 phi) =
    det A / (2 p^3), they are 2p cos(phi + 2 pi k / 3), written out in
    cos phi and sin phi. Their absolute error is ~eps p, and ~sqrt(eps) p
    for the splitting of a near-double root (Kopp, Int. J. Mod. Phys. C 19,
    523 (2008)). A nearly pure state has such a pair at probability ~0,
    where the entropy is most sensitive: the error would reach 1e-13 bits
    for probabilities 1e-4 and 1e-7 bits below 1e-9. Rows whose top root is
    isolated and whose smallest probability is below p^2 / 3 therefore
    take their lower roots from ``_deflated_eigvals3``.
    """
    q = tr / 3.0
    diag = np.einsum("ncc->nc", mats).real
    b, c, f = mats[:, 0, 1], mats[:, 0, 2], mats[:, 1, 2]
    bb, cc, ff = _abs2(b), _abs2(c), _abs2(f)
    a0, a1, a2 = (diag - q[:, None]).T
    p2 = (a0**2 + a1**2 + a2**2 + 2.0 * (bb + cc + ff)) / 6.0
    det_a = (a0 * a1 * a2 + 2.0 * (b * f * c.conj()).real
             - a0 * ff - a1 * cc - a2 * bb)
    den = 2.0 * p2 * np.sqrt(p2)
    # a multiple of the identity has p = 0 and any phi; phi = pi/6 is used
    cos3 = np.divide(det_a, den, out=np.zeros_like(den), where=den > 0.0)
    phi = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0
    p = np.sqrt(p2) / q
    cp, sp = p * np.cos(phi), p * math.sqrt(3.0) * np.sin(phi)
    x = np.stack([-cp - sp, sp - cp, 2.0 * cp], axis=1)
    rows = np.flatnonzero((cos3 >= 0.0) & (p**2 > 1.0 + x[:, 0]))
    if rows.size:
        x[rows] = _deflated_eigvals3(mats[rows], diag[rows], q[rows],
                                     q[rows] * (1.0 + x[rows, 2]))
    return x


def _deviation_eigvals(mats, tr):
    """Eigenvalues x of d M / Tr M - 1 for a stack of d x d Hermitian M.

    d = 2: x = +-sqrt((a - e)^2 + 4|c|^2) / (a + e) for M = [[a, c], [c*, e]].
    d = 3: ``_deviation_eigvals3``. d >= 4: batched ``eigvalsh``, centred so
    that sum x = 0 holds to the roundoff of x rather than of M;
    ``entropy_norm_batch`` needs them there only for the rows its power-sum
    series does not take.
    """
    d = mats.shape[-1]
    if d == 2:
        a, e, c = mats[:, 0, 0].real, mats[:, 1, 1].real, mats[:, 0, 1]
        r = np.sqrt((a - e) ** 2 + 4.0 * _abs2(c)) / tr
        return np.stack([-r, r], axis=1)
    if d == 3:
        return _deviation_eigvals3(mats, tr)
    w = np.linalg.eigvalsh(mats)
    return d * (w - w.mean(axis=1, keepdims=True)) / tr[:, None]


def _eig_deficit(mats, tr):
    """sum_i (1 + x_i) log1p(x_i) over the eigenvalues of ``_deviation_eigvals``.

    Terms with 1 + x <= 0 count as 0 (eigenvalues clipped at zero,
    0 log 0 = 0).
    """
    x = _deviation_eigvals(mats, tr)
    terms = (1.0 + x) * np.log1p(x, where=x > -1.0, out=np.zeros_like(x))
    return np.sum(terms, axis=1)


def _series_deficit(mats, tr):
    """sum_i (1 + x_i) log1p(x_i) from power sums, and the rows it cannot take.

    With Y = d M / Tr M - 1, centred so that Tr Y = 0, and nu^2 = Tr Y^2,
    the deficit is sum_{n >= 2} (-1)^n p_n / (n (n - 1)) with p_n = Tr Y^n,
    truncated at n = _SERIES_N; rows with nu > _NU_MAX come back flagged.
    p_2 ... p_d are Tr(Y^a Y^b) = sum Re(Y^a o conj Y^b) over the powers
    up to Y^ceil(d/2). Newton's identities give the signed elementary
    symmetric polynomials eps_k = (-1)^(k-1) e_k (eps_1 = p_1 = 0), and
    p_n = sum_k eps_k p_(n-k) for n > d: no root is ever found, so
    degenerate spectra cost nothing extra. Y is held (d, d, rows), and no
    sum over entries reduces a lone row pairwise, so a row's value does not
    depend on the rest of its batch.
    """
    d = mats.shape[-1]
    y = np.multiply(mats.transpose(1, 2, 0), d / tr, order="C")
    diag = y.reshape(d * d, -1)[::d + 1].real
    diag -= sum(diag) / d  # the builtin sum adds the d rows in order
    pows = [y]
    row = np.empty_like(y[0])
    for _ in range((d + 1) // 2 - 1):
        prev, nxt = pows[-1], np.empty_like(y)
        for i in range(d):  # Y^k is Hermitian: rows from the diagonal on
            out, tmp = nxt[i, i:], row[i:]
            np.multiply(prev[i, 0], y[0, i:], out=out)
            for j in range(1, d):
                out += np.multiply(prev[i, j], y[j, i:], out=tmp)
            np.conjugate(nxt[i, i + 1:], out=nxt[i + 1:, i])
        pows.append(nxt)
    p = [None, None]
    for n in range(2, d + 1):
        # one real einsum over interleaved (re, im) pairs: a lone row keeps an
        # output axis of length 2, so its entries add in the batch's order
        ya, yb = pows[n // 2 - 1].view(float), pows[n - n // 2 - 1].view(float)
        p.append(np.einsum("ijn,ijn->n", ya, yb).reshape(-1, 2).sum(axis=1))
    eps = [None, None]
    for n in range(2, _SERIES_N + 1):
        acc = np.zeros_like(tr)
        for k in range(2, min(d, n - 2) + 1):
            acc += eps[k] * p[n - k]
        if n <= d:
            eps.append((p[n] - acc) / n)
        else:
            p.append(acc)
    deficit = np.zeros_like(tr)
    for n in range(_SERIES_N, 1, -1):
        deficit += p[n] * ((-1) ** n / (n * (n - 1)))
    return deficit, ~(p[2] <= _NU_MAX**2)


def entropy_norm_batch(mats):
    """Per-matrix (trace, entropy-in-bits of the trace-normalized matrix).

    With x the eigenvalues of d M / Tr M - 1, the entropy is
    log2 d - sum_i (1 + x_i) log1p(x_i) / (d ln 2), so a state near the
    maximally mixed one loses only the roundoff of log2 d. The deficit
    sum comes from the closed-form x of ``_deviation_eigvals`` for d = 2
    and 3. For d >= 4 it is the power-sum series of ``_series_deficit``
    on rows within _NU_MAX of the maximally mixed state, which needs no
    LAPACK call, and ``eigvalsh`` only on the rest (pure, rank-deficient
    or strongly polarized states), in chunks of _CHUNK rows.
    Inputs are Hermitian and PSD up to roundoff, with positive trace.
    """
    d = mats.shape[-1]
    tr = np.einsum("ncc->n", mats).real
    if d < 4:
        deficit = _eig_deficit(mats, tr)
    else:
        deficit = np.empty_like(tr)
        for lo in range(0, tr.size, _CHUNK):
            m, t = mats[lo:lo + _CHUNK], tr[lo:lo + _CHUNK]
            part, far = _series_deficit(m, t)
            if far.any():
                part[far] = _eig_deficit(m[far], t[far])
            deficit[lo:lo + _CHUNK] = part
    # d ln d as d log1p(d - 1): a pure state's one term then cancels it exactly
    ent = (d * np.log1p(d - 1.0) - deficit) / (d * math.log(2.0))
    return tr, ent

