"""Hot numerical kernels, vectorized with numpy.

Every closed form and the oracle's spectral sums run through these
functions. Callers look them up as ``K.<name>`` on this module, so a
kernel can be wrapped (timed, traced) in one place.

Kernels never raise domain errors; argument validation lives in the
calling modules.
"""

from __future__ import annotations

import numpy as np

# Switch radius to the Chebyshev branch of sin(dx)/(d sin x). The direct
# ratio loses ~|x| eps / |sin x| absolute accuracy near the poles (the
# rounding of d*x lands on a zero of the numerator), while the Chebyshev
# recurrence stays at ~d^3 eps for any window, so the window is kept wide.
_SIN_EPS = 1e-3


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
    times = np.asarray(times, dtype=float)
    n = b_matrix.shape[0]
    acc = np.zeros_like(times)
    for i in range(n):
        row = np.ones_like(times)
        for j in range(n):
            if j != i:
                row *= dirichlet_ratio(d, b_matrix[i, j] * times)
        acc += row
    return acc / n


def cos_sum(weights, freqs, times):
    """sum_p w_p cos(omega_p t) at each t, chunked to bound temporaries."""
    times = np.asarray(times, dtype=float)
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
    the stack of d x d matrices over the second spin, one per state.
    """
    return np.einsum("na,acbe,nb->nce", amps.conj(), rho4, amps, optimize=True)


def entropy_norm_batch(mats):
    """Per-matrix (trace, entropy-in-bits of the trace-normalized matrix).

    Eigenvalues are clipped at zero; 0 log 0 = 0. Inputs are Hermitian and
    PSD up to roundoff.
    """
    tr = np.einsum("ncc->n", mats).real
    w = np.linalg.eigvalsh(mats)
    p = np.clip(w, 0.0, None) / tr[:, None]
    ent = -np.sum(np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0), axis=1)
    return tr, ent


def vn_info_grid(rho4, dirs, s2_bits):
    """Post-measurement mutual information for a batch of spin-1/2 axes.

    rho4 is a two-qubit state reshaped (2, 2, 2, 2); dirs is (n, 3) unit
    vectors; s2_bits is the (measurement-invariant) entropy of the second
    marginal. Returns I(Pi(rho)) per direction.
    """
    n = dirs.shape[0]
    sig = np.zeros((n, 2, 2), dtype=complex)
    sig[:, 0, 0] = dirs[:, 2]
    sig[:, 1, 1] = -dirs[:, 2]
    sig[:, 0, 1] = dirs[:, 0] - 1j * dirs[:, 1]
    sig[:, 1, 0] = dirs[:, 0] + 1j * dirs[:, 1]
    p_up = 0.5 * (np.eye(2) + sig)
    p_dn = 0.5 * (np.eye(2) - sig)
    rho = rho4.reshape(4, 4)
    eye2 = np.eye(2)
    a_up = np.einsum("nab,ce->nacbe", p_up, eye2).reshape(n, 4, 4)
    a_dn = np.einsum("nab,ce->nacbe", p_dn, eye2).reshape(n, 4, 4)
    meas = a_up @ rho @ a_up + a_dn @ rho @ a_dn
    _, s12 = entropy_norm_batch(meas)
    m1 = np.einsum("nacbc->nab", meas.reshape(n, 2, 2, 2, 2))
    _, s1 = entropy_norm_batch(m1)
    return s1 + s2_bits - s12
