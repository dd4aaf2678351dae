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

# uniform grids for cos_sum's NUFFT: np.linspace drifts ~1 ulp of max|t|
# from t_0 + k dt (its last point is set to t_max exactly), so allow a few
_GRID_ULPS = 8
# lines per NUFFT block: its (2 _NUFFT_TAPS x block) spreading weights and
# indices stay below ~1 MB each
_LINE_BLOCK = 4096
# Gaussian gridding (Dutt & Rokhlin 1993; Greengard & Lee 2004) onto
# m >= _NUFFT_OVERSAMPLE n points, the smallest 5-smooth such m, spacing
# h = 2 pi / m, with the modes |k| <= K = floor(n/2). The kernel is
# exp(-a s^2) in grid units s, spread _NUFFT_TAPS points to each side, and
# a = (pi / T) sqrt(1 - 2K/m) with T = _NUFFT_TAPS balances its two
# errors, relative to sum |w|:
#   - truncation: the dropped taps weigh <= 2 exp(-a T^2), which the
#     deconvolution sqrt(a/pi) exp(tau K^2) <= 0.27 * 4.5 amplifies, with
#     tau = pi^2 / (m^2 a);
#   - aliasing of the mode k - m onto k: exp(-tau m (m - 2K)) = exp(-a T^2).
# With m >= 6K, a T^2 >= pi T sqrt(2/3) = 35.9 at T = 14, so both together
# stay below 3.5 exp(-35.9) = 9e-16. The spread and the FFT add roundoff of
# a few eps log2(m) (measured ~1e-16): the bound is 1e-14 sum |w|, beside
# the eps |omega| max|t| phase roundoff that every path shares. At 12 taps
# the same bound is 1.5e-13.
_NUFFT_TAPS = 14
_NUFFT_OVERSAMPLE = 3

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


def _half_dirichlet(d, x, trig):
    """sum_{0 < m <= S} trig(m x)^2 elementwise, S = (d - 1)/2, for d >= 2."""
    x = np.asarray(x, dtype=float)
    return sum(trig((0.5 * (d - 1) - k) * x) ** 2 for k in range(d // 2))


def dirichlet_ratio_m1(d, x):
    """g(x) - 1 for g(x) = sin(d x) / (d sin x), elementwise, d = 2S + 1.

    g is the Dirichlet kernel (1/d) sum_m cos(2 m x) over the magnetic
    numbers m = -S..S. Pairing +-m and writing cos 2y = 1 - 2 sin^2 y gives
    g - 1 = -(4/d) sum_{0 < m <= S} sin^2(m x): d // 2 sines per point, no
    division, and no cancellation, as every term has the same sign. The
    removable singularities at x = k pi need no branch, and g(0) = 1 exactly.
    """
    return _half_dirichlet(d, x, np.sin) * (-4.0 / d)


def dirichlet_ratio_p1(d, x):
    """g(x) + 1 = (2/d) sum_m cos^2(m x), the other half of ``dirichlet_ratio_m1``.

    Paired as (4/d) (1/2 [d odd] + sum_{0 < m <= S} cos^2(m x)); it does not
    cancel where g = -1 (half-integer S at odd multiples of pi).
    """
    return (0.5 * (d % 2) + _half_dirichlet(d, x, np.cos)) * (4.0 / d)


def dirichlet_ratio(d, x):
    """sin(d x) / (d sin x) elementwise, as 1 + ``dirichlet_ratio_m1``."""
    return 1.0 + dirichlet_ratio_m1(d, x)


def fid_deficit(d, couplings, times):
    """prod_f g(b_f t) - 1 at each t, by D <- D + m_f (1 + D) with m_f = g(b_f t) - 1.

    Every m_f <= 0 and every partial product 1 + D lies in [-1, 1], so near
    t = 0, where the deficit is small, all updates add terms of one sign.
    """
    times = np.asarray(times, dtype=float)
    out = np.zeros_like(times)
    for b in couplings:
        out += dirichlet_ratio_m1(d, b * times) * (1.0 + out)
    return out


def fid_product(d, couplings, times):
    """prod_f sin(d b_f t)/(d sin b_f t) at each t, as 1 + ``fid_deficit``."""
    return 1.0 + fid_deficit(d, couplings, times)


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


def _fft_size(n):
    """Smallest 2^i 3^j 5^k >= n."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _nufft_cos_sum(weights, freqs, times, step):
    """cos_sum on a uniform grid by a type-1 NUFFT; see ``cos_sum``."""
    n, taps = times.size, _NUFFT_TAPS
    half = n // 2
    m = _fft_size(_NUFFT_OVERSAMPLE * n)
    a = math.pi / taps * math.sqrt(1.0 - 2.0 * half / m)
    offsets = np.arange(1 - taps, taps + 1)
    e3 = np.exp(-a * offsets[:, None] ** 2.0)
    # grid points l0 + offset are stored at l0 + offset + shift >= 0 and
    # folded back modulo m once, after the last block
    shift = m // 2 + taps
    size = m + 2 * taps + 1
    spread = (np.zeros(size), np.zeros(size))
    g = np.empty((2 * taps, min(_LINE_BLOCK, freqs.size)))
    for lo in range(0, freqs.size, _LINE_BLOCK):
        f = freqs[lo:lo + _LINE_BLOCK]
        # omega dt in grid units, reduced to [-m/2, m/2] by an exact
        # integer shift (a no-op when |omega dt| <= pi)
        u = f * (step * (m / (2.0 * math.pi)))
        u -= m * np.round(u / m)
        l0 = np.floor(u)
        d = u - l0
        # exp(-a (j - d)^2) = exp(-a d^2) exp(2 a d)^j exp(-a j^2), the
        # powers taken outward from j = 0 (Greengard & Lee, sec. 3)
        gb = g[:, :f.size]
        e2 = np.exp(2.0 * a * d)
        gb[taps - 1] = np.exp(-a * d * d)
        for j in range(taps, 2 * taps):
            np.multiply(gb[j - 1], e2, out=gb[j])
        np.reciprocal(e2, out=e2)
        for j in range(taps - 2, -1, -1):
            np.multiply(gb[j + 1], e2, out=gb[j])
        gb *= e3
        idx = ((l0.astype(np.intp) + shift) + offsets[:, None]).ravel()
        phase = f * times[half]
        w = weights[lo:lo + _LINE_BLOCK]
        for acc, part in zip(spread, (np.cos(phase), np.sin(phase))):
            acc += np.bincount(idx, weights=(gb * (w * part)).ravel(), minlength=size)
    fold = (np.arange(size) - shift) % m
    grid = np.bincount(fold, spread[0], m) + 1j * np.bincount(fold, spread[1], m)
    k = np.arange(-half, n - half)
    tau = math.pi**2 / (m * m * a)
    return np.fft.ifft(grid)[k % m].real * (m * math.sqrt(a / math.pi) * np.exp(tau * k * k))


def cos_sum(weights, freqs, times):
    """sum_p w_p cos(omega_p t) at each t.

    A uniform grid t_k = t_0 + k dt, of any size, takes a type-1
    nonuniform FFT (Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1368 (1993);
    Greengard & Lee, SIAM Rev. 46, 443 (2004)). Centred on t_c = t_{n//2},
    with k' = k - n//2, the sum is Re sum_p c_p e^{i k' x_p} with
    c_p = w_p e^{i omega_p t_c} and x_p = omega_p dt reduced to [-pi, pi].
    Each line is spread onto an oversampled periodic grid by a Gaussian of
    _NUFFT_TAPS points per side; one inverse FFT and a division by the
    Gaussian's Fourier transform give every k'. Its error, derived beside
    the constants, is <= 1e-14 sum |w| besides the eps |omega| max|t| phase
    roundoff that every evaluation shares: 100x below the tightest oracle
    test tolerance (1e-12), so the oracle's FID stays an independent check.
    Memory is a few arrays of 2 _NUFFT_TAPS x _LINE_BLOCK entries and the
    ~3n-point grid. The NUFFT reads t_k as t_0 + k dt, which ``_uniform_step``
    bounds at _GRID_ULPS ulps of max|t| from the grid's own points.

    Other grids take the direct sum, chunked to 4e6 entries.
    """
    times = np.asarray(times, dtype=float)
    step = _uniform_step(times)
    if step is not None:
        return _nufft_cos_sum(weights, freqs, times, step)
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

    rho4 is the pair matrix reshaped (d, d, d, d), or a stack of T of them
    (T, d, d, d, d); amps is (n, d). Returns the d x d matrices over the
    second spin, one per member and state, member-major, as a (T n, d, d)
    view of a (d, d, T n) array: M_ce(n) = sum_ab rho_acbe W_ab(n) with
    W_ab(n) = conj(c_na) c_nb is the GEMM R @ W of R =
    rho4.transpose(1, 3, 0, 2) as a d^2 x d^2 matrix, one per member and
    chunk of _CHUNK states.
    """
    n, d = amps.shape
    r = rho4.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(-1, d * d, d * d)
    out = np.empty((d * d, len(r), n), dtype=complex)
    for lo in range(0, n, _CHUNK):
        a = np.ascontiguousarray(amps[lo:lo + _CHUNK].T)
        np.matmul(r, (a.conj()[:, None] * a[None]).reshape(d * d, -1),
                  out=out[:, :, lo:lo + _CHUNK].transpose(1, 0, 2))
    return out.reshape(d, d, -1).transpose(2, 0, 1)


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

