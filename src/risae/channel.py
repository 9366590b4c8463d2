"""Finite-scattering correlated fading channels for the double-RIS link.

Every link (encoder->RIS, RIS->decoder, RIS->RIS, and the adversary
counterparts) is Rician: a rank-one steering-vector line-of-sight component
plus a correlated double-scattering NLoS sample that factors through a
finite set of scatterers. Channels are flat in frequency and static over one
coherence block; a realization stores one matrix per link and every symbol
of the block reuses it.

Sampling is pure given an owned seeded generator, so independent
realizations can be produced concurrently from independent streams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .linalg import hermitian_sqrt

# (row array, column array) of every link, in sampling order: a link matrix
# maps the column array's signal onto the row array, and both its LoS
# steering vectors and its NLoS correlation factors belong to these arrays
LINK_ENDS = {
    "u1": ("ris1", "enc"), "u2": ("ris2", "enc"),
    "y1": ("dec", "ris1"), "y2": ("dec", "ris2"),
    "e": ("ris2", "ris1"),
    "u1p": ("ris1", "adv"), "u2p": ("ris2", "adv"),
    "y1p": ("dec", "ris1"), "y2p": ("dec", "ris2"),
    "ep": ("ris1", "ris2"),
}


# ---------------------------------------------------------------------------
# array geometry
# ---------------------------------------------------------------------------

# Every array's element spacing, in wavelengths, and the angular spread, in
# radians, of the scattering that each array and the scatterer set see
SPACING = 0.5
SPREAD = np.pi / 2
# Rician factor (LoS to NLoS power) and large-scale gain of every link
KAPPA = 0.2
OMEGA = 1.0


@dataclass(frozen=True)
class ArrayGeometry:
    """UPA layout: count_v x count_h elements at ``SPACING`` on both axes. A
    linear array is a 1 x count layout, steered by azimuth alone."""

    count_v: int
    count_h: int

    def correlation(self, num_scatterers: int) -> np.ndarray:
        """Full-array correlation as the Kronecker product of the two axis
        correlations, matching the a_v kron a_h steering structure; a linear
        array's vertical factor is [[1]]."""
        r_v = corr_uniform(self.count_v, num_scatterers)
        r_h = corr_uniform(self.count_h, num_scatterers)
        return np.kron(r_v, r_h)


# ---------------------------------------------------------------------------
# steering vectors
# ---------------------------------------------------------------------------

def steering_ula(count: int, angle) -> np.ndarray:
    """ULA response: element n = exp(j 2 pi SPACING n sin(angle)), 0-based n.

    `angle` may be a scalar or an array; an array produces a batch of
    steering vectors with the batch axes leading.
    """
    angle = np.asarray(angle, dtype=np.float64)
    n = np.arange(count, dtype=np.float64)
    phase = 2.0 * np.pi * SPACING * np.sin(angle)[..., None] * n
    return np.exp(1j * phase)


def steering_upa(geom: ArrayGeometry, azimuth, elevation) -> np.ndarray:
    """UPA response a = a_v kron a_h; vertical axis steers by elevation."""
    a_v = steering_ula(geom.count_v, elevation)
    a_h = steering_ula(geom.count_h, azimuth)
    outer = a_v[..., :, None] * a_h[..., None, :]
    return outer.reshape(*outer.shape[:-2], geom.count_v * geom.count_h)


# ---------------------------------------------------------------------------
# correlation matrices and Gaussian draws
# ---------------------------------------------------------------------------

def corr_uniform(count: int, num_scatterers: int) -> np.ndarray:
    """Uniform-array correlation over a finite set of scatterers.

    Entry (m, n) = SC^-1 sum_k exp(j 2 pi SPACING (m - n) sin(k SPREAD / (1 - SC)))
    with k running over the SC values {-a, -a+1, ..., a}, a = (SC - 1)/2
    (half-integer endpoints when SC is even). The single-scatterer case
    degenerates to the all-ones matrix. Hermitian with unit diagonal and PSD
    by construction (mixture of steering outer products).
    """
    sc = num_scatterers
    if sc == 1:
        return np.ones((count, count), dtype=np.complex128)
    a = 0.5 * (sc - 1)
    k = -a + np.arange(sc, dtype=np.float64)
    beta = k * SPREAD / (1.0 - sc)
    q = np.arange(count, dtype=np.float64)[:, None] - np.arange(count, dtype=np.float64)[None, :]
    phases = 2.0 * np.pi * SPACING * q[..., None] * np.sin(beta)
    r = np.exp(1j * phases).sum(axis=-1) / sc
    np.fill_diagonal(r, 1.0)  # q = 0 terms are exactly SC * exp(0)
    return r


def crandn(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly symmetric complex Gaussian draws, CN(0, 1)."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    z = np.empty(re.shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    z /= np.sqrt(2.0)
    return z


# ---------------------------------------------------------------------------
# per-block realizations
# ---------------------------------------------------------------------------

class ChannelBatch:
    """A batch of independent coherence-block realizations.

    Each link of LINK_ENDS reads as a (batch, rows, cols) array; links are
    static within a block, so one matrix per block serves every symbol of
    it. Legitimate links: u1 (A1 x N_t), u2 (A2 x N_t), y1 (N_r x A1),
    y2 (N_r x A2), e (A2 x A1). Adversary links carry a 'p' suffix; note
    ep is A1 x A2 (the reverse inter-surface direction). Each link is given
    as a function of no arguments that builds it on its first read, so the
    adversary links, which only the double attack channel reads, are
    otherwise never built.
    """

    def __init__(self, **builders):
        self._builders = builders

    def __getattr__(self, name: str) -> np.ndarray:
        builder = self.__dict__.get("_builders", {}).pop(name, None)
        if builder is None:
            raise AttributeError(name)
        link = builder()
        setattr(self, name, link)
        return link

    def __len__(self) -> int:
        return len(self.u1)


class ChannelModel:
    """Precomputed correlation structure for a system configuration.

    The correlation matrices depend only on the array sizes and the
    scatterer count, so their square-root factors are computed once and
    reused for every draw.
    """

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        sc = cfg.num_scatterers
        # geometry and correlation square root of every array a link ends on
        self._geom = {
            "enc": ArrayGeometry(1, cfg.n_t), "dec": ArrayGeometry(1, cfg.n_r),
            "adv": ArrayGeometry(1, cfg.n_t),
            "ris1": ArrayGeometry(cfg.a1_v, cfg.a1_h), "ris2": ArrayGeometry(cfg.a2_v, cfg.a2_h),
        }
        self._f = {name: hermitian_sqrt(geom.correlation(sc)) for name, geom in self._geom.items()}
        self._f["sc"] = hermitian_sqrt(corr_uniform(sc, sc))

    # -- LoS -----------------------------------------------------------------

    def _los_batch(self, name: str, az: np.ndarray, el: np.ndarray) -> np.ndarray:
        """Batch of rank-one LoS matrices, one per row of the (n, 2) azimuths
        and elevations: column 0 holds the link's arrival (row array) angles,
        column 1 its departure (column array) angles."""
        rows, cols = LINK_ENDS[name]
        rx = steering_upa(self._geom[rows], az[:, 0], el[:, 0])
        tx = steering_upa(self._geom[cols], az[:, 1], el[:, 1])
        return rx[:, :, None] * tx[:, None, :]

    # -- sampling ------------------------------------------------------------

    def _link(self, name: str, az: np.ndarray, el: np.ndarray, q: np.ndarray,
              p: np.ndarray) -> np.ndarray:
        """One link of a batch from the draws ``sample_batch`` took for it."""
        rows, cols = LINK_ENDS[name]
        n, sc = len(az), self.cfg.num_scatterers
        w_los = np.sqrt(OMEGA) * np.sqrt(KAPPA / (KAPPA + 1.0))
        w_nlos = np.sqrt(OMEGA) * np.sqrt(1.0 / (KAPPA + 1.0))
        # Q R_sc^0.5 and P R_tx^0.5 as one GEMM each over the stacked blocks
        q = (q @ self._f["sc"]).reshape(n, -1, sc)
        p = (p @ self._f[cols]).reshape(n, sc, -1)
        nlos = self._f[rows] @ q @ p / np.sqrt(sc)
        return w_los * self._los_batch(name, az, el) + w_nlos * nlos

    def sample_batch(self, n: int, rng: np.random.Generator) -> ChannelBatch:
        """Draw n independent coherence-block realizations.

        Each link is sqrt(OMEGA) (sqrt(k/(k+1)) LoS + sqrt(1/(k+1)) NLoS),
        k = KAPPA, with the double-scattering NLoS draw
        SC^-0.5 R_rx^0.5 Q R_sc^0.5 P R_tx^0.5,
        where R_rx belongs to the link's row (receive) array and R_tx to its
        column (transmit) array, and Q (N_rx x SC) and P (SC x N_tx) hold
        i.i.d. CN(0, 1) entries, so the NLoS part has rank at most SC. Every
        draw is taken here, per link (in LINK_ENDS order): LoS azimuths,
        uniform on [-pi, pi), and elevations, on [-pi/2, pi/2], first, then
        Q, then P. A link is built from its draws on its first read.
        """
        sc = self.cfg.num_scatterers
        builders = {}
        for name, (rows, cols) in LINK_ENDS.items():
            az = rng.uniform(-np.pi, np.pi, size=(n, 2))
            el = rng.uniform(-np.pi / 2, np.pi / 2, size=(n, 2))
            q = crandn(rng, (n * self._f[rows].shape[0], sc))
            p = crandn(rng, (n * sc, self._f[cols].shape[0]))
            builders[name] = functools.partial(self._link, name, az, el, q, p)
        return ChannelBatch(**builders)
