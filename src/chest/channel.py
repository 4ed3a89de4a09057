"""Channel synthesis: space-frequency channel matrices, the structural
pilot-grid covariance, and the average channel gain.

Every function takes the paths' responses, the steering matrix A (n_rx, L)
and the frequency response K (n_sc, L) or its pilot rows, with their mean
amplitudes, never the path geometry.  Channel matrices are plain complex
ndarrays of shape (..., n_rx, n_sc); a leading batch axis holds independent
symbols/trials.
"""
from __future__ import annotations

import numpy as np


def assemble_channel(steering: np.ndarray, fading: np.ndarray,
                     freq: np.ndarray) -> np.ndarray:
    """H = A diag(c) K^T for one symbol, or a batch if ``fading`` is (..., L).

    ``steering`` is (n_rx, L), ``freq`` is (n_sc, L); the result is
    (..., n_rx, n_sc).
    """
    steering = np.asarray(steering)
    fading = np.asarray(fading)
    freq = np.asarray(freq)
    if steering.shape[1] != fading.shape[-1] or freq.shape[1] != fading.shape[-1]:
        raise ValueError("steering/fading/freq path counts disagree")
    return (steering * fading[..., None, :]) @ freq.T


def channel_covariance(steering: np.ndarray, freq_pilot: np.ndarray,
                       amplitude: np.ndarray) -> np.ndarray:
    """Covariance of the vectorized pilot-grid channel.

    With vec stacking columns (pilot-major), R = Phi diag(alpha^2) Phi^H where
    column l of Phi is kron(k_l, a_l), a_l the steering vector (n_rx) and k_l
    the pilot-grid response (n_pilots) of path l.
    """
    phi = (freq_pilot[:, None, :] * steering[None, :, :]).reshape(-1, steering.shape[1])
    return (phi * np.asarray(amplitude, dtype=float) ** 2) @ phi.conj().T


def average_gain_from_responses(amplitude: np.ndarray, freq_pilot: np.ndarray) -> float:
    """beta = trace(R) / dim(R), the per-entry average channel power on the
    pilot grid, without forming R.

    trace(R) = sum_l alpha_l^2 ||k_l||^2 ||a_l||^2 and steering entries are
    unit modulus, so beta = sum_l alpha_l^2 ||k_l||^2 / n_pilots.
    """
    amplitude = np.asarray(amplitude, dtype=float)
    energy = np.sum(np.abs(freq_pilot) ** 2, axis=0)
    beta = float(np.sum(amplitude ** 2 * energy)) / freq_pilot.shape[0]
    if beta <= 0:
        raise ValueError("channel gain must be positive")
    return beta
