"""The dense forward model, kept as the oracle for the factored one.

These are the formulas the package ran before probes were factored as
rho_i = A_i S_i A_i^dag: every output state K_l rho_i K_l^dag is formed
with two N x N x N products per probe and Kraus block.
"""

import numpy as np


def dense_expectations(blocks, states, observables):
    """e[i, j] = Tr[M_j sum_l K_l rho_i K_l^dag] from dense products."""
    left = np.matmul(blocks[:, None], states[None])
    out = np.matmul(left, blocks.conj().swapaxes(1, 2)[:, None]).sum(axis=0)
    p, n = out.shape[0], out.shape[1]
    obs_flat = observables.reshape(observables.shape[0], n * n)
    return np.real(out.swapaxes(1, 2).reshape(p, n * n) @ obs_flat.T)


def dense_value_and_grad(blocks, tomogram, batch=None, lam=1e-3):
    """Loss and conjugate gradient, -2 sum_i W_i K_l rho_i + lam sign(K_l),
    with every K_l rho_i formed densely; returns (float, (k, N, N))."""
    mod = np.abs(blocks)
    sign = np.zeros_like(blocks)
    mask = mod >= 1e-15
    sign[mask] = blocks[mask] / mod[mask]
    value, grad = lam * float(np.sum(mod)), lam * sign
    if batch is None:
        rho, meas, d = tomogram.probes, tomogram.measurements, tomogram.data
    else:
        idx = np.asarray(batch, dtype=int).reshape(-1, 2)
        if idx.size == 0:
            return value, grad
        i, j = idx[:, 0], idx[:, 1]
        rho, meas = tomogram.probes[i], tomogram.measurements[j]
        d = tomogram.data[i, j]
    n = blocks.shape[-1]
    left = np.matmul(blocks[:, None], rho[None])
    out = np.matmul(left, blocks.conj().swapaxes(1, 2)[:, None]).sum(axis=0)
    out_flat = out.swapaxes(1, 2).reshape(-1, n * n)
    meas_flat = meas.reshape(-1, n * n)
    if batch is None:
        res = d - np.real(out_flat @ meas_flat.T)
        weighted = (res @ meas_flat).reshape(-1, n, n)
    else:
        res = d - np.real(np.sum(out_flat * meas_flat, axis=1))
        weighted = res[:, None, None] * meas
    value += float(np.sum(res ** 2))
    grad = grad - 2.0 * np.matmul(weighted[None], left).sum(axis=1)
    return value, grad
