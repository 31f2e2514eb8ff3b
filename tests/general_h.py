"""Test references for a correction with any observation matrix H.

The library corrects with H the identity of y's size: odometry observes the
whole error state.  These are the textbook forms for a general H, kept on
the test side to check the library against: ``general_update`` is the
covariance-form correction with H written out in every product, and
``check_identity_gamma`` the innovation identity of an unweighted one.
"""

import numpy as np

from corfuse.filter_core import CorrentropyWeights, InnovationRecord, correntropy_weights
from corfuse.linalg import spd_solve, symmetrize


def general_update(cov, y, obs_jac, noise, bandwidth=None):
    """The correction by ``y`` with observation matrix ``obs_jac``: (delta, record).

    K = P H^T sqrt(C) (sqrt(C) H P H^T sqrt(C) + R)^-1 sqrt(C), with unit
    weights C when ``bandwidth`` is None, and the Joseph-form posterior
    (I - K H) P (I - K H)^T + K R K^T.  With H = I the products are the
    library's, so a writable ``np.eye(n)`` gives its bits.
    """
    y = np.asarray(y, dtype=float)
    obs_jac = np.asarray(obs_jac, dtype=float)
    if bandwidth is None:
        ones = np.ones(y.shape[0])
        weights = CorrentropyWeights(unweighted=ones, weighted=ones.copy())
    else:
        weights = correntropy_weights(y, noise, bandwidth)
    root_c = np.sqrt(weights.weighted)
    ph = (cov @ obs_jac.T) * root_c
    innov_cov = symmetrize(root_c[:, None] * (obs_jac @ ph) + noise)
    sol, regularized = spd_solve(innov_cov, ph.T)
    gain = sol.T * root_c
    delta = gain @ y
    ikh = np.eye(cov.shape[0]) - gain @ obs_jac
    cov_post = symmetrize(ikh @ cov @ ikh.T + gain @ noise @ gain.T)
    return delta, InnovationRecord(
        innovation=y, residual=y - obs_jac @ delta, cov_pred=cov, cov_post=cov_post,
        gain=gain, weights=weights, regularized=regularized, bandwidth=bandwidth)


def check_identity_gamma(record, noise, obs_jac=None):
    """Max-norm deviation of Gamma^-1 y from R^-1 r for one correction.

    Gamma = H P- H^T + R, with H the identity of y's size unless
    ``obs_jac`` is given.  Exact (up to round-off) when the record came
    from an unweighted update with a linear observation model.
    """
    h = np.eye(record.innovation.shape[0]) if obs_jac is None else obs_jac
    gamma = symmetrize(h @ record.cov_pred @ h.T + noise)
    lhs, _ = spd_solve(gamma, record.innovation)
    rhs, _ = spd_solve(np.asarray(noise, dtype=float), record.residual)
    return float(np.max(np.abs(lhs - rhs)))
