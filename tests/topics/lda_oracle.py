"""Per-document LDA E-steps: one document at a time, one sweep at a time.

The test oracle for :class:`~repro.topics.lda.LdaVariational`'s batched
active-set fixed points.  Training's is the textbook loop: each
document runs ``inner_iter`` sweeps or until its mean ``gamma`` change
drops below ``tol``.  Held-out inference's is the same sweep under
SQUAREM: ``WARMUP_SWEEPS`` plain sweeps, then cycles of two plain
sweeps and an SqS3 extrapolation, until a plain sweep moves the
document by less than ``tol`` or ``n_iter * inner_iter`` sweeps have
run.  The oracle shares the model's fit loop, M-step and corpus table
and overrides only the two fixed-point hooks, so a fit or a transform
through it differs from the model's only in how the E-step iterates.
Per document the arithmetic is the same operations in the same order,
so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from repro.topics.lda import LdaVariational

# The engine's warm-up, restated rather than imported so that a change
# to the engine's constant shows as a disagreement.
WARMUP_SWEEPS = 20


def _documents(corpus, exp_elog_beta):
    """(doc, exp E[log beta] of its words, their counts) per document."""
    bounds = np.r_[corpus.doc_starts, corpus.doc_idx.size]
    for seg, d in enumerate(corpus.doc_labels):
        lo, hi = bounds[seg], bounds[seg + 1]
        yield d, exp_elog_beta[:, corpus.word_idx[lo:hi]].T, corpus.counts[lo:hi]


def _sweep(g, beta_d, cnt, alpha):
    """One fixed-point sweep of one document's ``gamma``."""
    elog = np.exp(digamma(g) - digamma(g.sum()))
    theta = np.tile(elog, (len(cnt), 1))
    phinorm = np.einsum("ij,ij->i", theta, beta_d) + 1e-100
    weighted = (cnt / phinorm)[:, None] * beta_d
    s = np.add.reduceat(weighted, [0], axis=0)[0]
    return alpha + elog * s


class PerDocLdaVariational(LdaVariational):
    """:class:`LdaVariational` whose E-steps loop over documents."""

    def _fixed_point(self, corpus, exp_elog_beta, gamma):
        for d, beta_d, cnt in _documents(corpus, exp_elog_beta):
            g = gamma[d]
            for _ in range(self.inner_iter):
                g_new = _sweep(g, beta_d, cnt, self.alpha)
                delta = np.abs(g_new - g).mean()
                g = g_new
                if delta < self.tol:
                    break
            gamma[d] = g

    def _squarem(self, corpus, exp_elog_beta, gamma):
        for d, beta_d, cnt in _documents(corpus, exp_elog_beta):
            g = gamma[d]
            for sweep in range(1, self.n_iter * self.inner_iter + 1):
                g_new = _sweep(g, beta_d, cnt, self.alpha)
                if np.abs(g_new - g).mean() < self.tol:
                    break
                cycle = sweep - WARMUP_SWEEPS
                if cycle <= 0:
                    g = g_new
                elif cycle % 2:  # g1 = F(g0)
                    g0, g = g, g_new
                else:  # g2 = F(g1): extrapolate from g0, g1, g2
                    r = g - g0
                    v = g_new - g - r
                    step = max(
                        np.sqrt(np.add.reduce(r * r) / np.add.reduce(v * v)), 1.0
                    )
                    g = g0 + step * (2 * r + step * v)
                    if not g.min() > self.alpha:
                        g = g_new
            gamma[d] = g_new
