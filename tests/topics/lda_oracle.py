"""Per-document LDA E-step: one document at a time, one sweep at a time.

The test oracle for :class:`~repro.topics.lda.LdaVariational`'s batched
active-set fixed point.  It is the textbook loop: each document runs
``inner_iter`` sweeps or until its mean ``gamma`` change drops below
``tol``, up to ``passes`` times, stopping early once a whole pass moves
it by less than ``tol``.  It shares the model's fit loop, M-step and
corpus table and overrides only the fixed-point hook, so a fit or a
transform through it differs from the model's only in how the E-step
iterates.  Per document the arithmetic is the same operations in the
same order, so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from repro.topics.lda import LdaVariational


class PerDocLdaVariational(LdaVariational):
    """:class:`LdaVariational` whose E-step loops over documents."""

    def _fixed_point(self, corpus, exp_elog_beta, gamma, passes=1):
        bounds = np.r_[corpus.doc_starts, corpus.doc_idx.size]
        for seg, d in enumerate(corpus.doc_labels):
            lo, hi = bounds[seg], bounds[seg + 1]
            beta_d = exp_elog_beta[:, corpus.word_idx[lo:hi]].T
            cnt = corpus.counts[lo:hi]
            g = gamma[d]
            for p in range(passes):
                g_start = g
                for _ in range(self.inner_iter):
                    elog = np.exp(digamma(g) - digamma(g.sum()))
                    theta = np.tile(elog, (hi - lo, 1))
                    phinorm = np.einsum("ij,ij->i", theta, beta_d) + 1e-100
                    weighted = (cnt / phinorm)[:, None] * beta_d
                    s = np.add.reduceat(weighted, [0], axis=0)[0]
                    g_new = self.alpha + elog * s
                    delta = np.abs(g_new - g).mean()
                    g = g_new
                    if delta < self.tol:
                        break
                if p and np.abs(g - g_start).mean() < self.tol:
                    break
            gamma[d] = g
