"""Latent Dirichlet Allocation from scratch.

The paper infers per-post topic distributions ``d(p)`` with LDA (via
Gensim); here we provide two interchangeable implementations:

* :class:`LdaGibbs` — collapsed Gibbs sampling, the textbook reference
  implementation.  Exact but slow; used for tests and small corpora.
* :class:`LdaVariational` — batch mean-field variational Bayes (Blei et
  al. 2003 / Hoffman et al. 2010 without the online schedule).  Fast
  enough for the full synthetic Stack Overflow corpus; the pipeline
  default.

Both expose the same interface: ``fit(docs)`` on a list of token-id
arrays, ``doc_topic_`` (rows on the simplex), ``topic_word_`` (rows on
the simplex), and ``transform(docs)`` for held-out documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

__all__ = ["LdaGibbs", "LdaVariational", "fit_lda"]


@dataclass(frozen=True)
class _Corpus:
    """Doc-major cell table shared by every E-step pass over a corpus.

    Cells are the nonzero (doc, word) entries, sorted by document and
    then word; ``doc_starts``/``doc_labels`` segment them per document,
    ``cell_pos`` maps each cell to its compact document row and
    ``empty_docs`` lists the documents without a cell.
    """

    doc_idx: np.ndarray
    word_idx: np.ndarray
    counts: np.ndarray
    doc_starts: np.ndarray
    doc_labels: np.ndarray
    cell_pos: np.ndarray
    empty_docs: np.ndarray


@dataclass(frozen=True)
class _WordMajor:
    """The cells of a :class:`_Corpus` in word-major order.

    Built once per fit so the M-step scatter gathers straight into
    word-major layout instead of re-sorting the corpus, or permuting an
    (nnz, k) block, every outer iteration.
    """

    doc_idx: np.ndarray
    word_idx: np.ndarray
    counts: np.ndarray
    word_starts: np.ndarray
    word_labels: np.ndarray


def _segments(sorted_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment starts, segment labels) of a sorted index array."""
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_idx)) + 1]
    return starts, sorted_idx[starts]


def _exp_elog(dirichlet: np.ndarray) -> np.ndarray:
    """``exp(E[log x])`` of each row's Dirichlet(``dirichlet``) variable."""
    return np.exp(
        digamma(dirichlet) - digamma(dirichlet.sum(axis=1, keepdims=True))
    )


# Plain sweeps before held-out inference extrapolates.  Extrapolating
# from nearer the flat start throws a few documents into another local
# optimum, one with a higher ELBO that no objective guard would refuse:
# with 0-10 sweeps, 1-2 of the e2e forums' 1,178 held-out documents
# jumped (|d| moved up to 0.23); with 20, none.
_WARMUP_SWEEPS = 20


class _ActiveSet:
    """The unfinished documents of a batched fixed point: their cells and
    sweep buffers, compacted as documents finish so late sweeps touch
    only the stragglers.  Every in-place op of a sweep is value-identical
    to the allocating expression of the per-document loop."""

    def __init__(self, corpus: _Corpus, exp_elog_beta: np.ndarray, k: int):
        self.docs = corpus.doc_labels
        self._pos = corpus.cell_pos
        self._counts = corpus.counts
        self._beta = exp_elog_beta[:, corpus.word_idx].T  # (nnz, k)
        self._starts = corpus.doc_starts
        self._k = k
        self._buffers()

    def _buffers(self) -> None:
        self._elog = np.empty((self.docs.size, self._k))
        self._diff = np.empty_like(self._elog)
        self._theta = np.empty((self._pos.size, self._k))
        self._phinorm = np.empty(self._pos.size)

    def sweep(self, gamma: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """One fixed-point sweep from ``gamma``: the new gamma and each
        row's mean absolute change.  Rows are independent."""
        # The loop is dispatch-bound on small batches, so it calls the
        # ufuncs behind .sum()/.mean() directly: add.reduce and a divide
        # by k are exactly what those wrappers compute.
        elog, theta, phinorm = self._elog, self._theta, self._phinorm
        digamma(gamma, out=elog)
        elog -= digamma(np.add.reduce(gamma, axis=1, keepdims=True))
        np.exp(elog, out=elog)
        elog.take(self._pos, axis=0, out=theta)
        np.einsum("ij,ij->i", theta, self._beta, out=phinorm)
        phinorm += 1e-100
        np.divide(self._counts, phinorm, out=phinorm)
        np.multiply(phinorm[:, None], self._beta, out=theta)
        gamma_new = np.add.reduceat(theta, self._starts, axis=0)
        np.multiply(elog, gamma_new, out=gamma_new)
        gamma_new += alpha
        np.subtract(gamma_new, gamma, out=self._diff)
        np.abs(self._diff, out=self._diff)
        return gamma_new, np.add.reduce(self._diff, axis=1) / self._k

    def retire(
        self, done: np.ndarray, gamma_act: np.ndarray, gamma: np.ndarray
    ) -> np.ndarray | None:
        """Scatter the final ``done`` rows of ``gamma_act`` into ``gamma``
        and drop them: the mask of surviving rows, or ``None``."""
        gamma[self.docs[done]] = gamma_act[done]
        keep = ~done
        if not keep.any():
            return None
        seg_len = np.diff(np.append(self._starts, self._counts.size))[keep]
        cell_keep = keep[self._pos]
        self.docs = self.docs[keep]
        self._pos = (np.cumsum(keep) - 1)[self._pos[cell_keep]]
        self._beta = self._beta[cell_keep]
        self._counts = self._counts[cell_keep]
        self._starts = np.concatenate(([0], np.cumsum(seg_len[:-1])))
        self._buffers()
        return keep


def _extrapolate(g0, g1, g2, alpha: float) -> np.ndarray:
    """Row-wise SqS3 step ``g0 + s (2r + s v)`` from a cycle's start and
    its two plain sweeps, ``r = g1 - g0``, ``v = g2 - 2 g1 + g0``, with
    ``s = max(|r| / |v|, 1)`` (``s = 1`` lands on ``g2``).  Rows that leave
    the support (an entry not above ``alpha``, or NaN) take ``g2``."""
    r = g1 - g0
    v = g2 - g1
    v -= r
    # A row at an exact fixed point (possible with tol <= 0) has
    # r = v = 0; its NaN step fails the support test below.
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.add.reduce(r * r, axis=1) / np.add.reduce(v * v, axis=1))
        np.maximum(s, 1.0, out=s)
        s = s[:, None]
        v *= s
        r += r
        v += r
        v *= s
        v += g0
    inside = np.minimum.reduce(v, axis=1, keepdims=True) > alpha
    np.copyto(v, g2, where=~inside)
    return v


def _validate_docs(docs: list[np.ndarray], vocab_size: int) -> None:
    for i, doc in enumerate(docs):
        doc = np.asarray(doc)
        if doc.size and (doc.min() < 0 or doc.max() >= vocab_size):
            raise ValueError(f"document {i} has token ids outside [0, {vocab_size})")


class _LdaBase:
    """Shared validation and readout for the two LDA implementations."""

    def __init__(self, n_topics: int, vocab_size: int, alpha: float, beta: float):
        if n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        self.n_topics = n_topics
        self.vocab_size = vocab_size
        self.alpha = alpha
        self.beta = beta
        self.doc_topic_: np.ndarray | None = None
        self.topic_word_: np.ndarray | None = None

    def _check_fitted(self) -> None:
        if self.topic_word_ is None:
            raise RuntimeError("model is not fitted")

    def top_words(self, topic: int, n: int = 10) -> np.ndarray:
        """Ids of the ``n`` highest-probability words in a topic."""
        self._check_fitted()
        return np.argsort(-self.topic_word_[topic])[:n]


class LdaGibbs(_LdaBase):
    """Collapsed Gibbs sampling LDA.

    Samples topic assignments ``z`` token by token from the collapsed
    conditional, then reads point estimates of the doc-topic and
    topic-word distributions from the final counts.
    """

    def __init__(
        self,
        n_topics: int,
        vocab_size: int,
        *,
        alpha: float = 0.1,
        beta: float = 0.01,
        n_iter: int = 100,
        seed: int = 0,
    ):
        super().__init__(n_topics, vocab_size, alpha, beta)
        if n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        self.n_iter = n_iter
        self.seed = seed

    def fit(self, docs: list[np.ndarray]) -> "LdaGibbs":
        _validate_docs(docs, self.vocab_size)
        rng = np.random.default_rng(self.seed)
        k, v = self.n_topics, self.vocab_size
        n_docs = len(docs)
        doc_topic = np.zeros((n_docs, k), dtype=np.int64)
        topic_word = np.zeros((k, v), dtype=np.int64)
        topic_total = np.zeros(k, dtype=np.int64)
        assignments: list[np.ndarray] = []
        for d, doc in enumerate(docs):
            doc = np.asarray(doc, dtype=np.int64)
            z = rng.integers(0, k, size=doc.size)
            assignments.append(z)
            for w, t in zip(doc, z):
                doc_topic[d, t] += 1
                topic_word[t, w] += 1
                topic_total[t] += 1
        for _ in range(self.n_iter):
            for d, doc in enumerate(docs):
                z = assignments[d]
                for i, w in enumerate(doc):
                    t_old = z[i]
                    doc_topic[d, t_old] -= 1
                    topic_word[t_old, w] -= 1
                    topic_total[t_old] -= 1
                    probs = (
                        (doc_topic[d] + self.alpha)
                        * (topic_word[:, w] + self.beta)
                        / (topic_total + v * self.beta)
                    )
                    probs /= probs.sum()
                    t_new = rng.choice(k, p=probs)
                    z[i] = t_new
                    doc_topic[d, t_new] += 1
                    topic_word[t_new, w] += 1
                    topic_total[t_new] += 1
        self.doc_topic_ = (doc_topic + self.alpha) / (
            doc_topic.sum(axis=1, keepdims=True) + k * self.alpha
        )
        self.topic_word_ = (topic_word + self.beta) / (
            topic_word.sum(axis=1, keepdims=True) + v * self.beta
        )
        self._topic_word_counts = topic_word
        self._topic_totals = topic_total
        return self

    def transform(
        self, docs: list[np.ndarray], n_iter: int = 20, seed: int = 0
    ) -> np.ndarray:
        """Infer topic distributions for held-out docs with frozen topics.

        Every document samples from its own generator seeded with
        ``seed``, so a document's distribution does not depend on the
        rest of the batch: ``transform(docs)[i]`` equals
        ``transform([docs[i]])[0]`` bit for bit.
        """
        self._check_fitted()
        _validate_docs(docs, self.vocab_size)
        k = self.n_topics
        out = np.zeros((len(docs), k))
        word_given_topic = self.topic_word_
        for d, doc in enumerate(docs):
            doc = np.asarray(doc, dtype=np.int64)
            if doc.size == 0:
                out[d] = 1.0 / k
                continue
            rng = np.random.default_rng(seed)
            z = rng.integers(0, k, size=doc.size)
            counts = np.bincount(z, minlength=k)
            for _ in range(n_iter):
                for i, w in enumerate(doc):
                    counts[z[i]] -= 1
                    probs = (counts + self.alpha) * word_given_topic[:, w]
                    probs /= probs.sum()
                    z[i] = rng.choice(k, p=probs)
                    counts[z[i]] += 1
            out[d] = (counts + self.alpha) / (doc.size + k * self.alpha)
        return out


class LdaVariational(_LdaBase):
    """Batch mean-field variational Bayes LDA.

    The E-step updates the variational Dirichlet ``gamma`` with the
    standard per-document fixed-point iteration; the M-step re-estimates
    the topic-word variational parameter ``lambda`` from expected
    counts.  All documents iterate simultaneously over the flat cell
    table, with a *per-document* convergence check: documents whose mean
    ``gamma`` change drops below ``tol`` leave the active set, so the
    corpus pass shrinks as documents converge (most converge in a
    fraction of ``inner_iter``).  Per document the arithmetic is the
    textbook document-by-document loop's, operation for operation; the
    tests hold the two to bit equality (``tests/topics/lda_oracle.py``).

    Held-out inference adds SQUAREM extrapolation (Varadhan & Roland
    2008) and is batch-invariant: ``transform(docs)[i]`` equals
    ``transform([docs[i]])[0]`` bit for bit.
    """

    def __init__(
        self,
        n_topics: int,
        vocab_size: int,
        *,
        alpha: float = 0.1,
        beta: float = 0.01,
        n_iter: int = 30,
        inner_iter: int = 40,
        tol: float = 1e-4,
        seed: int = 0,
    ):
        super().__init__(n_topics, vocab_size, alpha, beta)
        if n_iter < 1 or inner_iter < 1:
            raise ValueError("iteration counts must be >= 1")
        self.n_iter = n_iter
        self.inner_iter = inner_iter
        self.tol = tol
        self.seed = seed

    def _corpus(self, docs: list[np.ndarray]) -> _Corpus | None:
        """The doc-major cell table of ``docs``, or ``None`` when no
        document has a token.

        One ``np.unique`` over ``doc * vocab_size + word`` keys yields
        the cells sorted by document and then word, exactly the
        per-document ``np.unique`` order; ``doc_idx`` being sorted lets
        the E-step aggregate per-document sums with ``np.add.reduceat``
        instead of the much slower ``np.add.at``.
        """
        lengths = [np.size(doc) for doc in docs]
        if not sum(lengths):
            return None
        tokens = np.concatenate([np.asarray(doc, dtype=np.int64) for doc in docs])
        doc_of = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
        keys, counts = np.unique(
            doc_of * self.vocab_size + tokens, return_counts=True
        )
        doc_idx, word_idx = np.divmod(keys, self.vocab_size)
        doc_starts, doc_labels = _segments(doc_idx)
        seg_lengths = np.diff(np.r_[doc_starts, doc_idx.size])
        has_cells = np.zeros(len(docs), dtype=bool)
        has_cells[doc_labels] = True
        return _Corpus(
            doc_idx=doc_idx,
            word_idx=word_idx,
            counts=counts.astype(float),
            doc_starts=doc_starts,
            doc_labels=doc_labels,
            cell_pos=np.repeat(np.arange(doc_labels.size), seg_lengths),
            empty_docs=np.flatnonzero(~has_cells),
        )

    @staticmethod
    def _word_major(corpus: _Corpus) -> _WordMajor:
        """The corpus cells permuted into word-major order, once per fit."""
        order = np.argsort(corpus.word_idx, kind="stable")
        word_idx = corpus.word_idx[order]
        word_starts, word_labels = _segments(word_idx)
        return _WordMajor(
            doc_idx=corpus.doc_idx[order],
            word_idx=word_idx,
            counts=corpus.counts[order],
            word_starts=word_starts,
            word_labels=word_labels,
        )

    def _set_lambda(self, lam: np.ndarray) -> None:
        """Install fitted topics and the ``exp(E[log beta])`` inference
        reads, computed once here rather than on every transform."""
        self._lambda = lam
        self._exp_elog_beta = _exp_elog(lam)
        self.topic_word_ = lam / lam.sum(axis=1, keepdims=True)

    def _fixed_point(
        self, corpus: _Corpus, exp_elog_beta: np.ndarray, gamma: np.ndarray
    ) -> None:
        """Training's fixed point: all unfinished documents sweep at once,
        each until its mean ``gamma`` change drops below ``tol`` or for
        ``inner_iter`` sweeps.  Per document the arithmetic is the
        textbook per-document loop's, whatever else shares the batch."""
        active = _ActiveSet(corpus, exp_elog_beta, self.n_topics)
        gamma_act = gamma[active.docs]
        for _ in range(self.inner_iter - 1):
            gamma_act, change = active.sweep(gamma_act, self.alpha)
            done = change < self.tol
            if np.logical_or.reduce(done):
                keep = active.retire(done, gamma_act, gamma)
                if keep is None:
                    return
                gamma_act = gamma_act[keep]
        gamma[active.docs] = active.sweep(gamma_act, self.alpha)[0]

    def _squarem(
        self, corpus: _Corpus, exp_elog_beta: np.ndarray, gamma: np.ndarray
    ) -> None:
        """Held-out fixed point: after ``_WARMUP_SWEEPS`` plain sweeps,
        cycles of ``g1 = F(g0)``, ``g2 = F(g1)`` and a restart from their
        SqS3 extrapolation.  A document keeps its first plain sweep that
        moves it by less than ``tol`` in mean, or its ``n_iter *
        inner_iter``-th.  All rows run one schedule and survivors keep
        their cycle state across compaction, so no row depends on the
        batch."""
        active = _ActiveSet(corpus, exp_elog_beta, self.n_topics)
        g = gamma[active.docs]
        budget = self.n_iter * self.inner_iter
        for sweep in range(1, budget):
            g_new, change = active.sweep(g, self.alpha)
            done = change < self.tol
            cycle = sweep - _WARMUP_SWEEPS
            if np.logical_or.reduce(done):
                keep = active.retire(done, g_new, gamma)
                if keep is None:
                    return
                g, g_new = g[keep], g_new[keep]
                if cycle > 0 and cycle % 2 == 0:
                    g0 = g0[keep]
            if cycle <= 0:
                g = g_new
            elif cycle % 2:
                g0, g = g, g_new
            else:
                g = _extrapolate(g0, g, g_new, self.alpha)
        gamma[active.docs] = active.sweep(g, self.alpha)[0]

    def _sstats(
        self, cells: _WordMajor, exp_elog_beta: np.ndarray, gamma: np.ndarray
    ) -> np.ndarray:
        """Expected topic-word counts from the final gamma of one E-step.

        Works on the cells in word-major order directly: the per-cell
        contributions are row-independent, so gathering into that layout
        up front yields the same reduceat sums bit for bit while saving
        the (nnz, k) permutation of a doc-major contribution block.
        """
        k = self.n_topics
        exp_elog_theta = _exp_elog(gamma)
        theta_cells = exp_elog_theta[cells.doc_idx]
        beta_cells = exp_elog_beta[:, cells.word_idx].T
        phinorm = np.einsum("ij,ij->i", theta_cells, beta_cells) + 1e-100
        np.multiply(theta_cells, (cells.counts / phinorm)[:, None],
                    out=theta_cells)
        np.multiply(theta_cells, beta_cells, out=theta_cells)
        sstats_t = np.zeros((exp_elog_beta.shape[1], k))
        sstats_t[cells.word_labels] = np.add.reduceat(
            theta_cells, cells.word_starts, axis=0
        )
        return sstats_t.T

    def _estimate_gamma(
        self, corpus: _Corpus | None, exp_elog_beta: np.ndarray, gamma: np.ndarray
    ) -> None:
        """Run the training fixed point on ``gamma`` in place.

        ``gamma`` holds the starting point: a fresh draw, or the
        previous outer iteration's posterior — after the first few
        M-steps the topics barely move, so warm-started documents
        converge in a handful of sweeps instead of running the full
        ``inner_iter`` budget from a cold start every E-step.
        Documents with no in-vocabulary words keep the prior.
        """
        if corpus is None:
            gamma[:] = self.alpha
            return
        self._fixed_point(corpus, exp_elog_beta, gamma)
        gamma[corpus.empty_docs] = self.alpha

    def fit(self, docs: list[np.ndarray]) -> "LdaVariational":
        _validate_docs(docs, self.vocab_size)
        rng = np.random.default_rng(self.seed)
        corpus = self._corpus(docs)
        cells = self._word_major(corpus) if corpus is not None else None
        lam = rng.gamma(100.0, 0.01, size=(self.n_topics, self.vocab_size))
        # Each E-step starts from the previous outer iteration's posterior.
        gamma = rng.gamma(100.0, 0.01, size=(len(docs), self.n_topics))
        prev_gamma = None
        for _ in range(self.n_iter):
            exp_elog_beta = _exp_elog(lam)
            if prev_gamma is not None:
                gamma = gamma.copy()
            self._estimate_gamma(corpus, exp_elog_beta, gamma)
            if cells is None:
                lam = self.beta + np.zeros_like(exp_elog_beta)
            else:
                lam = self.beta + self._sstats(cells, exp_elog_beta, gamma)
            # Stop once the posterior stops moving (the same tolerance as
            # the per-document check).
            if prev_gamma is not None and np.abs(gamma - prev_gamma).mean() < self.tol:
                break
            prev_gamma = gamma
        self._set_lambda(lam)
        self.doc_topic_ = gamma / gamma.sum(axis=1, keepdims=True)
        return self

    def transform(self, docs: list[np.ndarray]) -> np.ndarray:
        """Infer topic distributions for held-out docs with frozen topics.

        Every document runs the SQUAREM-accelerated fixed point from a
        flat start until a sweep moves its ``gamma`` by less than ``tol``
        in mean, within ``n_iter * inner_iter`` sweeps — the budget the
        training gammas accumulate across outer iterations, so documents
        one ``inner_iter`` budget cannot settle still reach the training
        posterior.  The check is per document, so the output is
        batch-invariant: ``transform(docs)[i]`` equals
        ``transform([docs[i]])[0]`` bit for bit.
        """
        self._check_fitted()
        _validate_docs(docs, self.vocab_size)
        # Documents with no in-vocabulary words keep the prior.
        gamma = np.full((len(docs), self.n_topics), self.alpha)
        corpus = self._corpus(docs)
        if corpus is not None:
            gamma[corpus.doc_labels] = 1.0
            self._squarem(corpus, self._exp_elog_beta, gamma)
        return gamma / gamma.sum(axis=1, keepdims=True)

    def to_state(self) -> tuple[dict, np.ndarray]:
        """(JSON-serializable metadata, lambda array) snapshot.

        ``lambda`` fully determines inference on held-out documents, so
        the pair restores a model whose :meth:`transform` is identical.
        """
        self._check_fitted()
        meta = {
            "n_topics": self.n_topics,
            "vocab_size": self.vocab_size,
            "alpha": self.alpha,
            "beta": self.beta,
            "n_iter": self.n_iter,
            "inner_iter": self.inner_iter,
            "tol": self.tol,
            "seed": self.seed,
        }
        return meta, self._lambda

    @classmethod
    def from_state(cls, meta: dict, lam: np.ndarray) -> "LdaVariational":
        """Rebuild a fitted model from a :meth:`to_state` snapshot.

        Snapshots from before the single E-step engine carry an
        ``e_step`` tag.  ``"batched"`` and ``"perdoc"`` ran the arithmetic
        of today's engine and load as it; ``"global"`` inferred held-out
        documents differently, so its snapshot is refused.
        """
        if meta.get("e_step", "batched") not in ("batched", "perdoc"):
            raise ValueError(
                f"e_step {meta['e_step']!r} snapshots are no longer supported; "
                "refit the topic model"
            )
        lam = np.asarray(lam, dtype=float)
        model = cls(
            int(meta["n_topics"]),
            int(meta.get("vocab_size", lam.shape[1])),
            alpha=meta["alpha"],
            beta=meta["beta"],
            n_iter=int(meta.get("n_iter", 30)),
            inner_iter=int(meta.get("inner_iter", 40)),
            tol=meta.get("tol", 1e-4),
            seed=int(meta.get("seed", 0)),
        )
        if lam.shape != (model.n_topics, model.vocab_size):
            raise ValueError(
                f"lambda shape {lam.shape} does not match "
                f"({model.n_topics}, {model.vocab_size})"
            )
        model._set_lambda(lam)
        model.doc_topic_ = np.empty((0, model.n_topics))
        return model


def fit_lda(
    docs: list[np.ndarray],
    n_topics: int,
    vocab_size: int,
    *,
    method: str = "variational",
    seed: int = 0,
    **kwargs,
):
    """Fit an LDA model by method name (``"variational"`` or ``"gibbs"``)."""
    if method == "variational":
        model = LdaVariational(n_topics, vocab_size, seed=seed, **kwargs)
    elif method == "gibbs":
        model = LdaGibbs(n_topics, vocab_size, seed=seed, **kwargs)
    else:
        raise ValueError(f"unknown LDA method {method!r}")
    return model.fit(docs)
