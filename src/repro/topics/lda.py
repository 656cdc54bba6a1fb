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

    Held-out inference is batch-invariant: ``transform(docs)[i]`` equals
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
        self,
        corpus: _Corpus,
        exp_elog_beta: np.ndarray,
        gamma: np.ndarray,
        passes: int = 1,
    ) -> None:
        """Active-set fixed point: documents leave once they converge.

        All unfinished documents update simultaneously over the flat
        cell table.  A document's pass ends when its mean ``gamma``
        change drops below ``tol`` or after ``inner_iter`` sweeps; with
        ``passes > 1`` it then starts another pass where it stopped,
        until a pass moves it by less than ``tol`` in mean or it has
        run ``passes`` passes.  Finished rows are frozen and every
        per-cell array is compacted to the survivors, so late sweeps
        touch only the stragglers.  Per-document arithmetic is the
        textbook per-document loop's (same operations, same order) and
        does not depend on which other documents share the batch.
        """
        k = self.n_topics
        tol = self.tol
        act_docs = corpus.doc_labels
        gamma_act = gamma[act_docs]
        c_pos = corpus.cell_pos
        c_counts = corpus.counts
        c_beta = exp_elog_beta[:, corpus.word_idx].T  # (nnz, k)
        c_starts = corpus.doc_starts
        # The sweep at which each document's current pass runs out of
        # budget; passes end far more often by convergence, so the
        # budget mask is only built on the sweep the earliest one hits.
        deadline = np.full(act_docs.size, self.inner_iter)
        next_deadline = self.inner_iter
        pass_start = gamma_act.copy()
        passes_done = np.zeros(act_docs.size, dtype=np.int64)
        # Sweep buffers, rebuilt only when the active set is compacted;
        # every in-place op below is value-identical to the allocating
        # expression of the per-document loop (multiplication/addition
        # operand order does not change IEEE results).
        elog = np.empty_like(gamma_act)
        gamma_new = np.empty_like(gamma_act)
        diff = np.empty_like(gamma_act)
        theta = np.empty((c_pos.size, k))
        phinorm = np.empty(c_pos.size)
        # The loop is dispatch-bound on small batches, so it calls the
        # ufuncs behind .sum()/.mean()/.any() directly: add.reduce and
        # a divide by k are exactly what those wrappers compute.
        sweep = 0
        while True:
            sweep += 1
            digamma(gamma_act, out=elog)
            elog -= digamma(np.add.reduce(gamma_act, axis=1, keepdims=True))
            np.exp(elog, out=elog)
            elog.take(c_pos, axis=0, out=theta)
            np.einsum("ij,ij->i", theta, c_beta, out=phinorm)
            phinorm += 1e-100
            np.divide(c_counts, phinorm, out=phinorm)
            np.multiply(phinorm[:, None], c_beta, out=theta)
            np.add.reduceat(theta, c_starts, axis=0, out=gamma_new)
            np.multiply(elog, gamma_new, out=gamma_new)
            gamma_new += self.alpha
            np.subtract(gamma_new, gamma_act, out=diff)
            np.abs(diff, out=diff)
            ended = np.add.reduce(diff, axis=1) / k < tol
            if sweep == next_deadline:
                ended |= deadline == sweep
            if not np.logical_or.reduce(ended):
                gamma_act, gamma_new = gamma_new, gamma_act
                continue
            # A pass ended: the document is done, or starts its next
            # pass where this one stopped.
            passes_done += ended
            moved = np.abs(gamma_new - pass_start).mean(axis=1)
            done = ended & (
                (passes_done == passes) | ((passes_done > 1) & (moved < tol))
            )
            again = ended & ~done
            pass_start[again] = gamma_new[again]
            deadline[again] = sweep + self.inner_iter
            if done.all():
                gamma[act_docs] = gamma_new
                return
            if done.any():
                keep = ~done
                # A document's posterior is final the sweep it finishes,
                # so gamma is only scattered into here and at the end —
                # never once per sweep.
                gamma[act_docs[done]] = gamma_new[done]
                seg_len = np.diff(np.append(c_starts, c_counts.size))[keep]
                act_docs = act_docs[keep]
                cell_keep = keep[c_pos]
                remap = np.cumsum(keep) - 1
                c_pos = remap[c_pos[cell_keep]]
                gamma_act = gamma_new[keep]
                deadline = deadline[keep]
                pass_start = pass_start[keep]
                passes_done = passes_done[keep]
                c_beta = c_beta[cell_keep]
                c_counts = c_counts[cell_keep]
                c_starts = np.concatenate(([0], np.cumsum(seg_len[:-1])))
                elog = np.empty_like(gamma_act)
                gamma_new = np.empty_like(gamma_act)
                diff = np.empty_like(gamma_act)
                theta = np.empty((c_pos.size, k))
                phinorm = np.empty(c_pos.size)
            else:
                gamma_act, gamma_new = gamma_new, gamma_act
            next_deadline = deadline.min()

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
        self,
        corpus: _Corpus | None,
        exp_elog_beta: np.ndarray,
        gamma: np.ndarray,
        passes: int = 1,
    ) -> None:
        """Run the fixed point on ``gamma`` in place.

        ``gamma`` holds the starting point: a fresh draw, or the
        previous outer iteration's posterior — after the first few
        M-steps the topics barely move, so warm-started documents
        converge in a handful of sweeps instead of running the full
        ``inner_iter`` budget from a cold start every E-step.
        ``passes`` is the per-document outer budget.  Documents with no
        in-vocabulary words keep the prior.
        """
        if corpus is None:
            gamma[:] = self.alpha
            return
        self._fixed_point(corpus, exp_elog_beta, gamma, passes)
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

        Every document gets up to ``n_iter`` E-step passes, each
        warm-started from the previous one, and stops once a pass moves
        its ``gamma`` by less than ``tol`` in mean — documents the single
        ``inner_iter`` budget cannot settle get the same accumulated
        refinement the training gammas receive across outer iterations,
        so re-inference agrees with the training posterior.  The check
        is per document, so the output is batch-invariant:
        ``transform(docs)[i]`` equals ``transform([docs[i]])[0]`` bit for
        bit.
        """
        self._check_fitted()
        _validate_docs(docs, self.vocab_size)
        gamma = np.ones((len(docs), self.n_topics))
        corpus = self._corpus(docs)
        self._estimate_gamma(corpus, self._exp_elog_beta, gamma, self.n_iter)
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
