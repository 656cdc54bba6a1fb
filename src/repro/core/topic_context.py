"""Topic-model context over a feature window.

The paper infers a topic distribution ``d(p)`` for every post by fitting
LDA on the word text of all posts in the window, treating each post as
its own document (Sec. II-B).  This wrapper owns the tokenizer,
vocabulary and fitted LDA model, caches per-post distributions, and can
infer distributions for unseen posts (new questions at recommendation
time).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .. import perf
from ..forum.dataset import ForumDataset
from ..forum.models import Post
from ..topics.lda import LdaGibbs, LdaVariational, fit_lda
from ..topics.tokenizer import split_text_and_code, tokenize
from ..topics.vocabulary import Vocabulary

__all__ = ["TopicModelContext"]


class TopicModelContext:
    """Vocabulary + fitted LDA + per-post topic cache for one window."""

    def __init__(
        self,
        vocabulary: Vocabulary,
        model: LdaGibbs | LdaVariational,
        post_topics: dict[int, np.ndarray],
    ):
        self.vocabulary = vocabulary
        self.model = model
        self._post_topics = post_topics

    @property
    def n_topics(self) -> int:
        return self.model.n_topics

    @classmethod
    def fit(
        cls,
        dataset: ForumDataset,
        *,
        n_topics: int = 8,
        method: str = "variational",
        min_count: int = 2,
        max_vocab: int | None = 5000,
        seed: int = 0,
        **lda_kwargs,
    ) -> "TopicModelContext":
        """Fit LDA over every post in the dataset (paper's K = 8 default)."""
        posts: list[Post] = [p for thread in dataset for p in thread.posts]
        if not posts:
            raise ValueError("cannot fit topics on an empty dataset")
        tokenized = [
            tokenize(split_text_and_code(p.body).words) for p in posts
        ]
        vocabulary = Vocabulary(min_count=min_count, max_size=max_vocab).fit(
            tokenized
        )
        if len(vocabulary) == 0:
            raise ValueError("vocabulary is empty; posts contain no usable words")
        encoded = [vocabulary.encode(doc) for doc in tokenized]
        model = fit_lda(
            encoded, n_topics, len(vocabulary), method=method, seed=seed,
            **lda_kwargs,
        )
        post_topics = {
            p.post_id: model.doc_topic_[i] for i, p in enumerate(posts)
        }
        return cls(vocabulary, model, post_topics)

    def post_topics(self, post: Post) -> np.ndarray:
        """``d(p)`` for a post; infers and caches if the post is unseen."""
        cached = self._post_topics.get(post.post_id)
        if cached is not None:
            return cached
        return self.post_topics_many([post])[0]

    def post_topics_many(self, posts: Sequence[Post]) -> list[np.ndarray]:
        """``d(p)`` for each post, in order.

        Every uncached post is inferred in one ``transform`` call and
        cached by ``post_id``.  Inference is batch-invariant, so each
        vector equals what :meth:`post_topics` alone would give, and a
        caller may encode posts at once and infer them later, together
        (:meth:`encode_uncached`, :meth:`infer_encoded`).
        """
        self.infer_encoded(self.encode_uncached(posts))
        return [self._post_topics[post.post_id] for post in posts]

    def encode_uncached(self, posts: Sequence[Post]) -> dict[int, np.ndarray]:
        """Encoded bodies of the posts with no cached ``d(p)``, by id.

        A post id seen twice keeps its first body.  A body that cannot
        be tokenized raises here.
        """
        cache = self._post_topics
        encoded: dict[int, np.ndarray] = {}
        for post in posts:
            if post.post_id not in cache and post.post_id not in encoded:
                encoded[post.post_id] = self._encode(post.body)
        return encoded

    def infer_encoded(self, encoded: dict[int, np.ndarray]) -> None:
        """Infer and cache ``d(p)`` of every still-uncached encoded post,
        in one ``transform`` call."""
        cache = self._post_topics
        missing = {
            pid: doc for pid, doc in encoded.items() if pid not in cache
        }
        if missing:
            with perf.timer("topics.infer"):
                dists = self.model.transform(list(missing.values()))
            perf.incr("topics.docs_inferred", len(missing))
            cache.update(zip(missing, dists))

    def infer_body(self, body: str) -> np.ndarray:
        """Topic distribution for raw post HTML via the frozen topics."""
        return self.model.transform([self._encode(body)])[0]

    def _encode(self, body: str) -> np.ndarray:
        return self.vocabulary.encode(tokenize(split_text_and_code(body).words))
