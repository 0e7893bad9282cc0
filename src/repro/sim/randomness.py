"""Deterministic, named random streams.

Every stochastic component of the simulation draws from its own named
stream so that adding a new random consumer does not perturb the draws seen
by existing ones — runs stay reproducible and comparable across experiment
configurations (common random numbers for variance reduction in sweeps).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, List, Sequence

import numpy as np


class RandomStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("tpch.arrivals")
    >>> b = streams.get("tpce.keys")
    >>> a is streams.get("tpch.arrivals")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the stream for *name*, creating it deterministically."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            substream_seed = int.from_bytes(digest[:8], "little")
            stream = np.random.default_rng(substream_seed)
            self._streams[name] = stream
        return stream

    def fork(self, salt: str) -> "RandomStreams":
        """Derive an independent family of streams (e.g. per experiment)."""
        digest = hashlib.sha256(f"{self.seed}:fork:{salt}".encode()).digest()
        return RandomStreams(seed=int.from_bytes(digest[:8], "little"))


def weighted_cdf(p: Sequence[float]) -> List[float]:
    """The cumulative distribution of the normalised weights *p*, built
    exactly as :meth:`numpy.random.Generator.choice` builds it (cumsum,
    then divide by the last element), as a list for :func:`bisect_right`.

    Build it once, outside the loop that draws from it.
    """
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def weighted_index(rng: np.random.Generator, cdf: List[float]) -> int:
    """Draw an index from :func:`weighted_cdf` output.

    Identical to ``rng.choice(len(p), p=p)`` — numpy's weighted draw is
    ``cdf.searchsorted(rng.random(), side="right")`` — so it returns the
    same index from the same single double and leaves the stream in the
    same state, without numpy's per-call argument checking.
    """
    return bisect_right(cdf, rng.random())
