"""Deterministic counter-based random substreams.

Only sampled runs draw random numbers, so this module loads neither
``numpy.random`` nor ``hashlib`` (and OpenSSL behind it) at import: both are
loaded by the first :func:`substream` call.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator whose stream depends only on ``(seed, *tags)``.

    The key is derived by hashing the seed together with the tags, and feeds
    a counter-based Philox bit generator.  Two calls with the same arguments
    therefore produce identical streams no matter how many other substreams
    were created in between, which makes every sampled quantity independent
    of evaluation order and safe to recompute in parallel.
    """
    import hashlib

    payload = "\x1f".join([str(int(seed))] + [str(t) for t in tags]).encode("utf-8")
    key = int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
