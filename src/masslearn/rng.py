"""Named deterministic random streams.

Every piece of randomness in the package is drawn from a numpy Generator
obtained through `stream(seed, name, ...)`.  The same (seed, name, indices)
tuple yields the same stream on every platform, and distinct names yield
independent streams, so adding a new consumer of randomness never perturbs
existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; every command draws from it

# Stream names used by training and the CLI. Free-form names are fine too;
# these are the ones with a documented meaning.
INIT = "init"
SHUFFLE = "shuffle"
DROPOUT = "dropout"
MIXTURE_INIT = "mixture-init"


def substream_seed(seed: int, name: str, *indices: int) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name."""
    key = f"{int(seed)}|{name}|" + "|".join(str(int(i)) for i in indices)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Return a Generator seeded from (seed, name, indices)."""
    return np.random.Generator(np.random.PCG64(substream_seed(seed, name, *indices)))
