"""Named, independently seeded random streams.

Determinism across the whole simulation requires that every consumer of
randomness draws from its *own* stream, derived from the master seed and
a stable name — never from a shared global generator whose consumption
order depends on event interleaving.

numpy is imported when the first stream is made, not with the module:
the engine below it runs without numpy.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class RngStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    Streams are keyed by name; asking twice for the same name returns the
    same generator object.  The sub-seed for a name is derived by hashing
    ``(master_seed, name)`` so adding a new stream never perturbs
    existing ones.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def derive_seed(self, name: str) -> int:
        """Stable 64-bit sub-seed for ``name``."""
        digest = hashlib.sha256(
            f"{self.master_seed}:{name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            gen = np.random.default_rng(self.derive_seed(name))
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStreams seed={self.master_seed} streams={len(self._streams)}>"
