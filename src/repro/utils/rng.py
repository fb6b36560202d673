"""Deterministic hierarchical random-number generation.

Every stochastic component in the reproduction (noise mechanisms, delay
models, data generators, sample-to-device assignment) draws from a
``numpy.random.Generator`` obtained through an :class:`RngFactory`.  The
factory derives *named* child seeds from a root seed, so that

* each trial of an experiment is exactly reproducible from its root seed, and
* adding a new consumer of randomness does not perturb the streams consumed
  by existing components (streams are keyed by name, not by call order).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.utils.digest import blake2b

SeedLike = Union[int, np.random.Generator, None]

_MASK_64 = (1 << 64) - 1


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a path of names.

    The derivation hashes the root seed together with the string forms of the
    path components, so distinct paths yield statistically independent
    streams while identical paths always yield the same seed.

    >>> derive_seed(0, "device", 3) == derive_seed(0, "device", 3)
    True
    >>> derive_seed(0, "device", 3) != derive_seed(0, "device", 4)
    True
    """
    hasher = blake2b(digest_size=8)
    hasher.update(str(int(root_seed)).encode("utf-8"))
    for name in names:
        hasher.update(b"/")
        hasher.update(str(name).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "little") & _MASK_64


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    ``None`` produces a non-deterministic generator; an ``int`` seeds a new
    PCG64 generator; an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class RngFactory:
    """Factory for named, reproducible random streams.

    Parameters
    ----------
    root_seed:
        Seed from which all child streams are derived.

    Examples
    --------
    >>> factory = RngFactory(42)
    >>> rng_a = factory.generator("noise", 0)
    >>> rng_b = factory.generator("noise", 0)
    >>> float(rng_a.random()) == float(rng_b.random())
    True
    """

    def __init__(self, root_seed: int = 0):
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        """The root seed this factory derives all streams from."""
        return self._root_seed

    def seed(self, *names: object) -> int:
        """Return the derived 64-bit seed for the stream named by ``names``."""
        return derive_seed(self._root_seed, *names)

    def generator(self, *names: object) -> np.random.Generator:
        """Return a fresh generator for the stream named by ``names``."""
        return np.random.default_rng(self.seed(*names))

    def child(self, *names: object) -> "RngFactory":
        """Return a sub-factory rooted at the derived seed for ``names``.

        Useful to hand a component its own namespace:
        ``factory.child("device", 7)`` gives device 7 an independent factory
        whose streams cannot collide with any other component's.
        """
        return RngFactory(self.seed(*names))

    def __repr__(self) -> str:
        return f"RngFactory(root_seed={self._root_seed})"


def spawn_generators(
    factory: RngFactory, prefix: str, count: int
) -> list[np.random.Generator]:
    """Return ``count`` independent generators named ``prefix/0..count-1``."""
    return [factory.generator(prefix, i) for i in range(count)]
