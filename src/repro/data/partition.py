"""Sample-to-device assignment (Section V-C: M = 1000 devices).

The paper assigns the training pool to devices uniformly at random per
trial ("assignment of samples ... randomized"), giving each device ~60
train samples.  We implement that i.i.d. partition plus two non-i.i.d.
alternatives (Dirichlet label skew and shard-based skew) used by the
heterogeneity ablations — device data in a real crowd is rarely uniform.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive, check_positive_int


def _split_by_assignment(dataset: Dataset, assignment: np.ndarray, num_devices: int
                         ) -> list[Dataset]:
    """Device ``m`` gets the rows assigned to it, in ascending order: one
    stable sort groups them (ties keep their index order) and the group
    bounds are binary searches, O(N log N) instead of a scan per device."""
    order = np.argsort(assignment, kind="stable")
    bounds = np.searchsorted(assignment[order], np.arange(num_devices + 1))
    return [dataset.subset(order[bounds[m]:bounds[m + 1]]) for m in range(num_devices)]


def iid_partition(
    dataset: Dataset, num_devices: int, rng: np.random.Generator
) -> list[Dataset]:
    """Uniformly random assignment of samples to devices (paper default).

    Every device receives ``len(dataset) // num_devices`` samples (±1), in
    random order.

    >>> import numpy as np
    >>> ds = Dataset(np.zeros((10, 2)), np.zeros(10, dtype=int), num_classes=2)
    >>> parts = iid_partition(ds, 5, np.random.default_rng(0))
    >>> [len(p) for p in parts]
    [2, 2, 2, 2, 2]
    """
    num_devices = check_positive_int(num_devices, "num_devices")
    rng = as_generator(rng)
    order = rng.permutation(len(dataset))
    assignment = np.empty(len(dataset), dtype=np.int64)
    assignment[order] = np.arange(len(dataset)) % num_devices
    return _split_by_assignment(dataset, assignment, num_devices)


def dirichlet_partition(
    dataset: Dataset,
    num_devices: int,
    rng: np.random.Generator,
    alpha: float = 0.5,
) -> list[Dataset]:
    """Label-skewed partition: per-class device shares ~ Dirichlet(α).

    Small α concentrates each class on few devices (strong heterogeneity);
    α → ∞ recovers the i.i.d. partition.
    """
    num_devices = check_positive_int(num_devices, "num_devices")
    check_positive(alpha, "alpha")
    rng = as_generator(rng)
    assignment = np.empty(len(dataset), dtype=np.int64)
    for cls in range(dataset.num_classes):
        indices = np.where(dataset.labels == cls)[0]
        if indices.size == 0:
            continue
        rng.shuffle(indices)
        shares = rng.dirichlet(np.full(num_devices, alpha))
        counts = np.floor(shares * indices.size).astype(np.int64)
        # Distribute the rounding remainder to the largest shares.
        remainder = indices.size - counts.sum()
        if remainder > 0:
            top = np.argsort(shares)[::-1][:remainder]
            counts[top] += 1
        boundaries = np.cumsum(counts)[:-1]
        for device, chunk in enumerate(np.split(indices, boundaries)):
            assignment[chunk] = device
    return _split_by_assignment(dataset, assignment, num_devices)


def shard_partition(
    dataset: Dataset,
    num_devices: int,
    rng: np.random.Generator,
    shards_per_device: int = 2,
) -> list[Dataset]:
    """Classic shard skew: sort by label, cut into shards, deal per device.

    With ``shards_per_device = 2`` most devices see only ~2 classes — the
    pathological non-i.i.d. regime.
    """
    num_devices = check_positive_int(num_devices, "num_devices")
    shards_per_device = check_positive_int(shards_per_device, "shards_per_device")
    rng = as_generator(rng)
    num_shards = num_devices * shards_per_device
    if num_shards > len(dataset):
        raise ConfigurationError(
            f"need at least one sample per shard: {num_shards} shards, "
            f"{len(dataset)} samples"
        )
    by_label = np.argsort(dataset.labels, kind="stable")
    shards = np.array_split(by_label, num_shards)
    shard_order = rng.permutation(num_shards)
    assignment = np.empty(len(dataset), dtype=np.int64)
    for rank, shard_index in enumerate(shard_order):
        assignment[shards[shard_index]] = rank % num_devices
    return _split_by_assignment(dataset, assignment, num_devices)
