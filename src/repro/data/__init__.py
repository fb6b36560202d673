"""Datasets and data plumbing: synthetic generators, partitioning, pipeline.

The generators are the offline substitutes for the paper's datasets (see
DESIGN.md §3): :func:`make_mnist_like` (digits, Figs. 4-6),
:func:`make_cifar_like` (objects, Figs. 7-9), and
:mod:`repro.data.activity` (the Section V-B phone pipeline, Fig. 3).
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "ACTIVITY_NAMES": "activity",
    "ActivityConfig": "activity",
    "ActivityTraceGenerator": "activity",
    "CIFAR_CLASSES": "cifar_like",
    "CIFAR_DIM": "cifar_like",
    "ClassClusterGenerator": "synthetic",
    "ClusterSpec": "synthetic",
    "Dataset": "dataset",
    "IN_VEHICLE": "activity",
    "MNIST_CLASSES": "mnist_like",
    "MNIST_DIM": "mnist_like",
    "NUM_ACTIVITIES": "activity",
    "ON_FOOT": "activity",
    "PcaL1Pipeline": "preprocessing",
    "STILL": "activity",
    "THERMOSTAT_DIM": "thermostat",
    "make_thermostat_data": "thermostat",
    "make_thermostat_split": "thermostat",
    "cifar_like_generator": "cifar_like",
    "collect_on_label_change": "activity",
    "concatenate": "dataset",
    "dirichlet_partition": "partition",
    "iid_partition": "partition",
    "make_activity_stream": "activity",
    "make_cifar_like": "cifar_like",
    "make_mnist_like": "mnist_like",
    "mnist_like_generator": "mnist_like",
    "preprocess_train_test": "preprocessing",
    "shard_partition": "partition",
    "train_test_split": "dataset",
})
