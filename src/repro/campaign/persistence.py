"""Dataset persistence: save/load a :class:`DriveDataset` to disk.

The paper's dataset is published as files [8]; an adopted open-source
release needs the same.  Every dataset file — a saved campaign, a shard
checkpoint, a sweep cache entry, a catalog partition — uses one on-disk
format, the columnar ``.rcol`` file of :mod:`repro.store.format`, which
round-trips every record value exactly.

Saves are **atomic** (written to a sibling temp file, then ``os.replace``'d
into place) so an interrupted save can never leave a truncated file behind,
and **byte-reproducible** (no timestamps, deterministic encodings) so equal
datasets serialise to equal bytes — both properties the engine's shard
checkpoints and determinism tests rely on.

These two functions are the public names for that format; they exist so
callers need not import the store package to save or load one dataset.
"""

from __future__ import annotations

import pathlib

from repro.campaign.dataset import DriveDataset

__all__ = ["save_dataset", "load_dataset"]


def save_dataset(dataset: DriveDataset, path: str | pathlib.Path) -> None:
    """Write a dataset to disk as one ``.rcol`` file, atomically.

    The file appears at ``path`` only once fully written and flushed; a
    crash mid-save leaves any previous file at ``path`` untouched.
    """
    # Imported here: repro.store imports repro.campaign at package level.
    from repro.store.format import write_dataset

    write_dataset(dataset, path)


def load_dataset(path: str | pathlib.Path) -> DriveDataset:
    """Read a dataset written by :func:`save_dataset`.

    Raises
    ------
    StoreError
        When ``path`` is not a ``.rcol`` file, or is truncated or corrupt.
    """
    from repro.store.format import read_dataset

    return read_dataset(path)
