"""On-disk layout of a monitor root — path helpers that need nothing
above the store.

Kept separate from :mod:`repro.monitor.plane` (which imports the whole
campaign machinery) so lightweight consumers — the query plane routing
per-epoch lookups, the telemetry reader — can share the layout without
paying the import.

::

    <root>/monitor.json            # MonitorConfig (version-stamped)
    <root>/epochs/e0000/           # epoch 0: baseline campaign store
    <root>/epochs/e0001/           # epoch 1: delta campaign store
    <root>/epochs/e0001/monitor_events.json   # the epoch's event batch
    <root>/events/monitor.jsonl    # telemetry stream (one per root)
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.store.manifest import load_manifest, manifest_path

MONITOR_STATE_FILENAME = "monitor.json"
EPOCHS_DIR = "epochs"
EPOCH_EVENTS_FILENAME = "monitor_events.json"
MONITOR_FORMAT_VERSION = 1


def is_monitor_root(path: Path) -> bool:
    """True when *path* holds a monitor (vs. a plain campaign store)."""
    return (Path(path) / MONITOR_STATE_FILENAME).exists()


def epoch_dir(root: Path, epoch: int) -> Path:
    return Path(root) / EPOCHS_DIR / f"e{epoch:04d}"


def list_epoch_dirs(root: Path) -> List[int]:
    """Epoch numbers that have a store directory under *root*, sorted.

    Presence of the directory only — completeness is the caller's
    concern (the manifest records it).
    """
    epochs_root = Path(root) / EPOCHS_DIR
    if not epochs_root.is_dir():
        return []
    epochs = []
    for entry in epochs_root.iterdir():
        name = entry.name
        if entry.is_dir() and name.startswith("e") and name[1:].isdigit():
            epochs.append(int(name[1:]))
    return sorted(epochs)


def completed_epochs(root: Path, through: Optional[int] = None) -> List[int]:
    """Epochs (up to *through*, default: all) whose store holds a
    manifest marked complete, sorted — the one answer to "which epochs
    can be read"."""
    return [
        epoch
        for epoch in list_epoch_dirs(root)
        if (through is None or epoch <= through)
        and manifest_path(epoch_dir(root, epoch)).exists()
        and load_manifest(epoch_dir(root, epoch)).complete
    ]
