"""The full-scan replay: equivalence oracle for the windowed replay kernel.

This is the original Section 6 replay — walk *every* logged effect, skip
the ones at or before ``last_cached`` one by one, and dispatch through the
``invalidates`` property — kept verbatim as the oracle
:func:`repro.core.cachelog.replay_window` (binary-searched suffix, inline
int path) is compared against (``tests/test_cachelog_kernel.py``,
``tests/conc/test_cachelog_snapshot_reader.py``).  It does not rely on the
log's timestamps being sorted, so a kernel that skips or repeats an effect
shows up as a different label.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.cachelog import LABEL_CHANNEL, Effect, Label


def replay_effects(
    entries: Iterable[Effect],
    dropped_through: int,
    last_modified: int,
    label: Label,
    last_cached: int,
    channel: str = LABEL_CHANNEL,
) -> Label | None:
    """Replay kernel shared by the live log and its immutable snapshots.

    Brings a cached ``label`` (valid as of ``last_cached``) up to the state
    ``entries`` describes.  Returns the repaired label, or ``None`` when the
    cache cannot be used — either the history needed has been dropped from
    the log, or a logged effect invalidated a range containing the label.
    """
    if last_cached >= last_modified:
        return label  # nothing happened since; cache is fresh
    if last_cached < dropped_through:
        return None  # history lost
    for effect in entries:
        if effect.timestamp <= last_cached or effect.channel != channel:
            continue
        if effect.invalidates:
            if effect.hits(label):
                return None
        else:
            label = effect.apply(label)
    return label
