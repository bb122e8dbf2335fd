"""The full-scan replay: equivalence oracle for the windowed replay kernel.

This is the original Section 6 replay — walk *every* logged effect, skip
the ones at or before ``last_cached`` one by one, and dispatch through the
``invalidates`` property — kept as the oracle
:meth:`repro.core.cachelog.LogSnapshot.replay` (binary-searched suffix,
inline int path) is compared against (``tests/test_cachelog_kernel.py``,
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
    """Bring a cached ``label`` (valid as of ``last_cached``) up to the
    state ``entries`` describes.  Returns the repaired label, or ``None``
    when the cache cannot be used — the history needed has been dropped
    from the log, a logged effect invalidated a range containing the
    label, or a shift freed it (``apply`` returns None).
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
            if label is None:
                return None
    return label
