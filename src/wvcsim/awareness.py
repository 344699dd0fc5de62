"""Awareness propagation between radars and the driver-alert sign controller.

A detection broadcast boosts every radar within the awareness range for the
persistence window (Aware mode only) and lights the message sign (Detection
and Aware). The sign stays on until the window expires AND no detected animal
remains in a dangerous behavioural state, whichever is later. Delivery is
instantaneous and lossless; the boost reverts to baseline as a step function
at window expiry.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .animals import Activity, AnimalState
from .config import CorridorConfig, Mode, RadarNode
from .detection import DetectionEvent

# Behavioural states that hold the driver-alert sign: at the road edge or on it.
DANGEROUS_STATES = frozenset((Activity.HESITATING, Activity.CROSSING, Activity.FROZEN))


class AwarenessState:
    """Boost clocks (one per radar) plus the sign-activation clock.

    All clocks are monotone nondecreasing. In Control mode nothing ever
    activates; in Detection mode boosts stay at baseline (sign only).
    """

    def __init__(self, config: CorridorConfig, n_radars: int):
        self.mode = config.mode
        self.boost_factor = config.boost_factor
        self.persistence = config.persistence_window
        self.awareness_range = config.awareness_range
        self.road_length = config.road_length
        self.boost_until = [-math.inf] * n_radars
        self.dms_active_until = -math.inf

    def on_detection(self, event: DetectionEvent, radars: Sequence[RadarNode]) -> None:
        """Apply one detection broadcast (latest-window-wins on every clock).
        ``radars`` are the trial's radars: a radar is reached where its ring
        distance from the source is at most the awareness range."""
        expiry = event.time + self.persistence
        if expiry > self.dms_active_until:
            self.dms_active_until = expiry
        if self.mode is not Mode.AWARE:
            return
        reach = self.awareness_range
        length = self.road_length
        if reach >= length / 2.0:
            # Every float d >= 0 has min(d, length - d) <= length / 2: for
            # d > length / 2 the subtraction is exact (Sterbenz's lemma) or
            # negative. So every radar is reached.
            self.boost_until = [expiry if expiry > b else b for b in self.boost_until]
            return
        boost_until = self.boost_until
        source_x = radars[event.radar_id].x
        for node in radars:
            d = abs(node.x - source_x)
            if min(d, length - d) <= reach and expiry > boost_until[node.rid]:
                boost_until[node.rid] = expiry

    def beta_for(self, radar_id: int, now: float) -> float:
        """Boost multiplier for one radar: boosted strictly before window expiry."""
        return self.boost_factor if self.boost_until[radar_id] > now else 1.0

    def window_closed(self, now: float) -> bool:
        """Whether the broadcast window no longer lights the sign at ``now``.
        Until the next detection, once true it stays true, so a search can
        find the step the window closes."""
        return not now < self.dms_active_until

    def dms_active(self, animals: Iterable[AnimalState], now: float) -> bool:
        """Sign state: live window, or any detected animal in a dangerous state."""
        if self.mode is Mode.CONTROL:
            return False
        if not self.window_closed(now):
            return True
        for a in animals:
            if a.detected and a.state in DANGEROUS_STATES:
                return True
        return False
