"""Per-frame radar detection of animals.

Each frame, every not-yet-detected animal inside a radar's detection radius
draws an independent Bernoulli per covering radar, with a per-frame success
probability that saturates exponentially in the frame length, scaled by body
size and, under awareness propagation, by the sensitivity boost. Detection is
sticky: a detected animal generates no further events.

The module functions are the references. A trial's ``Detector`` runs a
step's detection, phase 2 of ``engine.run_trial``, over the awake animals:
in the compiled kernel (``vehicles.load_kernel``), which draws from the
trial's detection stream through numpy's bit generator, or in a loop over
``try_detect``, which gives the same bits and draws.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .animals import AnimalState
from .config import CorridorConfig, RadarNode
from .vehicles import load_kernel

if TYPE_CHECKING:
    from .awareness import AwarenessState


class DetectionParams(NamedTuple):
    kappa: float     # baseline per-second detection rate
    r_det: float     # detection radius, m


class DetectionEvent(NamedTuple):
    time: float
    radar_id: int
    animal_id: int


def f_size(sigma: float) -> float:
    """Body-size sensitivity factor, capped at 2.0."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return min(2.0, 0.4 + 0.6 * sigma)


def detection_probability(kappa: float, sigma: float, beta: float, dt: float) -> float:
    """Per-frame detection probability 1 - exp(-kappa * f_size(sigma) * beta * dt)."""
    if kappa < 0 or beta < 0 or dt < 0:
        raise ValueError("kappa, beta, and dt must be non-negative")
    return 1.0 - math.exp(-kappa * f_size(sigma) * beta * dt)


def radars_in_range(animal_x: float, animal_y: float, radars: Sequence[RadarNode],
                    spacing: float, r_det: float) -> list[RadarNode]:
    """Radars whose detection radius covers the animal (hard cutoff at r_det).

    Radar ids index a regular grid, so only the window |x - animal_x| <= r_det
    needs a distance test.
    """
    if not radars:
        return []
    lo = max(0, math.ceil((animal_x - r_det) / spacing))
    hi = min(len(radars) - 1, math.floor((animal_x + r_det) / spacing))
    hits = []
    rsq = r_det * r_det
    for i in range(lo, hi + 1):
        node = radars[i]
        dx = node.x - animal_x
        dy = node.y - animal_y
        if dx * dx + dy * dy <= rsq:
            hits.append(node)
    return hits


def try_detect(animal: AnimalState, radars: Sequence[RadarNode], spacing: float,
               beta_for, now: float, dt: float, params: DetectionParams,
               rng: np.random.Generator) -> Optional[DetectionEvent]:
    """Attempt first-time detection of one animal for this frame.

    Records the first frame the animal is inside any radar's radius. Each
    covering radar draws once, with the boost factor supplied by
    ``beta_for(radar_id, now)``; the first success wins. Returns the event,
    or None. Already-detected animals return None immediately.
    """
    if animal.detected:
        return None
    covering = radars_in_range(animal.x, animal.y, radars, spacing, params.r_det)
    if not covering:
        return None
    if animal.first_in_range_at is None:
        animal.first_in_range_at = now
    kappa = params.kappa
    for node in covering:
        p = detection_probability(kappa, animal.sigma, beta_for(node.rid, now), dt)
        if rng.random() < p:
            animal.detected = True
            animal.detected_at = now
            return DetectionEvent(time=now, radar_id=node.rid, animal_id=animal.aid)
    return None


class Detector:
    """One trial's radars and detection stream: each step's detection.

    The radar buffer ``buf`` (its slots in advance_idm.c) takes the
    spacing, ``r_det``, kappa, the frame length, the boost factor, the
    radar band (``engine._radar_band``) and each radar's x and y, by rid,
    once. ``detect`` runs in the compiled kernel where it loads, and in its
    Python loop where the kernel is unavailable or leaves it animals.
    """

    def __init__(self, config: CorridorConfig, radars: Sequence[RadarNode],
                 band: tuple[float, float], rng: np.random.Generator):
        self.radars = radars
        self.spacing = config.radar_spacing
        self.params = DetectionParams(kappa=config.kappa, r_det=config.radar_range)
        self.dt = config.time_step
        self.band = band
        self.rng = rng
        self.bitgen = rng.bit_generator.capsule
        self.kernel = load_kernel()
        self.buf = array("d", [self.spacing, self.params.r_det, self.params.kappa,
                               self.dt, config.boost_factor, *band])
        for values in ([node.x for node in radars], [node.y for node in radars],
                       [0.0] * len(radars)):
            self.buf.extend(values)

    def detect(self, animals: list[AnimalState], sleeping: dict[int, int],
               awareness: "AwarenessState", now: float) -> list[DetectionEvent]:
        """This step's detection events, in the order of ``animals``:
        ``try_detect`` for each animal that is undetected, inside the radar
        band and not a key of ``sleeping``, boosted by ``awareness``'s
        clocks as they stand.

        The kernel tries the animals in order up to the first one where
        ``try_detect`` would raise or reads a value that is not a float;
        the loop below goes on from that animal, so errors are raised here,
        as they would be without the kernel."""
        events = []
        start = 0
        if self.kernel:
            start, hits = self.kernel.detect(self.buf, animals, sleeping,
                                             awareness.boost_until, now, self.bitgen)
            events = [DetectionEvent(now, rid, aid) for rid, aid in hits]
            if start == len(animals):
                return events
        lo, hi = self.band
        for a in animals[start:]:
            if not a.detected and lo <= a.y <= hi and a.aid not in sleeping:
                ev = try_detect(a, self.radars, self.spacing, awareness.beta_for, now,
                                self.dt, self.params, self.rng)
                if ev is not None:
                    events.append(ev)
        return events
