import math
from array import array

import numpy as np
import pytest

import wvcsim.vehicles
from wvcsim.animals import Herd
from wvcsim.config import CorridorConfig
from wvcsim.detection import Detector


@pytest.fixture
def kernel(request, monkeypatch):
    """The vehicle kernel a test runs on, parametrized indirectly: "compiled",
    or "python", the fallback, forced through the module's loaded-kernel
    slot."""
    if request.param == "python":
        monkeypatch.setattr(wvcsim.vehicles, "_kernel", False)
    elif not wvcsim.vehicles.load_kernel():
        pytest.skip("no compiled vehicle kernel on this host")
    return request.param


def trial_arguments(fleet, n_steps, v0, rng):
    """The arguments of the compiled kernel's ``trial``, in order, by name,
    for ``n_steps`` rounds of ``fleet``'s buffer at desired speed ``v0``: no
    arrival and no radar, so no animal and no lit sign, the default herd,
    and ``rng``'s capsule for both streams (which does not keep ``rng``
    alive)."""
    config = CorridorConfig()
    nowhere = (math.inf, -math.inf)
    herd = Herd(config, nowhere, rng, fleet, n_steps)
    detector = Detector(config, [], nowhere, rng)
    return dict(fleet=fleet.buf, lead=fleet.lead, herd=herd.buf, radars=detector.buf,
                times=array("d"), xs=array("d"), sigmas=array("d"), mode=0,
                persistence=30.0, awareness_range=1500.0, v_cruise=v0, v_caution=v0,
                forage_lo=2.0, forage_hi=10.0, n_steps=n_steps,
                behaviour=rng.bit_generator.capsule, detection=rng.bit_generator.capsule)


def compiled_steps(kernel, fleet, n_steps, v0):
    """``n_steps`` rounds of ``fleet``'s buffer at desired speed ``v0``, none
    a braking step, taken by ``kernel``'s ``trial`` (``trial_arguments``):
    whether it took them (False where it declines the trial)."""
    rng = np.random.default_rng(0)
    return kernel.trial(*trial_arguments(fleet, n_steps, v0, rng).values()) is not None
