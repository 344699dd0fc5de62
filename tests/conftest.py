import pytest

import wvcsim.vehicles


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
