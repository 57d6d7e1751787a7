"""A QPE config or a noisy backend with an unknown backend name or a
noise setting that is not a NoiseConfig fails when it is built, with the
field named, not later inside ``run_qpe``."""

import pytest

from qbandit.backends import BACKENDS, NoisyBackend, get_backend
from qbandit.noise import NoiseConfig
from qbandit.qpe import QpeConfig


@pytest.mark.parametrize("backend", ["bogus", "", "Ideal", None, 3, ["ideal"]])
def test_unknown_backend_refused_at_construction(backend):
    with pytest.raises(ValueError, match="unknown backend"):
        QpeConfig(n=3, backend=backend)


@pytest.mark.parametrize("noise", ["x", 0.01, {"p1": 0.1}, (5e-4, 5e-3, 5e-3, 0)])
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_noise_of_wrong_type_refused_at_construction(backend, noise):
    with pytest.raises(ValueError, match="noise must be a NoiseConfig"):
        QpeConfig(n=3, backend=backend, noise=noise)


@pytest.mark.parametrize("noise", ["x", {"p1": 0.1}])
def test_noisy_backend_refuses_noise_of_wrong_type(noise):
    with pytest.raises(ValueError, match="noise must be a NoiseConfig"):
        NoisyBackend(noise)
    with pytest.raises(ValueError, match="noise must be a NoiseConfig"):
        get_backend("noisy", noise)


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("noise", [None, NoiseConfig(p1=0.1)])
def test_every_backend_name_with_valid_noise_is_accepted(backend, noise):
    assert QpeConfig(n=3, backend=backend, noise=noise).backend == backend
    assert get_backend(backend, noise).name in {backend, "exact-oracle"}
