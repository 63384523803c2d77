import pytest

from microflow import formats
from microflow.casorati import to_casorati
from microflow.phantom import imaging
from microflow.phantom import scene as phantom_scene


@pytest.fixture(scope="session")
def desk_ensemble():
    """A 5670x100 desk-phantom ensemble (seed 7, 25 dB) as a dataset file stores it."""
    scene, _ = phantom_scene.build_phantom(7, n_units=2, cylinder_radius_mm=6.0, pixel_mm=0.2)
    seq, _ = imaging.synthesize_iq(scene, 100, noise_snr_db=25.0)
    return to_casorati(formats.complex64_voxels(seq.voxels))
