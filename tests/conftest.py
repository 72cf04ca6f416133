import numpy as np
import pytest

from polarface import save_pgm


@pytest.fixture(scope="session")
def toy_faces(tmp_path_factory):
    """Tiny ORL-style tree: 3 subjects x 7 images, 48x48, one noisy
    random texture per subject.  Subjects are trivially separable."""
    rng = np.random.default_rng(7)
    root = tmp_path_factory.mktemp("toyfaces")
    for s in range(3):
        sub = root / f"s{s + 1}"
        sub.mkdir()
        base = rng.uniform(0.2, 0.8, size=(48, 48))
        for k in range(7):
            img = np.clip(base + rng.normal(0.0, 0.02, size=(48, 48)), 0.0, 1.0)
            save_pgm(sub / f"{k + 1}.pgm", np.rint(img * 255.0), maxval=255)
    return root


@pytest.fixture(scope="session")
def noisy_faces(tmp_path_factory):
    """Harder ORL-style tree: 3 subjects x 6 images, 48x48, sharing one
    texture with a faint subject texture under strong pixel noise, so
    verification errs on some claims but not on most."""
    rng = np.random.default_rng(5)
    root = tmp_path_factory.mktemp("noisyfaces")
    common = rng.uniform(0.3, 0.7, size=(48, 48))
    for s in range(3):
        sub = root / f"s{s + 1}"
        sub.mkdir()
        own = rng.uniform(-0.07, 0.07, size=(48, 48))
        for k in range(6):
            img = np.clip(common + own + rng.normal(0.0, 0.1, size=(48, 48)), 0.0, 1.0)
            save_pgm(sub / f"{k + 1}.pgm", np.rint(img * 255.0), maxval=255)
    return root
