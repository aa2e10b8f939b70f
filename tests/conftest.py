import numpy as np
import pytest
from hypothesis import settings

from transferbound import forge as F
from transferbound import models as M

# the property tests draw the same examples on every run, so a run of the
# suite cannot pass or fail on the luck of a draw
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def build_tiny_setup():
    """2-component x 3-snapshot ensemble on easy 2-D data (fast unit tests)."""
    data = F.make_dataset("gaussian_mixture", 300, 120, 71,
                          input_dim=2, num_classes=2, separation=6.0)
    protos = [
        F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), lr=0.05,
                          epochs=3, seed=101),
        F.PrototypeConfig(spec=M.ModelSpec("mlp", 2, 2, hidden=(8,),
                                           activation="tanh"),
                          lr=0.05, epochs=3, seed=102),
    ]
    ens = F.build_ensemble(protos, data, pretrain_epochs=15)
    return ens, data


def build_quad_setup():
    """The standard 4-prototype ensemble on 6-D, 3-class data."""
    data = F.make_dataset("gaussian_mixture", 600, 300, 72,
                          input_dim=6, num_classes=3, separation=5.0)
    protos = F.desk_prototypes(6, 3, gamma=0.1, base_seed=300,
                               epochs=4, lr=0.05)
    ens = F.build_ensemble(protos, data, pretrain_epochs=15)
    return ens, data


@pytest.fixture(scope="session")
def tiny_setup():
    return build_tiny_setup()


@pytest.fixture(scope="session")
def quad_setup():
    return build_quad_setup()


@pytest.fixture()
def list_groupings(monkeypatch):
    """Sizes of the model lists passed to ``models.member_stack`` during
    the test; a one-member list gets its model's own stack back."""
    builds = []
    member_stack = M.member_stack

    def counted(models):
        builds.append(len(models))
        return member_stack(models)

    monkeypatch.setattr(M, "member_stack", counted)
    return builds
