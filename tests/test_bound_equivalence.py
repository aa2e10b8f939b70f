"""Equivalence gate for bound assembly.

Pins, per case, the SHA-256 of ``BoundReport.csv_row()`` together with
``num_candidates``, ``in_localized_space`` and ``feasible_margin``, as
produced by the per-(model, point) loss loops that ``models.loss_matrix``
replaced.  Cases cover the three divergences with the CLI's default
coefficients, a benign and an mifgsm-attacked point, and two seeds (the
seed picks the test example and the candidate-pool and sharpness seeds)
on the quad fixture, with the ensemble prototypes as the target set.

Re-record with ``PYTHONPATH=src python tests/test_bound_equivalence.py``.
"""

import hashlib

import pytest

from transferbound import attacks as A
from transferbound import bounds as B
from transferbound.cli import PHI_DEFAULTS

CASES = [(phi, point, seed) for phi in B.PHIS
         for point in ("benign", "mifgsm") for seed in (0, 1)]
GAMMA = 0.1


def case_digest(setup, phi, point, seed):
    ens, data = setup
    x, y = data.X_test[seed], int(data.y_test[seed])
    x_hat = x
    if point == "mifgsm":
        cfg = A.AttackConfig(gamma=GAMMA, beta_x=0.02, method="mifgsm",
                             seed=seed)
        x_hat = A.run_attack(x, y, ens, cfg).x_hat
    r = B.profile(x_hat, ens, y).surrogate_risk + 0.05
    c1, c2 = PHI_DEFAULTS[phi]
    rep = B.assemble_bound(x_hat, x, GAMMA, ens, ens.pretrained, y,
                           B.BoundConfig(phi=phi, c1=c1, c2=c2), r, seed=seed)
    return (hashlib.sha256(rep.csv_row().encode("utf-8")).hexdigest(),
            rep.num_candidates, rep.in_localized_space, rep.feasible_margin)


PINNED = {
    ('tv', 'benign', 0):
        ('b4db531e1666eb6e686d77f117a1f1c0a19224b1aae66760ff6e2c88c7c67876', 59, True, 0.0),
    ('tv', 'benign', 1):
        ('952a1361b5a6b831c4c65a2938100ab8b0009014886dd5e5f8b4837ebb801cc3', 49, True, 0.0),
    ('tv', 'mifgsm', 0):
        ('ed168116c9c1d2957b684c17e7649958565358d20510554efcb8aadd55c76552', 65, True, 0.0),
    ('tv', 'mifgsm', 1):
        ('059133df382c97b4363c73c481ab66750fc4504c0fe747f0b1eaecc67ffd1b7f', 65, True, 0.0),
    ('kl', 'benign', 0):
        ('0a13e74077f5ebf28ad896503e601c1bc735483d9d0cffe421f46327d53f34a8', 59, True, 3.757771961010459e-05),
    ('kl', 'benign', 1):
        ('7977fc261ded5a7d059a98585474ba4c96f29bb3d2a52685c8e68f015d34ef45', 49, True, 3.757771961010459e-05),
    ('kl', 'mifgsm', 0):
        ('2c293b4c846964d3529b4fc281039ad86ac0e4807fa99acd0a3d44ee163435eb', 65, True, 3.757771961010459e-05),
    ('kl', 'mifgsm', 1):
        ('ea2c056ff4b5367de49c762798265c7196d4dd423653794664d5e4cb66f05103', 65, True, 3.757771961010459e-05),
    ('chi2', 'benign', 0):
        ('cd130e191bfa5e673931fbdf4833e5c260258c13d773092d9ddff01b655403fa', 59, True, 0.21694313395768947),
    ('chi2', 'benign', 1):
        ('f5424507fc60546c22c58c54ed3adf6556df840b5df26bd2c6dbe43667a8d58e', 49, True, 0.2106933881459394),
    ('chi2', 'mifgsm', 0):
        ('78029d47e3910c3978f0ecef03e9e75283de2d4e9b5e8da29292592d67a1a115', 65, True, 0.2104809507212332),
    ('chi2', 'mifgsm', 1):
        ('d607d25f0a02e6be749b8fb45bef6cc224aeace3f4edf279e120e4d449b39b6a', 65, True, 0.24774750455537556),
}


@pytest.mark.parametrize("phi,point,seed", CASES)
def test_bound_matches_per_point_loops(quad_setup, phi, point, seed):
    assert case_digest(quad_setup, phi, point, seed) == PINNED[(phi, point, seed)]


def main():
    from conftest import build_quad_setup

    setup = build_quad_setup()
    print("PINNED = {")
    for case in CASES:
        print(f"    {case!r}:\n        {case_digest(setup, *case)!r},")
    print("}")


if __name__ == "__main__":
    main()
