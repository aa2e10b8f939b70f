"""Equivalence gate for the attack loop.

Pins, per case, the SHA-256 of ``x_hat.tobytes()``, the observed gradient
calls and the SHA-256 of the ``trace_to_csv`` text, as produced by the six
per-method runners that the single step loop replaced.  Cases cover every
method, the list form of ifgsm/mifgsm, both fixtures, two seeds (seed 1
also switches to the random snapshot schedule, momentum decay 0.9 and
CWA micro-step 0.05), and untargeted and targeted runs.

flat_rap rows from its late start on are hashed without ``loss_pre``: the
old runner recorded it at the reverse-shifted point, the loop records it at
the iterate (``test_attacks.TestTrace`` checks the new values).

The trace digests of the seed-1 (random schedule) ifgsm, mifgsm, drap,
flat_rap and flat_cwa cases were re-recorded when the ``snapshot`` column
changed from the schedule position to the snapshot drawn (``-1`` for the
component batches); their ``x_hat`` and gradient-call pins did not change.

Re-record with ``PYTHONPATH=src python tests/test_equivalence.py``.
"""

import hashlib

import pytest

from transferbound import attacks as A

FORMS = ("ifgsm", "mifgsm", "rap", "flat_rap", "flat_cwa", "drap",
         "ifgsm_list", "mifgsm_list")
CASES = [(setup, form, seed, targeted)
         for setup in ("tiny_setup", "quad_setup") for form in FORMS
         for seed in (0, 1) for targeted in (False, True)]
N_LS = 1


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_bytes(text: str, form: str) -> bytes:
    if form != "flat_rap":
        return text.encode("utf-8")
    lines = text.split("\n")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) == 6 and cells[0].isdigit() and int(cells[0]) >= N_LS:
            cells[3] = "-"
            lines[i] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")


def case_digest(setup, form, seed, targeted):
    ens, data = setup
    method = form.removesuffix("_list")
    cfg = A.AttackConfig(
        gamma=0.1, beta_x=0.02, beta_eps=0.004, inner_T=2, n_ls=N_LS,
        mu=1.0 if seed == 0 else 0.9, micro_step=50.0 if seed == 0 else 0.05,
        method=method, targeted=targeted, seed=seed,
        schedule_mode="trajectory" if seed == 0 else "random",
        n_iter=5 if form.endswith("_list") or method == "rap" else None)
    x, y = data.X_test[seed], int(data.y_test[seed])
    label = (y + 1) % data.num_classes if targeted else y
    models = ens.pretrained if form.endswith("_list") else None
    st = A.run_attack(x, label, ens, cfg, models=models)
    return (_sha(st.x_hat.tobytes()), st.grad_calls,
            _sha(_trace_bytes(A.trace_to_csv(st, cfg), form)))


PINNED = {
    ('tiny_setup', 'ifgsm', 0, False):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 6, 'd817b8c06f98ac0f738881d70bd089a30b4d2e8297a6adc524000c49e4798f08'),
    ('tiny_setup', 'ifgsm', 0, True):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 6, '4e7d413274a6798fd7b6031379d56a547958ed54df6be06d9fc0f108151a209c'),
    ('tiny_setup', 'ifgsm', 1, False):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 6, '22b4d699cddcd449b80ab73aa3a3f83aca8ab91ae799f12e546ce9a080ac8e4f'),
    ('tiny_setup', 'ifgsm', 1, True):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 6, 'b641ad2d9a01b5bb0303d696356d36bf032e3701df6fa855788f45a968b6d5de'),
    ('tiny_setup', 'mifgsm', 0, False):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 6, 'c83f1150d0f2fcfc0148a567f4615025884e29230fa747b069fb7cc1d6e3cacb'),
    ('tiny_setup', 'mifgsm', 0, True):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 6, '387f411d76ddaf17bf29f6f5e3632d7f7f14f4981d7d678e266c80028967a16a'),
    ('tiny_setup', 'mifgsm', 1, False):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 6, '6d80646ffbe4334753ac383e26c55c8e06597bd61ef26801a2475b32941d1b2d'),
    ('tiny_setup', 'mifgsm', 1, True):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 6, 'b2a86c9e3a404aa398ad8d519df6416504cba1bafcc1e6d36306f67f9e55f6dd'),
    ('tiny_setup', 'rap', 0, False):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 26, '17f78a15b7ab136dab5abc3666c0cc4b9cfcb29a8e4b7ab5056cef55185a56c7'),
    ('tiny_setup', 'rap', 0, True):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 26, '5bf527ac6459d1d11984e96cf70e8741c4c950065c56752b2b5ef006cfab4f16'),
    ('tiny_setup', 'rap', 1, False):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 26, 'f6b98d230a403f63a61dc0b7aa56d03a266cd9566a668376614ef24a678e50a8'),
    ('tiny_setup', 'rap', 1, True):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 26, 'a826b93f679865806a24e008b8d2c79fb18490adede1f17f4838f6f918351796'),
    ('tiny_setup', 'flat_rap', 0, False):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 32, 'bf4cfff5dfc3eb5f0cdd30fe3575aa0e05fe783726a9bb3827fc9befa31f0f08'),
    ('tiny_setup', 'flat_rap', 0, True):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 32, '7ef8b6b4c7455e3c5c0b1e372ce345e830bd8ee5f7f874ddf8b00c3cc45090bb'),
    ('tiny_setup', 'flat_rap', 1, False):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 32, '28e0216d84143e82e52d969f136143e652e93a33e969529c3236b9e0a6358905'),
    ('tiny_setup', 'flat_rap', 1, True):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 32, 'e261fc35cc942c73c65982725c09d745e31b857d52bc3c15cc85c1b095033d61'),
    ('tiny_setup', 'flat_cwa', 0, False):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 24, '15e98b0747fb86d1cde6674107b27150cf880f5aa6eff25bf4c382fa85462d6d'),
    ('tiny_setup', 'flat_cwa', 0, True):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 24, 'a9d834713e48c7662cf77090c3d1b71457a68d5757a3a35e513667f0a9d03936'),
    ('tiny_setup', 'flat_cwa', 1, False):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 24, '8de11411eaaa285b966f7a52248ea23cf87d47cda4daeb24d4228c8868efab23'),
    ('tiny_setup', 'flat_cwa', 1, True):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 24, '0ea37b7c3ecfa86c075560bfb03842145f197d91eb3c199e06fca436ff1c3a18'),
    ('tiny_setup', 'drap', 0, False):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 14, '85b81617dface24269828adb6c9f76594c21d6e883287da030d60346c0541666'),
    ('tiny_setup', 'drap', 0, True):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 14, '1c59a0e6140536204d83d74d4b7c45de2f5a75e31e6d2bd1a5126f21f5824539'),
    ('tiny_setup', 'drap', 1, False):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 14, '87b51e80de0b2fc3841606e6ed32445bf5a43f29b61185e920b3e728b38d5dcd'),
    ('tiny_setup', 'drap', 1, True):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 14, 'd6900ebdd6ac1aea39503242f51ff425cb97b033601b8c776a8042600e1adb44'),
    ('tiny_setup', 'ifgsm_list', 0, False):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 10, '6e06431b4d1e856344f329d539eed19cca73122573f9f579233803596d192c5d'),
    ('tiny_setup', 'ifgsm_list', 0, True):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 10, 'ef2af2549d35f8ab61783734bbc57de499eb999ac3447db0997cdff09d1a14f3'),
    ('tiny_setup', 'ifgsm_list', 1, False):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 10, '9cb994bbe5d5901d5a8ffda8b8a8a25f33bcca883b301abbba54bf8f09b0e77d'),
    ('tiny_setup', 'ifgsm_list', 1, True):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 10, 'bab214af60a2b5c752bacd702a389cf82205e49e492e735e4323bb5cf44c2246'),
    ('tiny_setup', 'mifgsm_list', 0, False):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 10, '8749d4bb2ebf830394afefe84c2bd70f9c5cd581e494e6b71fae2dc0b1e0c3aa'),
    ('tiny_setup', 'mifgsm_list', 0, True):
        ('9d30cb1e7681b3659be359d72df1e28ae2bcfa969b694e880f0d13e9455559db', 10, '7c1f1db4bfe55f7239a7741c81682fd1a256b898fcd993ec819252dcfa440132'),
    ('tiny_setup', 'mifgsm_list', 1, False):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 10, '3844ded0d9195284ac3e65c9ff11fafb93c2e14de13e06075dbf53c76a7a9177'),
    ('tiny_setup', 'mifgsm_list', 1, True):
        ('ba270f1f9fec60422ad9fa2c83a82fcca193ce286ae99248bb56ab6343140bb6', 10, 'e79d0a36bd381a352653cee0de448a38f322e13c88efaa6ee28455e37c23877d'),
    ('quad_setup', 'ifgsm', 0, False):
        ('fb41077149d22fe44f41c118cf267a67e2223cf24eb4fbbb4f6e44229167405f', 16, '0d0503f60b008c32ffe5cd4cc8462f4c99c08be4b808d0df9ee94735a2b1fcb3'),
    ('quad_setup', 'ifgsm', 0, True):
        ('4553b5cb862b1194d56a81c606a47d06defad8648684912aad7082046a9eb10a', 16, '22ac52e07c33250afadda20a81885ef215d263a3e30c50464e9a58e44866cdef'),
    ('quad_setup', 'ifgsm', 1, False):
        ('3e60191745e1318a5dfb5e921a20e9394725cffcb8b13d2944e1caa64ad7991a', 16, '6209649d0e657597f9ed99a2c844e71dd8ca7eeea9f400e280940ab79744f1ad'),
    ('quad_setup', 'ifgsm', 1, True):
        ('a2ea3f4f792e55ab5b10579112177363cd6999f822820a6b4e80cefa61075498', 16, '0f8b6c87e6522732d9b10af9bb9e65efd891ec8f9e6ab43d8a7752b6f98a8914'),
    ('quad_setup', 'mifgsm', 0, False):
        ('8d37d764d9e933f22d75a2f5c6ea99bb71e7fb4a06502cf6c5298c3f103341c9', 16, 'e133cb7408f8f80c2170192f3e3d2fa84b228946d4a05345aad353d4ee2d788f'),
    ('quad_setup', 'mifgsm', 0, True):
        ('10b5a2d6829f727268383fa3c0a78d5e043a30ce38a5d428d8bf333791352ce8', 16, 'b7d35c87aaf5034bf4298aba384e121e445687e9fd80beb9d44b89e3227b7d6f'),
    ('quad_setup', 'mifgsm', 1, False):
        ('105faacad0b020710ae24cf915d5e14162d72fefe8e6dbf0d8fe30c2e265e69e', 16, 'e70a88c7b35ce105f280c960acb715f9dc3943e4eb3efb927e93a93ccac54c8d'),
    ('quad_setup', 'mifgsm', 1, True):
        ('1a080d6175f331a26fc8b174b176032190afe8dccb7a26fd395bd3d58352cfbc', 16, '76125c68967d8487cb2dfa3a4db73c27070af21e33388c4fcaf9d65d2b8b7433'),
    ('quad_setup', 'rap', 0, False):
        ('e3197e3fe22c5c79833a1b9ef30d93f2e47691830e0d39fef411de7398d187e1', 52, 'f7016eb711a2b38c134ca0689484f2cd478d68943fbd1f9001a5b53b68810c5e'),
    ('quad_setup', 'rap', 0, True):
        ('ab8c005104ac82650bdd519f0ab9451bca6e9c03e9b3bcd3f43e08efda6f4dc1', 52, 'df3fec7e66e6912a55a43cf8e016f5c239eeebb6fec3e45f05f1e2da5b80b289'),
    ('quad_setup', 'rap', 1, False):
        ('26458509c8eec93974b298226fc5142989d1d62f7541ff6beb7504d26cdbd64b', 52, '02f02f73915994ee3db9072b3159b65d73e79ce7830432b125bc355085a6145d'),
    ('quad_setup', 'rap', 1, True):
        ('4cfde1e3545bbd1ad7479aaf3dd0a2d3689b5bd714067bee1f41f61aefa5c4aa', 52, 'd91a504f1da1695e5eeef7057a30ab1d10099d600113cbef2bc92a7830ada3ab'),
    ('quad_setup', 'flat_rap', 0, False):
        ('343540de9be5199f4ce6b9e768b509adb01283bc8a2662249a04c3cbd4c89f76', 184, 'ac9806d0593386ea9a1817eb927384623103cf513b566ab6e0d2d6cd85c319b0'),
    ('quad_setup', 'flat_rap', 0, True):
        ('971b16e4d601273f32b7158b772938907eb12cadb5006508aaf6009f5367ac56', 184, '28f187b6f58afdeb0255109ce76ef6a07df1da0ea1729592600c974e24c9e9d7'),
    ('quad_setup', 'flat_rap', 1, False):
        ('105faacad0b020710ae24cf915d5e14162d72fefe8e6dbf0d8fe30c2e265e69e', 184, 'bbf07712080e363f96b26a3c906dccb428743b23680a05a3a093377d72ab65a2'),
    ('quad_setup', 'flat_rap', 1, True):
        ('e12a1ebd1b355c80f4d1952ea79bc79b4cc79494116cb2560d5a48d18e8fec8c', 184, '02a7106d4334ee6429d57e74416d857285b90c147a03cbe9d47d0de24a1abc83'),
    ('quad_setup', 'flat_cwa', 0, False):
        ('8d37d764d9e933f22d75a2f5c6ea99bb71e7fb4a06502cf6c5298c3f103341c9', 128, '335661dddce0fdd686ccc5ae4c285a80dbdb9fd21b07a5707729a79ef1c42a07'),
    ('quad_setup', 'flat_cwa', 0, True):
        ('10b5a2d6829f727268383fa3c0a78d5e043a30ce38a5d428d8bf333791352ce8', 128, '6fdfac0500084ad80bcd73a8e7692ad92d1146614c7f5cf9c5a5c8b30b1b3c6e'),
    ('quad_setup', 'flat_cwa', 1, False):
        ('105faacad0b020710ae24cf915d5e14162d72fefe8e6dbf0d8fe30c2e265e69e', 128, '9e7e19fc5508e4bcf3e3179a722323250c9e4db3fe7f5b809a4f43679582f0df'),
    ('quad_setup', 'flat_cwa', 1, True):
        ('331ff95296243dd91182af19a1c3e729cb6bc5f86275eb1d52ee904e54df6958', 128, '91c0aa306771f382fd79e7a319dd1df965b630c08bbae83042478e95dee2e7cc'),
    ('quad_setup', 'drap', 0, False):
        ('8d37d764d9e933f22d75a2f5c6ea99bb71e7fb4a06502cf6c5298c3f103341c9', 40, '024cdd435d6960133ea59c3862c104cb86c65a9b304f64817df2f7feaf025153'),
    ('quad_setup', 'drap', 0, True):
        ('10b5a2d6829f727268383fa3c0a78d5e043a30ce38a5d428d8bf333791352ce8', 40, 'bd1a51bd29e5427d78f80f0dede90fa256551f6749be988a5ee3746a00bddf48'),
    ('quad_setup', 'drap', 1, False):
        ('105faacad0b020710ae24cf915d5e14162d72fefe8e6dbf0d8fe30c2e265e69e', 40, '052d73c4e829517b5b4d752fdec9461a3ec8b9a57b631b7ab07706ca5d275475'),
    ('quad_setup', 'drap', 1, True):
        ('1a080d6175f331a26fc8b174b176032190afe8dccb7a26fd395bd3d58352cfbc', 40, 'e9908592d450bb63aa285567c9823bec5188e7c8ad0bb66ffb2ed511bb8c7ce0'),
    ('quad_setup', 'ifgsm_list', 0, False):
        ('b75f5a7a7ba4f6fa3530c27cadf5dc3712bb9709dfe0257acd7a4d8757a453ca', 20, '16c06051e79c8b9dc51b1bb006fe05c38f975c7fe9af1dd22e93e97caeaffac7'),
    ('quad_setup', 'ifgsm_list', 0, True):
        ('ab8c005104ac82650bdd519f0ab9451bca6e9c03e9b3bcd3f43e08efda6f4dc1', 20, 'f23bd0be8ea103cc3ddddbb8d3d36c3eac074519a7df1ab417ca2dd2ff5308d9'),
    ('quad_setup', 'ifgsm_list', 1, False):
        ('26458509c8eec93974b298226fc5142989d1d62f7541ff6beb7504d26cdbd64b', 20, '9f28b64ec19409e7ebc9800b0d135dec28f9cddc801099823851f42f24941844'),
    ('quad_setup', 'ifgsm_list', 1, True):
        ('4cfde1e3545bbd1ad7479aaf3dd0a2d3689b5bd714067bee1f41f61aefa5c4aa', 20, '045edea4d875b20b6d1663cbb56803c2fbeb8c9806ac7f2495f02e0241b57860'),
    ('quad_setup', 'mifgsm_list', 0, False):
        ('e3197e3fe22c5c79833a1b9ef30d93f2e47691830e0d39fef411de7398d187e1', 20, '4fd9bcb66c3611f2b9e06489886a36fcac4382c70fc5f5c99f6969da16c4e7da'),
    ('quad_setup', 'mifgsm_list', 0, True):
        ('e89d947146a890e5cda60db33830430be66b547918685284fe6aad799fe5c03a', 20, 'e5269f7e1f8cc459307c882108c9504694a7b254f6d5156dea7d6b62ed5d7000'),
    ('quad_setup', 'mifgsm_list', 1, False):
        ('26458509c8eec93974b298226fc5142989d1d62f7541ff6beb7504d26cdbd64b', 20, '392b97505f393d1a79df8863d9ce6af1c3615b7e9aaf74bc159e253cbf2e1c8e'),
    ('quad_setup', 'mifgsm_list', 1, True):
        ('4cfde1e3545bbd1ad7479aaf3dd0a2d3689b5bd714067bee1f41f61aefa5c4aa', 20, 'd4ecd3a6f3232646af0af72d5d0ba29675ebdd2d7cebe2cadc1f94cae1eb5b64'),
}


@pytest.mark.parametrize("setup,form,seed,targeted", CASES)
def test_loop_matches_replaced_runners(request, setup, form, seed, targeted):
    got = case_digest(request.getfixturevalue(setup), form, seed, targeted)
    assert got == PINNED[(setup, form, seed, targeted)]


def main():
    from conftest import build_quad_setup, build_tiny_setup

    setups = {"tiny_setup": build_tiny_setup(),
              "quad_setup": build_quad_setup()}
    print("PINNED = {")
    for case in CASES:
        print(f"    {case!r}:\n        {case_digest(setups[case[0]], *case[1:])!r},")
    print("}")


if __name__ == "__main__":
    main()
