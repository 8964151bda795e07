"""Digest matrix: one sha256 per run over every `BENCHMARKS` entry, widths
{1, 4, 8}, cores {1, 2, 6} and seeds 1-3 (135 runs, each benchmark built
with its default parameters and outcome bias).

Each digest covers `report.to_json()`, `events_to_csv`, `steps_to_csv` and
the reprs of the scheduler event list and the block spans, in their raw
order. A change that moves a digest must say why. To print the table for
the current code, run `PYTHONPATH=src python tests/test_digest_matrix.py`.
"""

from __future__ import annotations

import hashlib

import pytest

from qcpsim import (BENCHMARKS, Engine, MachineConfig, QpuConfig,
                    build_report, events_to_csv, make_benchmark, program_hash,
                    steps_to_csv)

WIDTHS = (1, 4, 8)
CORES = (1, 2, 6)
SEEDS = (1, 2, 3)


def run_digest(bench, width: int, cores: int, seed: int) -> str:
    config = MachineConfig(cores=cores, superscalar_width=width, seed=seed,
                           qpu=QpuConfig(outcome_bias=bench.bias))
    trace = Engine(bench.program, config).run()
    report = build_report(trace, program_hash(bench.program))
    h = hashlib.sha256()
    for text in (report.to_json(), events_to_csv(trace.events),
                 steps_to_csv(report), repr(trace.scheduler_events),
                 repr(trace.block_spans)):
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def matrix() -> dict[str, str]:
    out = {}
    for name in sorted(BENCHMARKS):
        bench = make_benchmark(name)
        for width in WIDTHS:
            for cores in CORES:
                for seed in SEEDS:
                    out[f"{name}-w{width}-c{cores}-s{seed}"] = run_digest(
                        bench, width, cores, seed)
    return out


MATRIX = {
    "active_reset_rb-w1-c1-s1": "014c7708d218cdf54aebd11c2201c449a76af75fdf19b0239de60ba19fe241de",
    "active_reset_rb-w1-c1-s2": "55b5cda1885ebc7b6a2d54ebd929131519c1d0778031d5532c1e1c695ae946cc",
    "active_reset_rb-w1-c1-s3": "388ae1ec10ce9b7d590dcda9ab8d79dd598751ffa23d430015f532b1b00bff2c",
    "active_reset_rb-w1-c2-s1": "cd273222f3f8da4aa95bf003e0207ca3ba1edaaaa0018e1658c244bf140544c3",
    "active_reset_rb-w1-c2-s2": "a0c9d07c67d865924afc316be521879bcf07d55c9f2a9398dc448b394c17cad8",
    "active_reset_rb-w1-c2-s3": "1968e721faa4e41590b6d0987f163b5ccb1cb2834011d2069ea66541c979b9ae",
    "active_reset_rb-w1-c6-s1": "457bcbc3224770a5b541c4bb4c870f18059070345850fdd7fb85def1e6aef2dc",
    "active_reset_rb-w1-c6-s2": "9184e44e1a77a618518b437af35b7605871fed0c4a3d34db4c1538de47fae048",
    "active_reset_rb-w1-c6-s3": "fdc1bb224e660cf71a55a3e5c3dc533412d377b91d1830521fcaabebf31e7388",
    "active_reset_rb-w4-c1-s1": "0b32060fb24cae12d432801575da5a920351085c984fb23a79a8d15eb6eda46a",
    "active_reset_rb-w4-c1-s2": "1b611012fd239f55f15a288e2fc59a5d3b0c73e776c39417448df3c9daa995b7",
    "active_reset_rb-w4-c1-s3": "0dab7ecfdf0ef9d0ccff459afd6c0174da23915da8ee0354f9ef06a106421bdd",
    "active_reset_rb-w4-c2-s1": "a7e1b9a2859f22128cf1e1e64367e984ee0f006409d00fcf12b842f6cd7afab5",
    "active_reset_rb-w4-c2-s2": "9b947183255b981dd1cd5c25c81512c49f5b0dff38ba704c300ea73eeeacef78",
    "active_reset_rb-w4-c2-s3": "375a0fb8c45728b66fd98f2ec1fb5abbbab6b13a9cbf2d736434ce57843e0693",
    "active_reset_rb-w4-c6-s1": "9624f455d68bcb615991a6015d7e8e9155a71d5a6eb6bf42c131bb5a5f9cc1a5",
    "active_reset_rb-w4-c6-s2": "b2f6e8201cb73a47192488414ebac7ecbea5bb588fe4d73f626731a707edf0ac",
    "active_reset_rb-w4-c6-s3": "a6c66545c49c8210c549b68246fa50817bb39854f0dcdd54951da7c309735eb1",
    "active_reset_rb-w8-c1-s1": "852d2bb885f2142ec82a45236b5534e0f017c6bf1a079cb8801da946740758ce",
    "active_reset_rb-w8-c1-s2": "886bca23b2bffeaf6088ec9a29a80679597188a5e486c0f92e9347bee629fb73",
    "active_reset_rb-w8-c1-s3": "3e0cc0192fed4804098ee62ab5d8fc5646d341b0c66228e76264923a1483a26b",
    "active_reset_rb-w8-c2-s1": "58e917d8502907256518126618b704a6965383a1ce99979776ec79255a12968e",
    "active_reset_rb-w8-c2-s2": "335eb8fcfcb5ccf01dda02f5912da54a37c1a9de882d9295afab6f280b4b086f",
    "active_reset_rb-w8-c2-s3": "2c930216c60c1cedcb2e19c2ccfef6925f99e9a5e7821f56f8012e4f4e7ffd37",
    "active_reset_rb-w8-c6-s1": "8ac1d2088137651e31b2238d96f5bc403a6557f75c35a60792fb6afb662b86f9",
    "active_reset_rb-w8-c6-s2": "b850045bdf9526b1909a0c0553f513d212765d9f6ef6b5e43b76a53b6f6b6d4b",
    "active_reset_rb-w8-c6-s3": "cdfe1411742516033540484c87148a38ef6bb600465382805bc424e0911cc9f3",
    "dense-w1-c1-s1": "d4c203023ed637e1b4e37b8aee5068acb267174687296768dcebd23720609cc2",
    "dense-w1-c1-s2": "d3bd677ddfcfc81037b5cc3e44c92e0c6654d521836d14381a053edcd873c69e",
    "dense-w1-c1-s3": "7da3e2d7b1c686a0bd65423e878dba20c5a4207952fbdb70d44bf19a0e10bbf5",
    "dense-w1-c2-s1": "c7607fa22c5d4198f43a81443750396167a115bf22b71abf11ae2f1855884c79",
    "dense-w1-c2-s2": "acc35137c39d88c1736a52e368993f23ee25c2bb4258a7a7455997a8043e2cce",
    "dense-w1-c2-s3": "93000279d0c363a2b52bd4f3f18cf37ea8e372f77d246859ebe14b6d34afd44d",
    "dense-w1-c6-s1": "e4b4012b9902d2f5cda8d9a241f1718ca697679c312ffb6174b484f3034c82be",
    "dense-w1-c6-s2": "7a3e179323a46c2d5a144d3a470bcbdd2e59bf4af06c4bbc594e7ea65831743a",
    "dense-w1-c6-s3": "4ea193d90df5ce379499a33324d3ea1f3a6b3f7af202f31bd2e365a3cae2a528",
    "dense-w4-c1-s1": "07b614224f0f4c4400e7ac1e73fdd179af0206ccc35213916e0fdaf00ad4fbca",
    "dense-w4-c1-s2": "9fc7100aff8d94829648ebabd85ffdaadacb35fe3731d337cdf530dd10b1e615",
    "dense-w4-c1-s3": "d6a5a4bfd4c52c3b68c7b8015261f57dfde605bd7a0a04ff514b2e6ac5c5420f",
    "dense-w4-c2-s1": "bf914a3e1763f19d6bd30239c8e6e8ab0b57430cd196acf65bc0b144336cdb23",
    "dense-w4-c2-s2": "2823b86fded89d0148bc259e5e52ff73a6ab90bde50ffffef0fc48f117454c53",
    "dense-w4-c2-s3": "ca323fe32b93e6a4168d7422b076547ae40f0670be66bd4ac2fd98f0d639a61f",
    "dense-w4-c6-s1": "e68af0bf775965bd6d6e53546f10d33f0e657627e4254a9d4025b791f53ee7bd",
    "dense-w4-c6-s2": "ed9e7abb98ad35cbde0a1213ce4bd0336b488b79526a9e431d82157228c38d1b",
    "dense-w4-c6-s3": "588bdbf2fb4b2d1d48b0cc8dcdd8093f7145f24bb199c5468d2a1f6ae6a70bb4",
    "dense-w8-c1-s1": "61bccf4c52a40bc57b2e1e798e0b1d371c41a41c07d81a871b157cb524cc91d5",
    "dense-w8-c1-s2": "c4cedbfe480eb843f71c32b6d79ca0757cdd3967bd1ba394adda2635b8f449a0",
    "dense-w8-c1-s3": "4cddf360bd103d3ffd37c13c167de27bdff8fdd6964921bb07d2cac1926b9bce",
    "dense-w8-c2-s1": "44661eee5fd9f983cf90b122d2e68bef95a716231fb4b76b5891858466365167",
    "dense-w8-c2-s2": "e328d0b9523b3a7de027f8b4308c127e4f4651e527f12e0b7e9a65baa1faf92e",
    "dense-w8-c2-s3": "33bb742e36139443fb0ffeff44dac223193ac4f5215d139d7ff5734a5ccccd9f",
    "dense-w8-c6-s1": "ae1c85a0252887e8efad136942033003767bfc952df4104e2d3565447d544847",
    "dense-w8-c6-s2": "4aba8ea354af16d2dcf0c8da8458a83ce99e4e800d796071922cbc390a65b350",
    "dense-w8-c6-s3": "07797ce835905b50e4a7e969bd718f2d6a2ee609292971504a9eed0de8665c11",
    "feedforward-w1-c1-s1": "403143ee0dbcdb494bddfc5bb61497b8e5f62877e5b7468690b2a29acb7f7a98",
    "feedforward-w1-c1-s2": "c117a28dfadae85db5aa75efe18619449a37c8b3043dc4d852bac71e5b65b64c",
    "feedforward-w1-c1-s3": "1e8f2300e2da3310fc7f4cb0753a11db1cec6ba629b01b134906b18a298d8caa",
    "feedforward-w1-c2-s1": "f7bdbed66273aeebf023c51917feb1afbe552fe2eabaecc5771c347086769f98",
    "feedforward-w1-c2-s2": "0d0eab74f135a4f83e4ebe8a3cce1711a073580560195686ca66093bd2e55aa5",
    "feedforward-w1-c2-s3": "38f92fef5883ed907b0bdc45eee1971d7f4ac23ffd2980616b38f75772fff58c",
    "feedforward-w1-c6-s1": "eb1f9da04d1824144b4de7af60731ad5fd84a83226f1d1b77d74b1f3ab08a902",
    "feedforward-w1-c6-s2": "2487358ecf2de9d6cec2ab861cd223a306b89babb04f87dad5fbe4e9ae1994bd",
    "feedforward-w1-c6-s3": "f088a0685b32362e8cf6728479c01fddd4c7fa33e19d091d8a14d63dc4a7b079",
    "feedforward-w4-c1-s1": "3b5996655f8dfaee6f7a5d09618794ae10fb27c87b30292edc333c7a628c7d42",
    "feedforward-w4-c1-s2": "c7dbf058dcf43f0e293fe8afea7f8dfaa0ada1f5c890feca56975e68633d47c2",
    "feedforward-w4-c1-s3": "473b1fdd56f9f7eb791c7054db318c42ed154f7262f468dbb69b874a51498fd2",
    "feedforward-w4-c2-s1": "22f1509eee930095a0756da1f59fb337794e95952b3d0e36c02fde7c3269c1b1",
    "feedforward-w4-c2-s2": "76c2d472ca4d49d0805eac82366fcfef6ca40dcbea6aa7b6ab91f22198ac3ee1",
    "feedforward-w4-c2-s3": "ffe7f33c40c94c7f80af6ca10229952570e1ccc29574055b760463352682a0d7",
    "feedforward-w4-c6-s1": "4bea92a1cef11a891b88e0eeaa9bc3033737b705d209d408ccf7985f15929abf",
    "feedforward-w4-c6-s2": "7be4caf114fe0a299b751066519ae21f673167711f2390fe63bf3824c4f0dedb",
    "feedforward-w4-c6-s3": "e46feaad68df788b719c9450e8cea8b41a5e0960186d1d116bd16f4aa8d11b14",
    "feedforward-w8-c1-s1": "971896b7b4eddcd7a9352b7a36bb49d0b7382c5747e82008e6ac162662aaeb42",
    "feedforward-w8-c1-s2": "3331e1c31274c907a37b4c0941f11f1bd4ac68155aaba0e782a7c44d73c30b76",
    "feedforward-w8-c1-s3": "f8fdb1c7895c13aa8afc97db315a975b3820165d4f42aa12cb3a1ed1efdc62ee",
    "feedforward-w8-c2-s1": "e03cb5e192cc6dfb0bf1ca79baa990bd4388d228dc4ba9037ac53fd6bdcf6c0b",
    "feedforward-w8-c2-s2": "c3e08ee24de013810ee47ace8b7429693a845a87be17fd8e1986ae2169295534",
    "feedforward-w8-c2-s3": "621cc4ab09f2a989ce1c636d221d13c368fc023f14f7bb901483c8fa891a40fb",
    "feedforward-w8-c6-s1": "dff88428c13f83d3ea149b8299ba59bb804048e7c325273bd444c79008a75035",
    "feedforward-w8-c6-s2": "5343859e39bd400b831a5cfe5f2442b4c4592bef4221523588691ad2b709393c",
    "feedforward-w8-c6-s3": "828a32dc296c16788b7aa8259414cf3d643c6e203553e3f559ebd45d26c236c8",
    "parallel_rus-w1-c1-s1": "5ceb6f3bee9dc485d59b85dd37060e1ada9d043c4b9c676a5498abd7b6ca9107",
    "parallel_rus-w1-c1-s2": "96fc9a803949a5eed788a156034d8975e98a564876f48f33c43a693eba1891ec",
    "parallel_rus-w1-c1-s3": "39dc2d2d5fd81b0e42d48aaa63d82b856511d87581147080197a82647ed7b3b8",
    "parallel_rus-w1-c2-s1": "177451b2f4914eab0bc7c21e1f6e6a20c7faa3ff88b8194ea1349e3739bb71fa",
    "parallel_rus-w1-c2-s2": "aa32db0334e63286c6f87935614183809308c2b8ce4711f50158a3796e6a339f",
    "parallel_rus-w1-c2-s3": "6b3ca06db186a869e8516955734958e9efb3d315eb5790a3c0cd8f07ea261578",
    "parallel_rus-w1-c6-s1": "b9ac2b99f9ae6cd139f6a717c53d59a8a0a736e19c86f74f81c9dcf44f97da73",
    "parallel_rus-w1-c6-s2": "9e5a73ce124e4ae21016f60290a0a4c2a105657b720d42019a8a7ed170ee4352",
    "parallel_rus-w1-c6-s3": "ae749e01af2c9dc98e73ec5d44ef0ca7cb918f13d7b00e671bd07b35484b1f85",
    "parallel_rus-w4-c1-s1": "0531fcf05f7d2c069ef62e3f12e738a97add83b8ea17c1b839455079d26cbc64",
    "parallel_rus-w4-c1-s2": "355b40e4630d58515f872224fb9ef3dd990ee3f516f412896f74947f3e7c7a9c",
    "parallel_rus-w4-c1-s3": "769bf26e35d4669af6d1448c1993ca20d23e00bb4b4aa0718cb21cfb1ef3cf38",
    "parallel_rus-w4-c2-s1": "814575666bd096c4a911e4cdddc967538e49ce1f8709a5b34bd16e0efd2b4b09",
    "parallel_rus-w4-c2-s2": "2820d172d7577304a3d944bc79b8802fa0f6a60169a582c46a5091c2e4fa31f8",
    "parallel_rus-w4-c2-s3": "b6561413dda21a218caeaa5923ecd2f2e8a6a125118588c7259995d862ca1907",
    "parallel_rus-w4-c6-s1": "ae73c5847ff95d69d4fcde0cec35b76d5ab1b897bfd6009bbc68224f21cefac6",
    "parallel_rus-w4-c6-s2": "061758f507d5be03e8f72966a7e71275653f5727700c2b2fe7ecf42798d33a44",
    "parallel_rus-w4-c6-s3": "add58716832c2643f132d9691da816230a44de190bfc38f4f99f931268c769f6",
    "parallel_rus-w8-c1-s1": "11a8babeef2173824183b3e75747b2255baed3f4a0833969a163f5a6843a9f7e",
    "parallel_rus-w8-c1-s2": "6a8691a735c39e2edc25ea5f57b63f0c02e0b8edd942cd1e0d2aaa9d853c5084",
    "parallel_rus-w8-c1-s3": "15ef68c04c252efdbc28c3c1f370a0d2d978e32980b38d89673806b1f83cf7be",
    "parallel_rus-w8-c2-s1": "ff7af4e745a7e9006ccb4ae13a85cb4fb3a21406edc734bb0cc33ca436fcea87",
    "parallel_rus-w8-c2-s2": "ed21dcd4f77d635b3bb86b7036b00cf8e67b2e72a02d09270b88a92eed2ad4d3",
    "parallel_rus-w8-c2-s3": "1620356e57670b912e8b84e51b302d51cb8f30acce4e2958ac216e224761f5ac",
    "parallel_rus-w8-c6-s1": "27909c719c0f1157661af7810fb3e75645a64a69b209a782a85e03b0f72baf51",
    "parallel_rus-w8-c6-s2": "b382080e0a0ceb5141d6ae28e02e46a70aa9b72111ab1e4c0f8617a29021cb7d",
    "parallel_rus-w8-c6-s3": "c74497176ac8c96bf007729a01027282e52ddcaee6830bc35cfab6280891c050",
    "steane-w1-c1-s1": "0ca365094b98b4859ac087704cae3538cb90bd71410d71a07de90762802285bb",
    "steane-w1-c1-s2": "2404788e5a20312f3b6c6306c4e72c03b0c16a567937214fd35d249dc2c117ac",
    "steane-w1-c1-s3": "aa12d11766c9c2da2babec1325c429040f31b81102b9cfbd9f1e55cd253e065b",
    "steane-w1-c2-s1": "cbaa7f65f9b92532b2c8cb55761016df5870703652afaccac0f558bcb02f4d98",
    "steane-w1-c2-s2": "a02357dc5756d51f4238cbce132334ea818e045142f3d306957dd9f4a4047d10",
    "steane-w1-c2-s3": "2b01754b4d92d4cb71cef827d2acf2cbea85bc683c8baf9717165f2566d03252",
    "steane-w1-c6-s1": "d146c53f251d86d38d683535dbfa1e798070d4e355a9bddaae5e12a70069204b",
    "steane-w1-c6-s2": "c0c418384e9139b0c64eafb4bfba062198f7955b1505dc81bac5e3ca06c97045",
    "steane-w1-c6-s3": "8fb2dc2d47d6aa40d6a747abe1b037664ffd91f0c92eb10146ded90aa360de04",
    "steane-w4-c1-s1": "de456fe53d78bbc6b67b84d896bc9a1e1d885f3f0d5a5468ece72292d77f507e",
    "steane-w4-c1-s2": "7858de79b23fa1d2a25863a8f6b385c583d1ee5f2dbbf05ffc0ae59d1a9ce737",
    "steane-w4-c1-s3": "25893b947276bbffe9fa1430816054e72f01104e3112e454e75190554a4a9647",
    "steane-w4-c2-s1": "9c4c728bc6506802847409a280c45eaa1f669c3ff9c97ff35852a7d21305afa2",
    "steane-w4-c2-s2": "105065be4166269d69a649081e6e1ae807d7d02dcc60e4c0d692cf0c1158afc4",
    "steane-w4-c2-s3": "4eeaa68acf4830da6c4255d889f4985356cb8ac33d99228db6e0aa6138d62b0f",
    "steane-w4-c6-s1": "21ab5408f7e90a3034b870601891adbdfc6d9ed1776c6774493d6650c9f3bc65",
    "steane-w4-c6-s2": "c9ef2f5f505a1d3670ac41cb5e297a5e2b81f6f7f4504fdfa76bc5f9019e510a",
    "steane-w4-c6-s3": "38ecc3cc3740a5b2d6f55ea07fc7135d70207390dd4732f01b77cd4e68db4a90",
    "steane-w8-c1-s1": "13a52d23bfbaa550c14bbc5368dc201030cbcddbd5dd4cae8ab3f6cfe5da5227",
    "steane-w8-c1-s2": "d353987c95248826b5fed3d3b66e7c1762a24c62d4b50e7ff7e337584ba4d543",
    "steane-w8-c1-s3": "ad5c601665669c6910ca131695f5acc07fdfb22fbeeb5f8d94725b648137ee2d",
    "steane-w8-c2-s1": "fbc6d633a78f8afae8eb695bac0495ff9f688ef6b6195d31a3495d5c5974ec9f",
    "steane-w8-c2-s2": "5e37e652806322ea12d921d8fef2747cf58dbbb30db92b6aa2dc3b3265182935",
    "steane-w8-c2-s3": "6b1a8efbad31af9f99db421c4cb8bdbf0c694db9cd5517edb7a2791086581515",
    "steane-w8-c6-s1": "dee439714ee51ee02ee16eb22a0ccafad1ece229aee4d713efa2ecc4de6089af",
    "steane-w8-c6-s2": "e84c4f38382da759a1687bb55e04042833108f65886ce82f488d22bdc5a32f8d",
    "steane-w8-c6-s3": "ac2c08ef64ae65b2a99604fa8be8406c6385003a0967d12072e439fc99de81a3",
}


@pytest.fixture(scope="module")
def computed():
    return matrix()


def test_matrix_covers_every_benchmark():
    assert len(MATRIX) == len(BENCHMARKS) * len(WIDTHS) * len(CORES) * len(SEEDS)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_matrix_digests(name, computed):
    mine = {k: v for k, v in computed.items() if k.startswith(name + "-")}
    assert mine == {k: v for k, v in MATRIX.items() if k.startswith(name + "-")}


if __name__ == "__main__":
    for key, digest in matrix().items():
        print(f'    "{key}": "{digest}",')
