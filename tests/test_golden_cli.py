"""Golden CLI corpus: the exit code and stdout SHA-256 of fixed commands.

The digests were recorded once from the code before the per-(family, rank)
caching refactor and are never re-recorded to make a change pass: any byte
of difference in these outputs is a regression.  The cases cover roots,
belt, variables, graphs and ``verify --checks all`` in both formats, expand
in all three formats (including the B_3 tower root 0,0,1 and the
double-hexagon root 2,2,1 as DOT), and the files ``graphs --dot-dir`` writes.

The B_5 and D_6 entries were added later, recorded from the code before the
graph builder gave both hexagons of a two-hexagon graph one code path.  Their
highest roots are two-hexagon graphs with a tower on each half, so these
entries pin the vertex names and weights of those graphs.

The belt entries at A_1, B_2 and C_2 and the D_5 entries were added before
every per-node convention (labels, sweep parity, exchange matrix, tile
slots) came to be derived from one node table.  A_1 pins the blank line of
its empty even initial row, B_2 and C_2 a double bond at rank 2, and D_5 an
odd sweep holding 1, 1bar and 3.

The text-format expansions of the highest roots of A_12 and D_9 and the B_5
belt text were added before ``to_text`` came to render each key as a high and
a low half of its digits.  A_12 splits its 12 variables evenly, D_9 unevenly
(4 high, 5 low), and the B_5 belt renders many small polynomials over a
denominator.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from beltmatch.cli import main

STDOUT_DIGESTS = {
    "roots --type A --rank 3 --format json": (0, "0285cf205796cfd0579422ebc9d0da1f193fd91ef3b9cc284ebb8d53cb93151b"),
    "roots --type A --rank 3 --format text": (0, "1fb9a845c96d42262da81b88a3efbe3f753e6fc4a509140e7cc1e4e93bffcfa3"),
    "belt --type A --rank 3 --format json": (0, "cc2fa332f12e4badaa0066111207a948413224995cfc04b25f31c12a7eea040a"),
    "belt --type A --rank 3 --format text": (0, "18b7c01013e9bca7004ca54127ac16730b172b0ad7601b55fa0e6c92f2c90c59"),
    "variables --type A --rank 3 --format json": (0, "b9ba93df09e3e8d30043256394c37110a7879df121c916c72b2bd29e1514eb69"),
    "variables --type A --rank 3 --format text": (0, "bae5de75965321730f82889a45977390bd872531092be6df0c96c3d03f7db87c"),
    "graphs --type A --rank 3 --format json": (0, "598eb1b0c8c43286c202c1e20e4297742af80581ede1e19a235811fc9e3d81a1"),
    "graphs --type A --rank 3 --format text": (0, "ebc20dfcb041b301a6ad83bdc4e093011531e4d101af63ad52769220fa0d7a99"),
    "verify --checks all --type A --rank 3 --format json": (0, "5ad7186e73ed49c33b82dc7d64c154fa2dcde85aa711ca0b9f56cb321976a810"),
    "verify --checks all --type A --rank 3 --format text": (0, "a22b2f40ae3ed06da80679eab75774d950fe88ac4840f62d296a8bc9619be2cf"),
    "expand --type A --rank 3 --root 1,0,0 --format text": (0, "73e74cc07ef217bbafd83d98263aa4b4723a5bd3624cc75811166cd50caccdc8"),
    "expand --type A --rank 3 --root 1,0,0 --format json": (0, "84803b68361456e21e49f3273c5c48a2b3c90dab28f8677df8567b2e3bf1300f"),
    "expand --type A --rank 3 --root 1,0,0 --format dot": (0, "e76645538bcaa380ec90aadca133d69342fd30820f50c70b7dc255c3343f9eea"),
    "expand --type A --rank 3 --root 1,1,1 --format text": (0, "f83964fcbf6f98fb3c5187bff6d66be51a5888b2fe865bd1401cec2a0136debd"),
    "expand --type A --rank 3 --root 1,1,1 --format json": (0, "384f4fc57cb4609da20fc8ea26f6b97e807cbef4ec895baad64badc1d071e416"),
    "expand --type A --rank 3 --root 1,1,1 --format dot": (0, "03264e6b39358fc7f1d0cb357ae0b1c3d6876be71d4b6cd5640d9a49b974fb82"),
    "roots --type B --rank 3 --format json": (0, "17825bd20ed3a7a6dbc37ba9ac15dd64590c8eb16f42ed450e6b642d7b9bf68b"),
    "roots --type B --rank 3 --format text": (0, "43a3c20fe2a6144742fd7c983874fd698cdee5d42365fb911a4551c3d12d9aff"),
    "belt --type B --rank 3 --format json": (0, "0381a80221e7a90df1aa37f68873de905b868c6864980cbd18cbadc021c69ca9"),
    "belt --type B --rank 3 --format text": (0, "695ccd0a7934b43b49081f804539c5090fc37feadd881ff71fa65877a293d5e5"),
    "variables --type B --rank 3 --format json": (0, "5bafb6796769fba9f5de55af565aeabd0d634740270f553c712bb920ea6fe785"),
    "variables --type B --rank 3 --format text": (0, "4a15b9169173bea0cd19472b4e5eb38dd1dbfe44843fb64fe3ec2634636a9e5d"),
    "graphs --type B --rank 3 --format json": (0, "ff2ea6b943c6ad746be127f3fb282a479bb7794f7d1c4c13aa2d77489aeffc48"),
    "graphs --type B --rank 3 --format text": (0, "c0e8ee85500ebcfcd3af93f5a36e01f54604ae5253e6aa9453fa7bc887508c34"),
    "verify --checks all --type B --rank 3 --format json": (0, "10e3f9a51b9302b18987eeb301244d6f3cd22feb9b35febeffc57f2611d41232"),
    "verify --checks all --type B --rank 3 --format text": (0, "cab362d33952504d1ef89479689cace53aafa95b5179ea99e98d6a173ef94756"),
    "expand --type B --rank 3 --root 0,0,1 --format text": (0, "e2adb35b035d79ca3a2822c6ecf5254a150b0f55169e3ca343d908ad630b77a2"),
    "expand --type B --rank 3 --root 0,0,1 --format json": (0, "f1257509e43eb7c6c4550e9be032416e6a1010eb1c73374f7d8e17b1cf7d72bb"),
    "expand --type B --rank 3 --root 0,0,1 --format dot": (0, "abe5f3d27f40ca91f8ca75f68b9d9b0ff2490edcebbe2ccfe4f4c4971c790454"),
    "expand --type B --rank 3 --root 1,0,0 --format text": (0, "73e74cc07ef217bbafd83d98263aa4b4723a5bd3624cc75811166cd50caccdc8"),
    "expand --type B --rank 3 --root 1,0,0 --format json": (0, "84803b68361456e21e49f3273c5c48a2b3c90dab28f8677df8567b2e3bf1300f"),
    "expand --type B --rank 3 --root 1,0,0 --format dot": (0, "020996bb07980e578244118ac709aa6a3a2e14047c3d1c136de2af9b06e819f0"),
    "expand --type B --rank 3 --root 2,1,1 --format text": (0, "a8897549900359533e790fb5b2f6a3bc84f06fa026f4e4fb0c8996d6b87d6b56"),
    "expand --type B --rank 3 --root 2,1,1 --format json": (0, "4bb991d232ff0dc80d3976abe6f946066c47b34e4827f54d82d9b256f9addf8f"),
    "expand --type B --rank 3 --root 2,1,1 --format dot": (0, "3ea96e96946e7b85697c6ff431b5a311187222de4ce7ac7e24af26ee9ba440d5"),
    "expand --type B --rank 3 --root 2,2,1 --format text": (0, "42c88cdcf8d4188be0030a05017aa7a17b2bf365bdeb885f605a454fd00bee4e"),
    "expand --type B --rank 3 --root 2,2,1 --format json": (0, "b6143aef01bdc6c4f982c25cfc74425c4e5e436e0ce325c7b85873b65539ca4a"),
    "expand --type B --rank 3 --root 2,2,1 --format dot": (0, "5850864493edadf2a24aa7d4c3ac9331baf3f606ef9a595ab0679d7ec8305cad"),
    "graphs --type B --rank 5 --format json": (0, "c7b0fa9a67bcf21e245b314203fb212c26b45f46cee169036bcb240b6f8ce583"),
    "expand --type B --rank 5 --root 2,2,2,2,1 --format dot": (0, "eaf17c8555d9f59f2d281b62bdd51d4375e44fe490562e2ce1f30ad2b1e7c510"),
    "roots --type C --rank 3 --format json": (0, "57dbdf9e09cc829b12d530b8085c5e8f3ccf9c3718547679ec3017abcc00e7a4"),
    "roots --type C --rank 3 --format text": (0, "687a060c25e7fad50eeca3ef26761a6957529b004343dc5333df03ed09884844"),
    "belt --type C --rank 3 --format json": (0, "6e422cd06c3c119b48d37797dbc846e0e5168951443f22e261f05ae89653eadf"),
    "belt --type C --rank 3 --format text": (0, "0aa80f8eed9c4b79b95417f5e331bbdfe9c86e3f49f74dd3904ef216445a8278"),
    "variables --type C --rank 3 --format json": (0, "b5e0c60d13cb05e67d4655d60da347ccf59398e280c1a33d26218a2697ab88b0"),
    "variables --type C --rank 3 --format text": (0, "52c5043cb844e6a7a476e64057c4e2b3f7ccdd8a526573ec455aa910f2471d38"),
    "graphs --type C --rank 3 --format json": (0, "675a288c1f655e147cedc75281249670fcc1064d0963cae4799e724e649f5aac"),
    "graphs --type C --rank 3 --format text": (0, "ec032cf212720cbb653eeb49b9c596e7319ebc53741f0723b20bae25560cea9d"),
    "verify --checks all --type C --rank 3 --format json": (0, "b7147dec765e96e31a80304deca0890130f26e697ba3a80e9c9e913aa9f07f4e"),
    "verify --checks all --type C --rank 3 --format text": (0, "17fb290934b6b3f5e3373cdc0756622db042712d82703889a47722fb6c45fe70"),
    "expand --type C --rank 3 --root 1,0,0 --format text": (0, "6284b6e62f3866f7e60b65bd91de1cc5eee43746562db6a709a0cf53c16c5956"),
    "expand --type C --rank 3 --root 1,0,0 --format json": (0, "6ae51be74dfe8eaa596ee7b451a28f01321a44b87f1903d1ad7a2c6ea89ce8b8"),
    "expand --type C --rank 3 --root 1,0,0 --format dot": (0, "2cc24e0883fb178f2c7197b797762f0e3b72a234b69f8767944e43bf056b7a7e"),
    "expand --type C --rank 3 --root 1,2,2 --format text": (0, "935f1e0c684b49261c3c7368fd47bbdfa0f7913670d3a9dd686d5822874f9bd7"),
    "expand --type C --rank 3 --root 1,2,2 --format json": (0, "466dd8da1e5cf68ffa5136e594b657280f1cbc1d47cada49de469ae44a5cb160"),
    "expand --type C --rank 3 --root 1,2,2 --format dot": (0, "4d9792e8cd332ec00459f5cebb0e6b3b1cb5bf287012be58272b2132d19b1985"),
    "roots --type D --rank 4 --format json": (0, "a42db41cdfe1dbae5dcb365e31f93a1c04ecf0374f34879dd20058cce3ac296a"),
    "roots --type D --rank 4 --format text": (0, "8d24c6c858817c1c85f5ceb2f5e549c560dcc27723704c01b46021c4823b3be2"),
    "belt --type D --rank 4 --format json": (0, "c19923421234263e184745cd2652872a295f1ef4af70b7a26bf555f8964ba62d"),
    "belt --type D --rank 4 --format text": (0, "2873a925ac456e80eaa19f3b217e887f31cba953407e384d66285dadd3a259c6"),
    "variables --type D --rank 4 --format json": (0, "25e20cc84de8f45e8d33db3300270642cb6a6d0f437d10a237ec8954864f3e23"),
    "variables --type D --rank 4 --format text": (0, "0331eedef4c1955c811298fe9e71b61618d5df6d14383e69dafc8a9552104071"),
    "graphs --type D --rank 4 --format json": (0, "1ecaf5cbbccbbd4be26f28a26066363b9f36d57ebcc3d6e3b1ad5af258807537"),
    "graphs --type D --rank 4 --format text": (0, "222758ddd9d2d75bd53ae40a2d21e5dcd18a7ea5b36b383197d94aedc8f28207"),
    "verify --checks all --type D --rank 4 --format json": (0, "dae91504af855df828b2b9f16ffd6f533a55b4abee0768bd2f24ca365049bd9f"),
    "verify --checks all --type D --rank 4 --format text": (0, "4a7aadf50fc34931b3a8cb3b06bb0f158fd9ef3fb95d542edd71e7607d226de6"),
    "expand --type D --rank 4 --root 0,0,0,1 --format text": (0, "e2adb35b035d79ca3a2822c6ecf5254a150b0f55169e3ca343d908ad630b77a2"),
    "expand --type D --rank 4 --root 0,0,0,1 --format json": (0, "94c53310b6015b7d0b2a2bf8b35596a95651ac2a3f4b27fec0bbdba85eedb1b4"),
    "expand --type D --rank 4 --root 0,0,0,1 --format dot": (0, "abe5f3d27f40ca91f8ca75f68b9d9b0ff2490edcebbe2ccfe4f4c4971c790454"),
    "expand --type D --rank 4 --root 1,1,1,1 --format text": (0, "1efd4ddb9063e4832784f39441ae92831757b21a5acef293995b144354cb9207"),
    "expand --type D --rank 4 --root 1,1,1,1 --format json": (0, "ff52a9ca8124aa0e292b370340ddd2887f69825f887b7e738bed2e614e698324"),
    "expand --type D --rank 4 --root 1,1,1,1 --format dot": (0, "cc731822a0ac0aa3dfc65590c0f05f6a352fb000f72acd44aad3f6ea3339e9da"),
    "expand --type D --rank 4 --root 1,1,2,1 --format text": (0, "05f540095d6af0942083504d9ffe3418daf3e8a4ed817bac1c34be9b7b8b32e4"),
    "expand --type D --rank 4 --root 1,1,2,1 --format json": (0, "f1c403678fd6d62b20b8d7744ec7e83288dd1c377a91a19637f8a6c4a55f7828"),
    "expand --type D --rank 4 --root 1,1,2,1 --format dot": (0, "a1e7e13ea0f2eebf0be82a8022e43824a8a55be54c41dcc34f02a86de7290b26"),
    "graphs --type D --rank 6 --format json": (0, "6896d270ab8d311be1fff554634d25268b8f35d539523221e142fe1dc842682d"),
    "expand --type D --rank 6 --root 1,1,2,2,2,1 --format dot": (0, "a5c9924aff355b96ee7c0fcab0282f82c20f721ccf4e4881a222c51a0bd45bdf"),
    "roots --type G2 --rank 2 --format json": (0, "21bd41808a19bb51c48a6972a086ae750fc4d4ea10363ca11f6433fd72fbe268"),
    "roots --type G2 --rank 2 --format text": (0, "8a6c6ab1116fc9f68ed55dab89ff57b948e664fcd594f9cff53f5596ef3ced1a"),
    "belt --type G2 --rank 2 --format json": (0, "a61519eaeaeda96e3b3ee0e66295d89f0cab4d681f4c0734ea266215adcd74f3"),
    "belt --type G2 --rank 2 --format text": (0, "e003aa0fb4293fffcb238ca91eb51d6f9669a58a18b2744d9195de1e6c595640"),
    "variables --type G2 --rank 2 --format json": (0, "bc28eb786c9f55f942465fce257624e958a918494f0817480d0908a6cc581040"),
    "variables --type G2 --rank 2 --format text": (0, "ff04bdcf3972514c068e739fc08e325ad42f26025d62cb72ad0b20fb0d73d80e"),
    "graphs --type G2 --rank 2 --format json": (0, "89bd86335e24b7d19ad4c106ea41b307f0a5e7f2ee17021a89113c514060bd51"),
    "graphs --type G2 --rank 2 --format text": (0, "4aecbee8627e0dcb12f127e36546afd53d6fdacc61e0520f0586271ff9472d2c"),
    "verify --checks all --type G2 --rank 2 --format json": (0, "250b63de7892a6cb936d3834ea58e686ed5ff1037fa00a4fd04d35277a1be377"),
    "verify --checks all --type G2 --rank 2 --format text": (0, "b0b03e3ec6e954ca8c96d9795af077359cf21ebbd5f5aed540110a7a5898079e"),
    "expand --type G2 --rank 2 --root 1,0 --format text": (0, "73e74cc07ef217bbafd83d98263aa4b4723a5bd3624cc75811166cd50caccdc8"),
    "expand --type G2 --rank 2 --root 1,0 --format json": (0, "f4c1ecdbb6b642146cc787ec4cc32acd473d7239dcc77ca4cb8307646df057e8"),
    "expand --type G2 --rank 2 --root 1,0 --format dot": (0, "020996bb07980e578244118ac709aa6a3a2e14047c3d1c136de2af9b06e819f0"),
    "expand --type G2 --rank 2 --root 3,1 --format text": (0, "cbdf783e486709c4f3ab4e869ace2a6889d5953866661b9d8bb354f59759a0be"),
    "expand --type G2 --rank 2 --root 3,1 --format json": (0, "88cb39fe78e0a3718f8d66d042a577d32019d8b270503245b109b725d79fea8a"),
    "expand --type G2 --rank 2 --root 3,1 --format dot": (0, "963dc8715a9c94cf30104c48e239d84169e32e8a3d6332abd92984ce8f85efdc"),
    "expand --type G2 --rank 2 --root 3,2 --format text": (0, "c648adfa3954541371bed6085823086933843ebf8832f50a609637f376e3ae9a"),
    "expand --type G2 --rank 2 --root 3,2 --format json": (0, "c4ea44db1d9ae9ea14e0fe55331255b66768c31ad84c5b64be00ea294ce3bb76"),
    "expand --type G2 --rank 2 --root 3,2 --format dot": (0, "e9bba9e0fedb06f0ba145860a4bf8a6ff77c0084860f996c1dedd22f6511a877"),
    "belt --type A --rank 1 --format json": (0, "9ad1073d196f2343826ce5b2c65f502c6c01b3424f9b07c9959f46039ec02202"),
    "belt --type A --rank 1 --format text": (0, "a14c2928acc888bd3c30b6d8099745ebd24019908b5fa0570a52c0120a6231d7"),
    "belt --type B --rank 2 --format json": (0, "bbc7e86b7a4da27e53e81c7d4fb3ed688d1dbed075ded471ed6f7a0103cc74d2"),
    "belt --type B --rank 2 --format text": (0, "9187f30dc77e878da8ab449e025bb2cec1d3860f2eacf90dc317b6804e898a88"),
    "belt --type C --rank 2 --format json": (0, "5e44c92e814b6778a0bdd10d087e9210dbc2cfe4d038f68d1a992d845712813d"),
    "belt --type C --rank 2 --format text": (0, "ba92732b7d2c21253dbf7764784a8b2dd6bf4449ab365f8b4fcf1bf6625e5953"),
    "roots --type D --rank 5 --format json": (0, "09aa7a96adae6eaeca356263fdcfadbd03e5d6df4ca615757a0056858e181abd"),
    "roots --type D --rank 5 --format text": (0, "966c821c86a0b4c412e609becaee1fe952f1a04649ab4841e8f83e8b57821f4d"),
    "belt --type D --rank 5 --format json": (0, "e73a43014beff27fe04fe095f0c535c1c19296461f002972832d80effeffa811"),
    "belt --type D --rank 5 --format text": (0, "1616436dd32d5a661b906f7c46741ce93a2cca4768c8f420215b6d37e8c1687b"),
    "variables --type D --rank 5 --format json": (0, "e18c3bb847b78e45b10d154df429ced569e5070cde9d95bd069c454604f095c6"),
    "variables --type D --rank 5 --format text": (0, "e88f8fb1f77c36d4871de0a8ce0d4a67f1e8fe1f1586bd143844ffaff5014de9"),
    "graphs --type D --rank 5 --format json": (0, "b87f3ab4348de3b1f8f0308f62f41331c955d7eb29e6aab3a6297653edb00db7"),
    "graphs --type D --rank 5 --format text": (0, "50cac5221830d969706eb67140d2da9e9d0230ffa65c6d3081f59fb954160a8f"),
    "expand --type A --rank 12 --root 1,1,1,1,1,1,1,1,1,1,1,1 --format text": (0, "82885181e2539a3cb62115a58d74fdf004648439c41d149159e74e9884445a09"),
    "expand --type D --rank 9 --root 1,1,2,2,2,2,2,2,1 --format text": (0, "c9a0f6d744c367147887650bfecd5515c8082feebc23ebb9b8f86477d0dd07c6"),
    "belt --type B --rank 5 --format text": (0, "31605bf283c6138dbb103c0fa2c7bc4f21b42eda17894e5acb4fa5c214b8e2fa"),
}
DOT_DIR_DIGESTS = {
    "A3": (0, "b9f6f2885398c4f0edead7c890efddb356118ebae1d0d5600d37e5815f4348fc"),
    "B3": (0, "47f969d7a950674f4023cd427d10a492b7e618750902b135e0a71b7d3c636eba"),
    "B5": (0, "1e0b082703d5dbdfafbf819c1fff6d17ccf7950f4fdb666f4e1f973e63feaec1"),
    "C3": (0, "963c95123a5a6709ee33c6988136db80bd3b8196c93545569dd5e76c1c4c798a"),
    "D4": (0, "82f4499e3aaf978d4aa706eb91f2efd3adc80372692f39e2b05c17073b8c0ace"),
    "D6": (0, "c30002bfd40992a4b5f4f1bff316323233932a0551f8c4c5ecd4ff11012f8471"),
    "G22": (0, "d92adc0acd62ee05d40dfe04d3199d292b2c710060153028d1af8fee59da86ba"),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(STDOUT_DIGESTS))
def test_stdout_matches_golden_digest(command):
    assert _run(command.split()) == STDOUT_DIGESTS[command]


@pytest.mark.parametrize("rung", sorted(DOT_DIR_DIGESTS))
def test_dot_dir_matches_golden_digest(rung, tmp_path):
    family, rank = rung[:-1], rung[-1]
    code, _ = _run(
        ["graphs", "--type", family, "--rank", rank, "--format", "text", "--dot-dir", str(tmp_path)]
    )
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert (code, digest.hexdigest()) == DOT_DIR_DIGESTS[rung]
