"""Golden pins: the sha256 of stdout for fixed CLI commands.

Each command reads its edge list from stdin, so the report's `command`
field carries no file path.  A refactor that changes any report byte fails
here.  `oracle lambda` and `oracle spectral` are not pinned: their floats
depend on the BLAS build.
"""

import hashlib
import io
import sys

import pytest

from kdelete import constructions as cons
from kdelete.cli import main
from kdelete.corpus import kneser, windmill
from kdelete.graphs import build_graph, format_edge_list

INPUTS = {
    "petersen": cons.petersen(),
    "c5x4": cons.blow_up(cons.cycle(5), 4),
    "c7x3": cons.blow_up(cons.cycle(7), 3),
    "k888": cons.complete_multipartite([8, 8, 8]),
    "k252525": cons.complete_multipartite([25, 25, 25]),
    "random12": cons.random_graph(12, 0.4, seed=5),
    "random30": cons.random_graph(30, 0.3, seed=1),
    "c9": cons.cycle(9),
    "windmill10": windmill(10),
    "c7x8": cons.blow_up(cons.cycle(7), 8),
    "random10": cons.random_graph(10, 0.5, seed=3),
    "kneser11_5": kneser(11, 5),
    # K_{20,20} and a C_9 joined by the edge (0, 40)
    "k2020c9": build_graph(49, cons.disjoint_union(
        [cons.complete_bipartite(20, 20), cons.cycle(9)]).edges + ((0, 40),)),
}

# (graph on stdin or None, argv, sha256 of stdout)
PINS = [
    (None, "gen --kind random --n 9 --p 0.4 --seed 7 --blowup 2",
     "094df0801f7264fc05963cffc1256fbdd12d57b20c52feef8fd87b3dec6256db"),
    (None, "gen --kind multipartite --sizes 2,3,4",
     "17d2d9f2741be7202ba0db0029bee180790ca655cc98360bb570917b86b9c582"),
    ("petersen", "partition --method trianglefree --k 2",
     "b06815baf35d3f81c82788ec665d8c92d210cfef6d650bb1775590ba2534c1a6"),
    ("c5x4", "partition --method trianglefree --k 2 --verify-preconditions",
     "c96da6fec57159630b230d830b6f9a4100935298ba0a99845879bc603167bca6"),
    ("k888", "partition --method clique --r 4 --k 4",
     "6d3d3e1b91107b766d476869a652af82fc7378019eea0c64cfc84c8fa9b3d680"),
    ("k252525", "partition --method clique --r 4 --k 66",
     "c1534e119b96414f2464ac5def13f8ee4b4462c5f5dad97ff46914db32516ddb"),
    ("petersen", "partition --method wheel --r 1 --k 3",
     "546ba2562141fc3abdd8d54ae36ff2569540a1e70aa897c2a6270cedfb4b1eee"),
    ("c7x3", "partition --method oddgirth --r 2 --k 3",
     "361c6a32e5a2984bc04def11489720fe0a294ce12d97cf263e6d6711df1cb928"),
    ("c7x3", "partition --method oddcycle --r 2 --k 4",
     "20866390b420c21d6b5bc4f3b7cd2ad48f36445eeb9bad7280de207274e9fca8"),
    ("random30", "cover --k 3 --strategy best",
     "0a7aad7d2430232aa5a2e11bc77f3cfbf2eebf8ba4e32882f7fe1a20ff9d418e"),
    ("random30", "cover --k 3 --strategy greedy",
     "e9295fc6ab9282ccbd874a31aebc78100151aa3e0e0d38924759aca3b308dfe7"),
    ("random30", "cover --k 3 --strategy expectation",
     "69b05860e7169cdcbeb9f892aff23ac19610f539cfdf8258deefa1d0f4eeec5f"),
    ("random30", "cover --k 3 --strategy random --trials 4 --seed 2",
     "6b93dc50a49d5c1ecffd1c4bcf9600ce61840ba400dd34b1f84cd2b77daa0bbd"),
    ("k252525", "cover --k 8 --strategy greedy",
     "9cabc2f71195108f8cbaebe2397fea42d6c47a26205a3bc448f49e7e6a27a9ca"),
    ("windmill10", "cover --k 8 --strategy greedy",
     "df5e655d4e4f6e2d4105f4b33c1bbb330f9c1d21d456fd026f4c3098fcc806f9"),
    ("petersen", "scrub --r 2",
     "39898b4ccb7d30e207dcf4ae5188b7431925662d8cf1084314de28fa527b31e8"),
    ("random12", "scrub --r 2",
     "daaf8789507e2a14913a3e0ec954e275c0d062f69c78cb2873fc3db5a0f70598"),
    ("random12", "scrub --r 3",
     "5dab4bfb87219a283aa7f75837bc1f5502ba6663344fb491ec7f0ba22da3cd9c"),
    ("random30", "scrub --r 2",
     "f047bd0cd8c6c30398c77d8534430c90b1aa05ae70ca854fd63387b12b9e625d"),
    ("random30", "scrub --r 3",
     "5662dae8e6b3888b164361f3a9806d2d4e8a311ebb59fb639de42353afd34cf4"),
    ("windmill10", "partition --method oddcycle --r 2 --k 2",
     "ab94a5fa540a54c11330f2f88bfe41b9a1017884ee8cd09f3f07afb9054a95ce"),
    ("random12", "maxcut --method exact --l 3",
     "37d5ce86b3971afe42702d85424b7690147c15bb17447f01e30273cb436f8980"),
    ("random12", "maxcut --method local --l 2 --seed 3",
     "0a215342b003596d610abd2a37183d77b56b1da5cbb2f4f1f1a7a597a0de4172"),
    ("c9", "maxcut --method driver --r 1",
     "a8d1ee2708a5b7a2d9b38a23e217a681b9e0c463751f1080118e8b547e027ac9"),
    ("c5x4", "maxcut --method driver --r 1 --seed 4",
     "3d877f5e9fb4b9852137c7debab64a7d037d1a6054daafd48d68c9212f9436da"),
    ("random12", "oracle h --k 3",
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("random12", "oracle maxcut --k 2",
     "68ca3fba3b7e864770cb61aeb306d4bd4354b68ab4dd38450860c5d823e42a53"),
    ("random12", "oracle u --k 2",
     "3840bc236ee03aacbb1ef7d5108ddfa347c59f10b68d4174affbb53140f31273"),
    # One pin per partitioner branch the pins above leave out: the k >= n
    # trivial returns, r = 3 through the clique entry with its precondition
    # check, the one-block wheel path and the wheel divide at r = 2.
    ("petersen", "partition --method trianglefree --k 12",
     "9508dc8597ab5a545c002dc252e8a86591c22b3d6d00ebf44a3dd05eee594299"),
    ("petersen", "partition --method clique --r 3 --k 3 --verify-preconditions",
     "029649731c022770529be4aef29728114d355c906e7914b564ab023e1a87c8dd"),
    ("petersen", "partition --method clique --r 4 --k 30",
     "a86b02e2aa727786660cde85e4d50d0058dc9c5ed1246115cd665a1d1f0459f5"),
    ("petersen", "partition --method wheel --r 1 --k 1",
     "a0a2cdcf0f1ef3898ac6d12d3e2a3d47c824df00399711efb64005ae303eb018"),
    ("petersen", "partition --method wheel --r 1 --k 12",
     "43327bf495a2a1d2c58b205c15b0b0841324817a40ddad3e008171fb270b2509"),
    ("c5x4", "partition --method wheel --r 2 --k 16",
     "81b09418720c5d0a71731c5d16e7e55e99ef3db1115c42643ca3a2bc3bb3ddbf"),
    ("c9", "partition --method oddgirth --r 2 --k 9",
     "206802fa9eb90cf0fdea25eed90ad31150858a4efa7ace02ee0a83bb3b4846f0"),
    ("c9", "partition --method oddcycle --r 1 --k 10",
     "7afa5886dfcf9cc1650d7f6d131b26bfbb26074f3cc5cf0e223949d253bb40d7"),
    # The driver's coarsening with the CE grouping alone (k = 56, too many
    # groupings to enumerate), and a core at k = 10 where the exhaustive
    # scan finds a strictly lighter grouping than CE.
    ("c7x8", "maxcut --method driver --r 2",
     "cb6c40a0423f0cd3fd949b9c7e26a32aa40065ef39e99dc7f1d71ddb576c96b9"),
    ("random10", "maxcut --method driver --r 2",
     "90f23e1c19732f0e66a4e54e105cae86fc0752dfa7864939f458e612b8e86ef2"),
    # The odd-girth precondition on the odd graph O6, of odd girth 11.
    ("kneser11_5", "partition --method oddgirth --k 2 --r 4 --verify-preconditions",
     "ae84302b26e9125b46b262ba493c514f9d0a72b0441e716e2015796754913004"),
    # A dense-core stitch with a nonempty rest: the 40-vertex core holds 400
    # of the 410 edges, the C_9 is cut by local search, and the alignment
    # against the core's cut takes the stitched cut to 409.
    ("k2020c9", "maxcut --method driver --r 1",
     "8ea124476bcc873626644af5b00f6d0f952804303829b6b807f0a15401185650"),
]


def _pin_ids(pins):
    """The argv names a pin; a repeated argv is prefixed with its graph."""
    ids, seen = [], set()
    for graph, argv, _ in pins:
        ids.append(f"{graph} {argv}" if argv in seen else argv)
        seen.add(argv)
    return ids


@pytest.mark.parametrize("graph, argv, digest", PINS, ids=_pin_ids(PINS))
def test_golden_stdout(graph, argv, digest, capsys, monkeypatch):
    if graph is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(format_edge_list(INPUTS[graph])))
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_golden_odd_girth_refusal(capsys, monkeypatch):
    # The refusal names the computed odd girth, so it is pinned byte for byte.
    monkeypatch.setattr(sys, "stdin", io.StringIO(format_edge_list(INPUTS["c7x3"])))
    argv = "partition --method oddgirth --k 2 --r 3 --verify-preconditions"
    assert main(argv.split()) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == "refused: odd girth 7 is not above 7"
