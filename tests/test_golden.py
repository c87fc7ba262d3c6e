"""Pinned CLI outputs: a change that claims byte-identical output is checked here.

Each command's stdout is hashed with SHA-256 and pinned together with its
exit code.  The fixture commands read the file that ``lalg fixtures --emit``
writes for each fixture; the larger inputs are built from those files with
``lalg construct``, so that the law suite is also pinned on algebras of 9 to
16 elements with up to 128 ideals.
"""

import contextlib
import hashlib
import io

import pytest

from lalg import cli
from lalg.constructions import fixtures

FIXTURES = tuple(f.name for f in fixtures())

#: poset files for ``lalg construct poset``: anti k is an antichain of k
#: atoms under a top, whose algebra has 2^k ideals
POSETS = {
    f"anti{k}": f"elements: 1 {' '.join(f'a{i}' for i in range(k))}\ntop: 1\n"
    + "".join(f"cover a{i} < 1\n" for i in range(k))
    for k in (6, 7)
}

#: the two factors of each ``lalg construct product`` input
PRODUCTS = {
    "B2^2": ("B2", "B2"),
    "B2^4": ("B2^2", "B2^2"),
    "chain3^2": ("chain3", "chain3"),
}

#: command -> (exit code, SHA-256 of stdout); a last word that names a
#: fixture, a poset or a product stands for the file built for it.
GOLDEN = {
    "ideals --json B2": (0, "80afe02cb51b5321cc3b3f070a06d7055d2505933009c3494191781e9ae5c610"),
    "ideals --json B2xB2": (0, "282a09f8ddbd2db96ba6cc9a2a2660eb5a36e58b2a49f91de5f1ed90e9512f1f"),
    "ideals --json chain3": (0, "b132e1db2df9dd68281b880e61a79fc9bb3c1b73579216466bd244d0105345f1"),
    "ideals --json diamond": (0, "afa4383809a9071b0369fb8a007920b9a1c8658991b618e8cc79b73ee4980a92"),
    "ideals --json diamondxB2": (0, "542b2c17aa1db74300431df9b58f3c19c0a4b7ba6cf5adb79af2733e3ea96e05"),
    "ideals --json example5": (0, "f4fc999409e0e29f5d5642694240f6ebed9b5e71832066fd3055298f3cb320ae"),
    "ideals --json omega3": (0, "cdf4824910a21fbed52bcb676a7d985a694f5d766c9fd1ddf619b0020181a384"),
    "ideals --json omega5": (0, "e58fc05f83323aa7c43016805945c6bb620ae5ec0d4157b946c33e92d99fc590"),
    "ideals --json unit": (0, "4297796bf2b8f66dde3e10ffadc88b024a688690db373522060d139d3842e7d7"),
    "laws --json --no-timing": (0, "940ead012946684949fc0cb6947f0d51016b23c541662a8553b7d8f33fa4527b"),
    "laws --json --no-timing --enumerate 4": (1, "85bf290e5832c475ed9a063ac456300f086e8f78f863e1c3e722a62acf5f7986"),
    "laws --json --no-timing --enumerate 5 --iso": (1, "725abd7d5224ea20ec0b77344c5a759196e7bb8db387e2e3be3fb7954d115317"),
    "laws --json --no-timing anti6": (0, "fdb3869fe7769c921682657b7b023ca721cab46d4953c0e83e50705eeced76b3"),
    "laws --json --no-timing anti7": (0, "d8aa4fb1e0c86b7b3d5d034c646d244eb7733f8939f6bd9407de79a94c176aed"),
    "laws --json --no-timing B2^4": (0, "f5574bbeaae8523c84d813098d37c4dac26cfb8211f556f77a0a854bfd5d2cd7"),
    "laws --json --no-timing chain3^2": (0, "056431a2774be6945e06e5ef1f984b5fb1e3a915e941f4c4c7c59f9602eb28b3"),
    "spectrum --topology B2": (0, "424c580c6ac90253746a9c2c4f5ac5fabf9e64aa254279449ae52fb77d7731d4"),
    "spectrum --topology B2xB2": (0, "742b282f197ad265767c0f038b660178fc4a312b5272576f25ae2596b61392c1"),
    "spectrum --topology chain3": (0, "0931d351c82a5f13db86d0f78aa6a147c38a9a07e8a68dbf3c52c602bc19373b"),
    "spectrum --topology diamond": (0, "3287f26abcfe78856c2b53fa7c12ea01271ab3e73f6226b5b04cef81ce25d05b"),
    "spectrum --topology diamondxB2": (0, "366f0a6996b6ecd40587f91208dc1c4ce3dd3ebccc3d2cd650510b203454445f"),
    "spectrum --topology example5": (0, "a6b7e0097e7d7b164ba250c0f1e6062cd25278194c1115d6e8ba0dbb01128ec4"),
    "spectrum --topology omega3": (0, "2a5657d8196c0a84ac39cef125596fc9e016ad9d8b8e03cd2dee7facb2d6e576"),
    "spectrum --topology omega5": (0, "2e2ea3e291cf957cdc742d1bb747c520a5630c42803f69c2a07f58a2f28b002d"),
    "spectrum --topology unit": (0, "f92f9ce479c1faeaa08c58ad9d9a1bca4c4e6878f52e71d5316aed90fa4f07eb"),
}


def run(argv):
    """Exit code and SHA-256 of stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def quiet(argv):
    """Run one CLI call whose stdout is not pinned; it must succeed."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv


def input_file(word, directory):
    """The file for a fixture, poset or product name, built on first use."""
    path = directory / f"{word}.lalg"
    if not path.exists():
        if word in FIXTURES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["fixtures", "--emit", word]) == 0
            path.write_text(out.getvalue(), encoding="utf-8")
        elif word in POSETS:
            poset = directory / f"{word}.poset"
            poset.write_text(POSETS[word], encoding="utf-8")
            quiet(["construct", "poset", str(poset), "-o", str(path)])
        else:
            left, right = (str(input_file(w, directory)) for w in PRODUCTS[word])
            quiet(["construct", "product", left, right, "-o", str(path)])
    return path


def argv_of(command, directory):
    """The argv of a GOLDEN command, with an input name replaced by its file."""
    words = command.split()
    if words[-1] in FIXTURES or words[-1] in POSETS or words[-1] in PRODUCTS:
        words[-1] = str(input_file(words[-1], directory))
    return words


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def test_every_fixture_is_pinned():
    for name in FIXTURES:
        assert f"ideals --json {name}" in GOLDEN and f"spectrum --topology {name}" in GOLDEN


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_matches_its_pin(command, fixture_dir):
    actual = run(argv_of(command, fixture_dir))
    assert actual == GOLDEN[command], (
        f"`lalg {command}` now gives exit code {actual[0]} and stdout digest "
        f"{actual[1]}; pinned: {GOLDEN[command]}.  If the change of output is "
        "intended, put the new pair into GOLDEN in tests/test_golden.py and "
        "say in CHANGES.md which output changed and why."
    )
