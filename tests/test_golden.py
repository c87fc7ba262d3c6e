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
    "ideals --json anti6": (0, "37db991115160371c3a41b421110763d809ffb704375a760c5977f821fd22bd1"),
    "ideals --json anti7": (0, "b2497fb0a085e4a136c3d05243f7eea1207a7518519bc6cba1c06b9ddf3506b4"),
    "ideals --json B2": (0, "80afe02cb51b5321cc3b3f070a06d7055d2505933009c3494191781e9ae5c610"),
    "ideals --json B2^4": (0, "c71ec3406cf666859cf93fd2d2af374a9218a6944a478f759f8aea5110caa1f5"),
    "ideals --json B2xB2": (0, "282a09f8ddbd2db96ba6cc9a2a2660eb5a36e58b2a49f91de5f1ed90e9512f1f"),
    "ideals --json chain3": (0, "b132e1db2df9dd68281b880e61a79fc9bb3c1b73579216466bd244d0105345f1"),
    "ideals --json chain3^2": (0, "c7f8ad660eb8ecb2c9585d16fcc1d7abf7d90a7751d28b8fa88d1cfef0400290"),
    "ideals --json diamond": (0, "afa4383809a9071b0369fb8a007920b9a1c8658991b618e8cc79b73ee4980a92"),
    "ideals --json diamondxB2": (0, "542b2c17aa1db74300431df9b58f3c19c0a4b7ba6cf5adb79af2733e3ea96e05"),
    "ideals --json example5": (0, "f4fc999409e0e29f5d5642694240f6ebed9b5e71832066fd3055298f3cb320ae"),
    "ideals --json omega3": (0, "cdf4824910a21fbed52bcb676a7d985a694f5d766c9fd1ddf619b0020181a384"),
    "ideals --json omega5": (0, "e58fc05f83323aa7c43016805945c6bb620ae5ec0d4157b946c33e92d99fc590"),
    "ideals --json unit": (0, "4297796bf2b8f66dde3e10ffadc88b024a688690db373522060d139d3842e7d7"),
    "laws --json --no-timing": (0, "c823b1824870444ce85e1037fce1af8b285969bd900571a662d685331b05f66e"),
    "laws --json --no-timing --enumerate 4": (1, "2cf21760b2d099e4882b9e778d99b2451ffc2390d175c62dd499659e8bd36723"),
    "laws --json --no-timing --enumerate 5 --iso": (1, "ec94d6e14f44d659dec1d4008a271ba07fab00fa65a93f3cfbcd010610daf565"),
    "laws --json --no-timing anti6": (0, "a9d1847af2e682e54e2724224b5100559522200be4e15c1f57b2ef4173cb46d0"),
    "laws --json --no-timing anti7": (0, "78a57fc13c7dc02a3817392d6f6dd8cd0be8528a62dc3aeb1af40587767f0eb0"),
    "laws --json --no-timing B2^4": (0, "8d1873c2cd9cc7e0a7c84dd905eade4196f105581cbda1ad25ea2be376bc5034"),
    "laws --json --no-timing chain3^2": (0, "548b6f7b714d9072a51b426afafbec11a88362f958dfed34131b7f467f00cac3"),
    "spectrum --topology anti6": (0, "0c41aec2a02d5d3fda316dbc8505e948828ccf454bc2fa56c2402e5d0fa76a12"),
    "spectrum --topology anti7": (0, "f3ebb09103a6434f385dcb925e1aa6b17309b815e4c5619ef84f4eb58775a153"),
    "spectrum --topology B2": (0, "424c580c6ac90253746a9c2c4f5ac5fabf9e64aa254279449ae52fb77d7731d4"),
    "spectrum --topology B2^4": (0, "4e3acda38e703b13700839d401a0319d5204792991745376abf977b0bb27a9a6"),
    "spectrum --topology B2xB2": (0, "742b282f197ad265767c0f038b660178fc4a312b5272576f25ae2596b61392c1"),
    "spectrum --topology chain3": (0, "0931d351c82a5f13db86d0f78aa6a147c38a9a07e8a68dbf3c52c602bc19373b"),
    "spectrum --topology chain3^2": (0, "cf30ccaf5692b4cc04d551eb80563f7b5c25dfd312edcd14224d2598248d1f03"),
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
