"""Every CLI output pinned by hash: each row runs one command in process.

A row is a command line, the sha256 of the file it writes with --out,
and whether the SVG timestamp comment is stripped before hashing (an
SVG differs between runs only in that comment).  The rows cover the
Sabine bands of all three laws and of both transparent branches (total
internal reflection, a Brewster excision), the delta glancing bands,
each law's default scan, two turning-point scans, a sampled damping
scan at Re 3200, a wide and a sparse scan both serial and pooled, and
the three figures.
"""
import hashlib
import re

import pytest

from qsabine import cli

DELTA = "--problem delta --v0 1 --v-exponent 0.8333333333333334"

# (name, command line, sha256 of the --out file, strip the timestamp)
PINNED = [
    ("bounds", "bounds --grid 9 --nmax 2",
     "b21d6caf232a307254d552338a8df896f32929850ed44a4f7e9ed47e44965c18", False),
    ("circle-svg", "plot --fig circle --re 200:215 --n 0:2",
     "36f588a0f82fe3552a89832b0d722d634509bb990fda4ab6bf32d0e7538d4c9e", True),
    ("delta-bands-svg", f"plot {DELTA} --fig bands --re 200:215 --n 0:40 --workers 2",
     "2ac1fc005bff22be045e2c7599fd16d55ddc0352b04939c95cda96bbb211c30c", True),
    ("delta-circle-svg", f"plot {DELTA} --fig circle --re 200:215 --n 0:40 --workers 2",
     "9d22aef5975b26733df888a32b1649f5fd6513c005a47c2d7329b8290ae063b5", True),
    ("delta-bands", f"bands {DELTA} --grid 9 --nmax 2",
     "c0623b9de28982f6dd8455c2f95f22d93feb074d1f3afc1a0403d28dd58f56bf", False),
    ("damping-bounds", "bounds --problem damping --a 0.5 --grid 9 --nmax 2",
     "fb71d6b5b5a090bfb87cce81ada8f10c86f4819f73f626fe9326c5bcd767feed", False),
    ("matched-bounds", "bounds --problem damping --a 1 --grid 9 --nmax 2",
     "9825b842fb128a7d809cfdfcce66c272370bee1280c935713daf5ddf84e26eea", False),
    ("tir-bounds", "bounds --c 0.5 --alpha 1.3 --grid 9 --nmax 2",
     "c29fc7a90fb584f79f4afc1e74abb6c8f9ff76f97ad0a21a057f459d56b75e40", False),
    ("brewster-bounds", "bounds --c 1.5 --alpha 0.3 --grid 9 --nmax 2",
     "8b6ddc4e4c6ca3b84311f36ac366350510b31ed5ab3bc1bb9f4546d28d20e9ca", False),
    ("slow-scan", "resonances --c 0.5 --alpha 1.3 --re 200:210 --workers 2",
     "9f5a256b684093d066dd25ffeda4c34d88dbd5d95c9fd646efbae3f604e9bb49", False),
    ("delta-scan", f"resonances {DELTA} --workers 2",
     "9980e23ac7bfc670472c7656ef0613da7f05da9a71245c446ddd4896f415e567", False),
    ("damping-scan", "resonances --problem damping --a 0.5 --workers 2",
     "b166010e08242f3adeba6a84cd600080fb04340fb40104bb664eda835278e227", False),
    ("turn15-scan", "resonances --c 1.5 --alpha 1 --re 100:160 --workers 2",
     "88ed85f0afa0d327867257c682a3a6ff08ae0efccf2fa8003dcebc1f53b41f14", False),
    ("turn3-scan", "resonances --c 3 --alpha 2 --re 50:120 --workers 2",
     "55bd0545a37042300c8077f759647ca3de03d938bb5f50d6e706c3128121f00d", False),
    ("damping-3200-scan", "resonances --problem damping --re 3200:3210 --n 0:3400:32 --workers 0",
     "4a5aba234c8a30e363da7c0ed78ceda9306078a856d46ad9f375fde1b6ce0d6d", False),
] + [
    (f"{name}-scan-workers{workers}", f"resonances {flags} --workers {workers}", digest, False)
    for workers in (0, 2)
    for name, flags, digest in (
        ("wide", "--re 200:1400 --n 0:3",
         "8e0ee966d896863e9fb34324242790a06527b221536675946fefa9990f2fd582"),
        ("sparse", "--re 600:1000 --n 0:360:40",
         "3151bb30538fdab19f38131a150a655fd775d912cb3407fe434c4eac686acc49"),
    )
]

_STAMP = re.compile(rb"<!-- generated [^>]*-->")


@pytest.mark.parametrize("argv, digest, strip", [row[1:] for row in PINNED],
                         ids=[row[0] for row in PINNED])
def test_output_keeps_its_bytes(argv, digest, strip, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv.split() + ["--out", str(out)])
    assert exit_.value.code == 0
    data = out.read_bytes()
    if strip:
        data = _STAMP.sub(b"", data)
    assert hashlib.sha256(data).hexdigest() == digest
