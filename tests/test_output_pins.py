"""Output bytes: every file the three ``reproduce`` figures write, and
each demo's standard output, has a pinned SHA-256 digest.  A manifest is
pinned with its ``versions`` field removed, since that field holds the
Python and numpy versions.  The figure pins are keyed by the
``output_version`` a manifest records in that field, and the pins of
earlier versions stay as history.

``exact_prob`` cells and the demos' printed floats are ``repr`` floats,
so another numpy or BLAS build can move a last digit.  The pins were
taken with numpy 2.4.6; a failure under another version may be that
alone.  ``tools/reproduce_diff.py`` compares two revisions on any
toolchain."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbandit.cli import FIGURE_IDS, OUTPUT_VERSION, main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED_NUMPY = "2.4.6"

# Version 1: every output before manifests recorded a version.
FIGURES_V1 = {
    "training-curves": {
        "angles.csv": "9f70cb4b8bd868ff4ff00b32b9039c765fbf79bdb4f8f7c57f6aca87c0612326",
        "manifest.json": "db640d4f62c35250fffad9dc5d90d2afddcfc4c40b0a53a132db62193d02f9f7",
        "win0-50/dataset.jsonl": "52653648940f8e3f6bdcce2d4a23744e5fa0c7a85626fee95745f38d9db4a633",
        "win0-50/learning_curve.svg": "2de79349c285b0f541438ad3c3e6d52585e9275025e39d74caf09767f96c950a",
        "win0-50/parameters.svg": "05f70148f5da85493b4eb2f37cf045cf37d15083cc92a2aad1a5a92e0c421f68",
        "win0-50/result.json": "20830eb3640f0dbe7bf68db99750944ad5f7fa45c1065304e1bcc820fa13b49d",
        "win0-50/trace.csv": "698ba45e1f9ac63d64b292883b0e4f2364f2bc7334640bc20b9d96bc143a1552",
        "win70-20/dataset.jsonl": "41dcebf1224640115744c480ff560f8b43a6edde41ed14e7b967038476a49db0",
        "win70-20/learning_curve.svg": "b1f4925ed67450176405c8678286a1db0290849bf2325173750534a9f9022488",
        "win70-20/parameters.svg": "4731ae6de3d345cd3cbeadeff3e644f5f05f6985e80db7527cab677ec574f5f9",
        "win70-20/result.json": "bac112a562e08d3d3781cf6ce3835c40c354973e77dc0b5af31370fb7af011cd",
        "win70-20/trace.csv": "6a0673c2986b05facb11decbc6a2c3632de3bc6cd7735a1ff00f007161e12855",
    },
    "qpe-histograms": {
        "histograms.svg": "c844ec6a33c68279523a5996d49eb6611c762352e68fcfe28b0c66880cc004df",
        "manifest.json": "724047deeb0f945888761c2bdc68587de09802bc1a806b0ed7a9e54501343a1c",
        "qpe_pleft0.5_n3_ideal.csv": "d2d94e0ba8da6bc44e1b63e583dd13068d7035cbb543fb06c19a0465dbf1af9f",
        "qpe_pleft0.5_n3_noisy.csv": "5530f09879f5c94e95878dc4bfbc705fc62719e65b332db2a2400416a2d7d5d2",
        "qpe_pleft0.5_n4_ideal.csv": "0f3ed9ff81fa8020dd3da1a4537d3b9c1d23b7611f794f1be9eeab16e4b5b630",
        "qpe_pleft0.5_n4_noisy.csv": "47ee24754bc5bfd55090540a8175f3b3bd62ba74914f44cc6c324528885f5c66",
        "qpe_pleft0_n3_ideal.csv": "e3e5d927c20a2d29fcc64fab8c6df3457ff556d5f50c2b6841920081ab91f202",
        "qpe_pleft0_n3_noisy.csv": "5d0f0467c387ec33271c88b76cb599474eb2527908f23a5b77af31ec0aa55541",
        "qpe_pleft0_n4_ideal.csv": "2fb20ab9285733b46bfafeeb9f08d3f42abe997056da291fb502fd6a10e20ef3",
        "qpe_pleft0_n4_noisy.csv": "fc0c94ee20b8c8cc20dc0ba5519fe6acce542d79c0bcaabcd143873c9c073ecb",
    },
    "scaling": {
        "manifest.json": "f2ce3ff347aa935d0eea9537e5076e224f0d68c2de2e5565e357e0ed7beae440",
        "mc_rmse.csv": "ba2b3a090e6e65392b1dc8b39ec87b4518a7c078885479a996e3c69cd06a4f4f",
        "scaling.csv": "3fa42c4da50d80867e8a3b1b00b90705db2b59d908088b70a555c86c7950efd4",
        "scaling.svg": "27d528fde6be3bb323422fb0cac88e26f29ebfa470490f9831027d7ff5f9129d",
    },
}

# Figure pins by output version.  Version 2 moved only the exact_prob
# cells of the four ideal QPE CSVs, by at most 3.3e-16, when the ideal
# simulator began applying each controlled Q^(2^k) as one matrix power.
PINS = {
    1: FIGURES_V1,
    2: {
        **FIGURES_V1,
        "qpe-histograms": {
            **FIGURES_V1["qpe-histograms"],
            "qpe_pleft0.5_n3_ideal.csv": "33b85f2b65eda0df53a79269ad039247a0e1d6842b35a98e68e0bb7d53575218",
            "qpe_pleft0.5_n4_ideal.csv": "f2f94f78bdadaa7392bf825e6b458679cfdb98347e151ae697c50dea5be9ee06",
            "qpe_pleft0_n3_ideal.csv": "b411a438b96f7339c7159a0d8fc4761d6d3fe651da1e6a94b381d9916f8861ea",
            "qpe_pleft0_n4_ideal.csv": "cb8e22e46f20867914358fd8ecc2fd10953bdcfe72f9c3d35c5d2781fa3f895f",
        },
    },
}
# Version 3 moved the same cells again, when the ideal simulator began
# applying phase estimation's inverse QFT as one FFT.
PINS[3] = {
    **PINS[2],
    "qpe-histograms": {
        **PINS[2]["qpe-histograms"],
        "qpe_pleft0.5_n3_ideal.csv": "ba81293186d25f041b963209bfb2a819262e6cdd3d52f14724c9646f68cdc36b",
        "qpe_pleft0.5_n4_ideal.csv": "62c1b3d85950e58a1bf64d0ebb24e30a4c1941ff6823705cf3b8a5946de232aa",
        "qpe_pleft0_n3_ideal.csv": "57a856a4d1201d59783742ea53c7d96d31613ec7eadab9852fb1c17d4d9fc2af",
        "qpe_pleft0_n4_ideal.csv": "f8d8f3b1e48200384933ea6ff3df0d354a4ffb2284d1192e0451def7e3295d29",
    },
}
# Version 4 moved the noisy QPE CSVs and the histogram figure, when each
# noisy call began reading one keyed stream with one word per slot, and
# one training angle by 2.2e-16, when ``angle_from_frequency`` began
# taking its angle by atan2.
PINS[4] = {
    **PINS[3],
    "training-curves": {
        **PINS[3]["training-curves"],
        "angles.csv": "8cfc300231a7a020f56cf9bbf198299b206b429e8540c01d920d69443953b7f6",
    },
    "qpe-histograms": {
        **PINS[3]["qpe-histograms"],
        "histograms.svg": "3fd8d8c5816d4bbf09e3656058756c8f6da63975d22f0474782ef3a5bce1a5e0",
        "qpe_pleft0.5_n3_noisy.csv": "c958f45d73185003a84ed7df0dd77d79a6f9e720d5e5a94df5ec11ac213e3ff4",
        "qpe_pleft0.5_n4_noisy.csv": "ea769617afe57bc228e61c48f1dd866b3415da9dbebc6b42b340f22d7612b3f0",
        "qpe_pleft0_n3_noisy.csv": "537bdbb10f75ec2546b440892ca6953463369c74e4ea8f36f859e247aae7fb2a",
        "qpe_pleft0_n4_noisy.csv": "d5c67c8e6bfab09275e3ed7340e47186e1e09842a6ce94ba51f32c92b7666fd9",
    },
}
# Version 5 moved the exact_prob cells of the four ideal QPE CSVs again,
# by at most 1.4e-17, when the ideal plan began folding single-copy runs
# (the k = 0 controlled Q) as the noisy path does.
PINS[5] = {
    **PINS[4],
    "qpe-histograms": {
        **PINS[4]["qpe-histograms"],
        "qpe_pleft0.5_n3_ideal.csv": "ccfc830edea1c5486ff16188e51eb63bea6336d254e781edd6549ef30cad83dc",
        "qpe_pleft0.5_n4_ideal.csv": "91fc3eeb03664248288dba93d0dcd5592f7e8348711a965c4c430e0110df639d",
        "qpe_pleft0_n3_ideal.csv": "9f357c61b6015507dc33a36a1247e2893893c973c345ba2f4df3ee6850e9ed4b",
        "qpe_pleft0_n4_ideal.csv": "8adf7a99ccbc348496ef78f98e636d3024a9e50c0e6f48eb931b7b317fb4d7bd",
    },
}
FIGURES = PINS[OUTPUT_VERSION]

DEMO_STDOUT = {
    "01_statevector_basics.py": "0eca5498ee994321c2636432fa9223f464270407f3d55baa13fa497b9ca54d6a",
    "02_bandit_circuits.py": "14c08cbda48e8448a8b6591dffb7e5d557172c74165b5fbb9ff082ebce8cd0d1",
    "03_learning_from_data.py": "b2a3487600183d80f09bd45373d278d70256c4f075f72cbf1e2dda0a9ca45245",
    "04_policy_value_estimation.py": "8b1f241774cb3b83204c95b504cb649d6eadaf172a4aaca4edc4d4ad98ce26b6",
    "05_noise_degradation.py": "2ed0cd0b967714c1cc82f3df34f2f1285617b7d2fa101aba82d5c78c9fc2bfd1",
    "06_quantum_vs_classical_scaling.py": "8a3b44e2175a1704899e0bbbc647f491697e5ba83a5511b20aefd90f07f0bcdf",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_version(manifest: Path) -> int:
    return json.loads(manifest.read_text())["versions"]["output_version"]


def _pinned_bytes(path: Path) -> bytes:
    """The file's bytes; a manifest's as written, less its ``versions``."""
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    del manifest["versions"]
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()


def figure_digests(figure: str, out: Path) -> dict[str, str]:
    """The digest of every file ``qbandit reproduce --figure`` writes."""
    assert main(["reproduce", "--figure", figure, "--out", str(out)]) == 0
    root = out / figure
    return {
        p.relative_to(root).as_posix(): _digest(_pinned_bytes(p))
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def demo_digest(demo: Path, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, timeout=300
    )
    assert run.returncode == 0, run.stderr.decode()[-2000:]
    return _digest(run.stdout)


def _differ(name: str, changed: list[str]) -> str:
    return (
        f"{name}: {', '.join(changed)} changed bytes; pins taken with numpy"
        f" {PINNED_NUMPY}, running numpy {np.__version__}"
    )


def test_every_figure_and_demo_pinned():
    assert set(FIGURES) == set(FIGURE_IDS)
    assert set(DEMO_STDOUT) == {demo.name for demo in DEMOS}


@pytest.mark.parametrize("figure", FIGURE_IDS)
def test_reproduce_bytes_pinned(figure, tmp_path):
    digests = figure_digests(figure, tmp_path)
    pins = PINS[output_version(tmp_path / figure / "manifest.json")][figure]
    changed = sorted(p for p in digests.keys() | pins.keys() if digests.get(p) != pins.get(p))
    assert not changed, _differ(figure, changed)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_pinned(demo, tmp_path):
    assert demo_digest(demo, tmp_path) == DEMO_STDOUT[demo.name], _differ(demo.name, ["stdout"])
