"""Golden reports: the sha256 of every report file of every preset at its defaults.

A change that must leave reports byte-identical is held to these digests.
A change that alters a report on purpose updates the digests here and says
why in CHANGES.md.
"""
import hashlib
from pathlib import Path

import pytest

import conftest
from fogsim.report import emit_report
from fogsim.scenario import preset_names

DIGESTS = {
    "convergence": {
        "convergence.csv": "cba1bcdf22cd7f922b082082b75b590fe1338c21b67f5091f73b7ea748967df5",
        "report.json": "d0a85ed29bbbf9a22a3881a677ddfb741287f954fe649273fc8b6264377b76a9",
        "response.csv": "51c8f21dde0bdc09cfab6177e46f381bb69d54ca8a4d80cf45daeed0600634ea",
        "rrt.csv": "cf46e1e87cba05c30cc62b6111b275422dae63bd4ae8d961198e1e28cc558471",
        "sft.csv": "42479c9d4de26e3ecd05e4c1b1d3c8c091e8e7ac7852efda429514f3d67f9b3d",
    },
    "discovery": {
        "convergence.csv": "450940f4aa68b8b7de6532e205a96a95b6500908bea2ffc41456a6c5f78eb801",
        "report.json": "b8bfbfe25276c2ec7c461e7cc8d0ac2365bb91640870168d4d0e6e6d467e3685",
        "response.csv": "51c8f21dde0bdc09cfab6177e46f381bb69d54ca8a4d80cf45daeed0600634ea",
        "rrt.csv": "cf46e1e87cba05c30cc62b6111b275422dae63bd4ae8d961198e1e28cc558471",
        "sft.csv": "42479c9d4de26e3ecd05e4c1b1d3c8c091e8e7ac7852efda429514f3d67f9b3d",
    },
    "response": {
        "convergence.csv": "450940f4aa68b8b7de6532e205a96a95b6500908bea2ffc41456a6c5f78eb801",
        "report.json": "f25a5c5453e345875b0e5bea855e00bea71ef675ebb33bbf1c65caea9db37104",
        "response.csv": "79ca4842578f6f8574e076f9a5baf18f1150eafcdeb88a353151a594965a328c",
        "rrt.csv": "cf46e1e87cba05c30cc62b6111b275422dae63bd4ae8d961198e1e28cc558471",
        "sft.csv": "42479c9d4de26e3ecd05e4c1b1d3c8c091e8e7ac7852efda429514f3d67f9b3d",
    },
    "reuse": {
        "convergence.csv": "450940f4aa68b8b7de6532e205a96a95b6500908bea2ffc41456a6c5f78eb801",
        "report.json": "8aff875c2c276f7b2cb4b33d8a439d934aadf031bff9bab5193c9eceb37d879e",
        "response.csv": "51c8f21dde0bdc09cfab6177e46f381bb69d54ca8a4d80cf45daeed0600634ea",
        "rrt.csv": "e0093e14a87fc5bc38ba8924c8fac8e0eb050a67d99ee7741d2e507f85d1d7fc",
        "sft.csv": "42479c9d4de26e3ecd05e4c1b1d3c8c091e8e7ac7852efda429514f3d67f9b3d",
    },
    "scalability": {
        "convergence.csv": "450940f4aa68b8b7de6532e205a96a95b6500908bea2ffc41456a6c5f78eb801",
        "report.json": "5e236e976e3f699ff2112cf71926a0a0191db7d901f79212eba1cf54f928c4c7",
        "response.csv": "51c8f21dde0bdc09cfab6177e46f381bb69d54ca8a4d80cf45daeed0600634ea",
        "rrt.csv": "cf46e1e87cba05c30cc62b6111b275422dae63bd4ae8d961198e1e28cc558471",
        "sft.csv": "a34187d9ab4de8fb40dd4d40d14042fb7905bb1c5808e6f11fa2a2cb4b8f6f1e",
    },
    "smoke": {
        "convergence.csv": "450940f4aa68b8b7de6532e205a96a95b6500908bea2ffc41456a6c5f78eb801",
        "report.json": "448e0fffb5f27b62f144cc5b7010aaa9ee1d32f7d801bc894066842574f8c818",
        "response.csv": "51c8f21dde0bdc09cfab6177e46f381bb69d54ca8a4d80cf45daeed0600634ea",
        "rrt.csv": "f899bf2e719786ce91fb055575bd7ca8df0cfd5ba2e088c985ba940474e2a7b3",
        "sft.csv": "47b133b1d71bcd8649f53443c5d35dc07f8c05f4c2ae3aa1fb5a934367d75593",
    },
}


def test_every_preset_has_digests():
    assert sorted(DIGESTS) == sorted(preset_names())


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_report_files_match_their_digests(preset, tmp_path):
    paths = emit_report(conftest.preset_report(preset), str(tmp_path))
    assert sorted(paths) == sorted(DIGESTS[preset]), f"{preset}: report files changed"
    changed = [
        name for name, path in sorted(paths.items())
        if hashlib.sha256(Path(path).read_bytes()).hexdigest() != DIGESTS[preset][name]
    ]
    assert not changed, f"{preset}: {', '.join(changed)} differ from the golden digests"
