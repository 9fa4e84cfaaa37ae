"""Golden digests: the bytes of the CLI's output files, pinned.

The other byte-identity tests compare two paths of the current code with
each other; these compare the files with sha256 digests recorded before
the sweep's bootstrap, grid scan and CSV writer were batched (for
``eu_curve.dat``, before ``write_xy`` went through the block writer; for
the nine-rung ladder, before the writer took a sample's flags as one
coincidence level), so a change that alters any output byte of a sweep
or of the equilibrium command fails here.  The demo's equilibrium files
are checked against the equilibrium command's digests.  To re-record after an
intended output change, print ``_sweep_digests(tmp)``, the nine-rung
test's ``got`` and ``_equilibrium_digest(tmp, name)`` and say why in
CHANGES.md.
"""

import hashlib
import json

import pytest

from threshold_lab.cli import DEMO_CONFIG, main

LOGISTIC = {"kind": "logistic", "params": [0.0, 1.0]}

FAMILIES = {
    "location": {"kind": "location", "template": LOGISTIC, "box": {"lower": [-3.0], "upper": [3.0]}},
    "location_scale": {
        "kind": "location_scale",
        "template": LOGISTIC,
        "box": {"lower": [-3.0, 0.5], "upper": [3.0, 2.0]},
    },
    "mixture_linear": {
        "kind": "mixture_linear",
        "basis": [
            {"kind": "normal", "params": [-2.0, 0.8]},
            {"kind": "normal", "params": [2.0, 0.8]},
            LOGISTIC,
        ],
        "box": {"lower": [0.1, 0.1], "upper": [0.45, 0.45]},
    },
}
MODES = ("foc_gap", "threshold_distance")
SEEDS = (5, 20250810)
FILES = ("samples.csv", "summary.json", "fractions.dat")

# sha256 of each file, keyed "<kind>/<mode>/<seed>/<file>"; 300 samples
GOLDEN_SWEEPS = {
    "location/foc_gap/5/samples.csv": "f63920a5f20e2f0c135457668b425780cb93a6316ddd7205c4df58a2b50d77ac",
    "location/foc_gap/5/summary.json": "6af3af22a69b6d581c2886276e0ed0be1b15db5bd0aae6cd2688dfc6aad1edc7",
    "location/foc_gap/5/fractions.dat": "7fe5bc963adb490e82f170788b237654566ff0fed56b1bd7307a88ef821f92ce",
    "location/foc_gap/20250810/samples.csv": "b8b59c280f626ddd8c3224bd7512445458ae95e7462b3c3b5861e71c4d711274",
    "location/foc_gap/20250810/summary.json": "f29bacefcafdd369cd0eaeb1e014f4f66bb6a630ad9b624a8ea7f4c76f0ead72",
    "location/foc_gap/20250810/fractions.dat": "cd6237a51a571b6ed2b44128faee379388d5a86601c18f58c9c725675f425229",
    "location/threshold_distance/5/samples.csv": "8a3e5ff95d2839d7e701c88d2b44bab63312e03ca3ad2e497ce58267099bf568",
    "location/threshold_distance/5/summary.json": "a6ff8453205034c93da920611500017d202cb7a8dd43f992007e6933d8e6bc94",
    "location/threshold_distance/5/fractions.dat": "9bc5c41f37e7ffafe3785d5b3e9dc3203f2ec6d44610792e16a738c80724b249",
    "location/threshold_distance/20250810/samples.csv": "d0ab4bdaf179e9117fb040074013694c01a5dcde1d3b1f08ebc6c0526965a9ac",
    "location/threshold_distance/20250810/summary.json": "674d88c3c3c8b0308af93037023e7e960b994f52ee93fd07549dff9d44631b14",
    "location/threshold_distance/20250810/fractions.dat": "490b98ad93cd09c012cddbc257ec82b4941dcf2f751dd40367fd8532c3627bb3",
    "location_scale/foc_gap/5/samples.csv": "00e1a7dac628572604f07c1df83a019f5aa0eb690454f090dfdee5cc7242f5d6",
    "location_scale/foc_gap/5/summary.json": "6473421d1b2cce42440c6141e89b7f2059f171b79a21c85a89536ed9eb4f8976",
    "location_scale/foc_gap/5/fractions.dat": "63d5a195bf07203ae0b9c55679797b0dbf90a835a12caa8f262f4a3c70dea76d",
    "location_scale/foc_gap/20250810/samples.csv": "27f7c7e6a1d4796b41c74478e481ba4af08a0e245bffa8183c977e28dc56e7a9",
    "location_scale/foc_gap/20250810/summary.json": "db187aceb79d5ae7cb2aabf14cb44a08f5a3463935dd22af85b3a375c2f29b43",
    "location_scale/foc_gap/20250810/fractions.dat": "1ed3d5209d138f695c4b1e7288385dbc5f910f58e28f29d70f6fe523e30afdd4",
    "location_scale/threshold_distance/5/samples.csv": "0b9a1e21c4d3c649e60fe95f7f8c89e76801e8caa6d98055412801ddd0264a9c",
    "location_scale/threshold_distance/5/summary.json": "95a747c6e50f121e54fe2d3796aabf0286f6690ceda2eed4f800e2d6ae136071",
    "location_scale/threshold_distance/5/fractions.dat": "87a60e27ee51f8376bc3b0be8f13c2956cb95162fc02e224ec4385217982d1bd",
    "location_scale/threshold_distance/20250810/samples.csv": "d873fe4a18d8b711de7387614ad78363022e30921a1f801c480fdb97485f35a7",
    "location_scale/threshold_distance/20250810/summary.json": "01a7c60b345efae1eb247132370a2a5b13bf596f492971d46d8c8f2905298ae6",
    "location_scale/threshold_distance/20250810/fractions.dat": "72258a9940b309859340c685dcada7d492ecec1432cce01f71cfee582c6d32b1",
    "mixture_linear/foc_gap/5/samples.csv": "2e91e2fd94cc9627fa0b1c6c551322a40811a9cfce83656425a32373fae23970",
    "mixture_linear/foc_gap/5/summary.json": "b636106c88b65d67959dc41ae7e43c8b6c1f6c8cc26805e25dd6b2f61356f119",
    "mixture_linear/foc_gap/5/fractions.dat": "8824b0a3aa23625b7a19816890e3e27acd0f3ad6003efc0e93daa5717990b7a9",
    "mixture_linear/foc_gap/20250810/samples.csv": "b13c3c3c824154b07da5f4985562400f3ca08f0296b921e23ed9554884162910",
    "mixture_linear/foc_gap/20250810/summary.json": "3b69886ebd0f15a14cc1e9cb208284c183a7014bb1e41d7324112c5647b0aa2d",
    "mixture_linear/foc_gap/20250810/fractions.dat": "47605318caf750de394eaff96af472a9675ffd8305fd94e3a3c7d55d731aeec4",
    "mixture_linear/threshold_distance/5/samples.csv": "c47d1bbd01e015f5624410fc431b3946d9b4563417498da3b3ecc2d6e4252bf0",
    "mixture_linear/threshold_distance/5/summary.json": "50e02e79efc699bf2fb744ecd1be12653be9d237ac8c28e61e86486543eb4412",
    "mixture_linear/threshold_distance/5/fractions.dat": "8eca70c57e89085c7b08a7dac1b557be0efb7ca97c274002fa2eb4fad8e3e268",
    "mixture_linear/threshold_distance/20250810/samples.csv": "616e9440363038bd80a40e096409c06570d784e44db817771bd581f17c623d8d",
    "mixture_linear/threshold_distance/20250810/summary.json": "c04b7c6e73190c8557154104bc13951a6b85902712407b9393d92af13c1cf73b",
    "mixture_linear/threshold_distance/20250810/fractions.dat": "2a425dc3b32650782dc984dae0054000fb4302ac0d2b1cec5af9543f0b438471",
}

#: a 9-rung ladder, one flag past the 8 that the writer once handled per
#: byte, over more than one 1024-row block: location_scale, 1100 samples,
#: seed 5; together the two modes put samples at every level 0 .. 9
LADDER9 = [1.0, 0.3, 0.1, 0.05, 0.03, 0.02, 0.01, 0.003, 0.001]
GOLDEN_LADDER9 = {
    "foc_gap/samples.csv": "d45af6a5be83e38b794563c7334797342b8079a36e358252046f747d0bfc0865",
    "foc_gap/summary.json": "1df9f24d9874e0fe629d436f6c1bfc80721be1e8e0ac10ab4bbcd319c822a358",
    "threshold_distance/samples.csv": "6e66eaa4d76dccd5100bacca1e4aeb5435d9a4c007b4844f511b6a57ac261004",
    "threshold_distance/summary.json": "5c6ba3bfcc7a2f7ca713e2144dbc9e3e8cb270f412a9a257cfef34eb5be704fb",
}

#: the equilibrium command's CSV on the demo model and its default grid
GOLDEN_EQUILIBRIUM = "2e3df88ac211a3d2a805ba4f2e4e1997bc9471b77dde702b59aa6fe725ab7338"
#: the same command's eu_curve.dat
GOLDEN_EU_CURVE = "e8821fadfb63ac24084867918cfa1419a58d046bcf3d84e1abcfebf0e7568f48"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_sweep(tmp_path, kind, mode, seed, n_samples=300, tolerances=(0.1, 0.01, 0.001)):
    config = {
        "signal_pair": DEMO_CONFIG["signal_pair"],
        "cost": LOGISTIC,
        "cost_family": FAMILIES[kind],
        "reward": 1.0,
        "sweep": {"n_samples": n_samples, "tolerances": list(tolerances)},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(path), "--mode", mode, "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    return out


def _sweep_digests(tmp_path, kind, mode, seed):
    out = _run_sweep(tmp_path, kind, mode, seed)
    return {f"{kind}/{mode}/{seed}/{name}": _sha256(out / name) for name in FILES}


def _equilibrium_digest(tmp_path, name="equilibrium.csv"):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(DEMO_CONFIG))
    assert main(["equilibrium", "--config", str(path), "--out", str(tmp_path)]) == 0
    return _sha256(tmp_path / name)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_sweep_outputs_match_golden_digests(tmp_path, capsys, kind, mode, seed):
    got = _sweep_digests(tmp_path, kind, mode, seed)
    assert got == {key: GOLDEN_SWEEPS[key] for key in got}


@pytest.mark.parametrize("mode", MODES)
def test_nine_rung_sweep_matches_golden_digests(tmp_path, capsys, mode):
    out = _run_sweep(tmp_path, "location_scale", mode, 5, n_samples=1100, tolerances=LADDER9)
    got = {f"{mode}/{name}": _sha256(out / name) for name in ("samples.csv", "summary.json")}
    assert got == {key: GOLDEN_LADDER9[key] for key in got}


def test_equilibrium_csv_matches_golden_digest(tmp_path, capsys):
    assert _equilibrium_digest(tmp_path) == GOLDEN_EQUILIBRIUM


def test_eu_curve_matches_golden_digest(tmp_path, capsys):
    assert _equilibrium_digest(tmp_path, "eu_curve.dat") == GOLDEN_EU_CURVE


def test_demo_equilibrium_files_match_golden_digests(tmp_path, capsys):
    """The demo writes the equilibrium command's files for its model."""
    assert main(["demo", "--out", str(tmp_path)]) == 0
    (run_dir,) = tmp_path.glob("demo-*")
    got = (_sha256(run_dir / "equilibrium.csv"), _sha256(run_dir / "eu_curve.dat"))
    assert got == (GOLDEN_EQUILIBRIUM, GOLDEN_EU_CURVE)
