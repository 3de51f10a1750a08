"""Golden bytes: the fig2..fig7 closed-engine datasets, the default
reconciliation report and the optima of criterion 3's random separable
channels must not change by a single byte.

The digests were taken before the closed forms were made array-native and
the sweeps batched; a deliberate change of any output has to update them
and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from thermotele import closed_form
from thermotele.averaging import QuadratureGrid
from thermotele.classical_limit import _random_mixtures, oracle_det_optimum
from thermotele.sweeps import reproduce_figure

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

# SHA-256 of every file ``reproduce_figure(fig, out, steps=60)`` writes
FIGURE_DIGESTS = {
    "fig2.gp": "3421b3cc4b38f13f672566026602e76500331257f4d66f43b433ee7b15374186",
    "fig2_meta.json": "c101bccf648b70f827ec5ad34c4be562c6242b991bac6f11b9fb3bb2321d45cc",
    "fig3.gp": "0cecd44d671ca591d21e628a7eb9d56b92bad5d41001b0055506e196c2038861",
    "fig3_meta.json": "4d3ea61b9f0e7e333fb4218dd19dd63b9fafff6d2c85ec91535b378dc3779d06",
    "fig4.gp": "6d2de9fc4217fdeac784c87fdf25114a00960c575529d24aa3178e38b63f8a99",
    "fig4_meta.json": "4728c544d3a4546142727f67439d24290b60df19fcc1cc6c96de61b043a226b6",
    "fig5.gp": "b1d78db91ed8e96ecf5b3f6702176203f3a56025069ce71947cb003d9511f379",
    "fig5_meta.json": "ed46afc0310ea0c39ccc5f14d75fcad682445647fbb8dc3c2c0052353ac13c03",
    "fig6.gp": "ca1a17dbfc3a4b65518a09eaab8a8816065a55cf7e9d65bb8457da49c7a82b36",
    "fig6_meta.json": "fe67489b2d9e4d7c58794e8547d91b58fa6f262ec948c39e54c5238be6f3b47b",
    "fig7.gp": "f7ae00dd1174138f18429982f96ddd1f927da78d12a16ec3fafbc4721bfb9153",
    "fig7_meta.json": "19b5556ed7de7ba6d581fa2d15c7d525e305a08f560f4df75af7f2595926dfc7",
    "ising_det.csv": "10841d2e83b16389d8ede14e48093ea30c2b44a38eb3f43cfbae9fd3b3e8fa37",
    "ising_lambda_det.csv": "0b1d8d2be2e935ec1496af61562cc9e975880128b2efe680694e3a2470b8936b",
    "ising_lambda_prob.csv": "9c816e66e2083a65f67be158b786b429a5f3ccfe77fd520dbbf9875ce04ffd1c",
    "ising_lambda_success.csv": "72238382d3b687dfb099ea5fd54f8c9c65ee799d85466f30cb97ab4c90f770f8",
    "ising_prob.csv": "06c0b0b160497def53635eb6945c3becec8b91d2d40625a0953dff88284cbb54",
    "ising_success.csv": "672d3173f0e866d8a2ec3bbebca346e509270810fb81349eb88afd20f7c03a2f",
    "xx_det.csv": "f4051f673630970c9279038e533391c56347f83c0583cfc4d00daa2a905c63b7",
    "xx_lambda_det.csv": "ac3659a1c34f807dbe5134ee1c4c080b9b3139b04f07e7ea30b7fcb25fdc8efe",
    "xx_lambda_prob.csv": "106b499caf4489676ebf4399f2ba7842ee7bf05973f8190bec09658bc0d0d9df",
    "xx_lambda_success.csv": "a7f469ecc524b6765ec5aef6d4ab26c14b135e1fd5f0118f292e566fa04ad879",
    "xx_prob.csv": "6c7d88d2f7ce282492316348331a1f13c0a2deb58e4318fbbb801c6ec305ddbd",
    "xx_success.csv": "8e5d844338d89eb1772ea1e66660fc0b5355e28d98d0cf4e357b00f63baef5f1",
    "xxx_bigj_det.csv": "3dc2679a7a340ae5d604e9d99ff51409273c5112725db5be0788b81167e0ef18",
    "xxx_bigj_prob.csv": "5c90ff24b1152a6efe4922450a976adc02912503c283638767483736545a9608",
    "xxx_bigj_success.csv": "ade5fec07cc0e80839f78736508624fb99eeada19cd154441341e318844da1e1",
    "xxx_det.csv": "21b24f501ac1e0715220fbf317a8fceb0f48b1e39f6b443946102171ea79f568",
    "xxx_prob.csv": "20180710ece76ec17d8182db3fd7eeea26fddabbe06e54210a4bb3f95ebd8cdb",
    "xxx_success.csv": "10d6a7167871be91ed948f6916f7570e9f5c882d2234c70b8fe81c4d1ab8f7ac",
    "xxz_delta_det.csv": "e955627ddf3bb727586a811b5756d00eca35d723ace7f406feea5bab1f1cd8cc",
    "xxz_delta_prob.csv": "29657779d9c3d1560a1c20e455e74a6930dcd3b9408d63310d7e4aef5d52b8f4",
    "xxz_delta_success.csv": "e13f488bdd8b2d67b9d3ebad52f1dd633a4bec82bf2d470ad6f4750216a8bcc4",
    "xxz_det.csv": "ba32c2864348557bd19876090cd0d71d24b6572fa1d5a312a88485e6c8e5fa7d",
    "xxz_prob.csv": "1de2cb293b6e65f4a8907b2574be9eac71c01745b21e4365e2c7a0d807902e98",
    "xxz_success.csv": "1aaa63cf38fbed61d043788d7b077766b4344251e25170bfb2411f6045d5335a",
    "xy_det.csv": "ae5a05efa5b2cbe611f1290bcd89db2869984f13556fc1f119782bdd653d42e5",
    "xy_lambda_det.csv": "e89298e5665412a1819eafb7520037734dcc83e22a24e4a08c69bd99018af209",
    "xy_lambda_prob.csv": "2f2fb3d134de011eb8551d3fd9165a71746593341780b56b00beb852fefd65c0",
    "xy_lambda_success.csv": "b42d0756c7075c5669b98e2991bee50a6b312b7a21d8af3d274601d1a10bbdbe",
    "xy_prob.csv": "2a26422519a4a5fef6417642d5b4642a9d35f191ce56e0bcbeebf22273efb3b6",
    "xy_success.csv": "e0437ee6dee6229606008fa413ce98c4459ddb880e81f97f0f0cb37c20d9d5dd",
}

# SHA-256 of json.dumps(default_reconciliation().to_dict(), sort_keys=True)
RECONCILIATION_DIGEST = "f11198f0012e984346df01440e77651b7bd31f9d33036696e75391e368b97c3e"

# criterion 3 (seed 20260810 + 3) at its 16x16 grid: the optima of its
# 10,000 random channels, without the pole channel that sets max_fidelity
CLASSICAL_SEED = 20260813
CLASSICAL_MAX = 0.6589085453468222
CLASSICAL_DIGEST = "443a3cdbfef6c0bd7e5221c48ee8762f3d1bf2e308a8f7fc1f5c2a2d224b2865"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def figure_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    return [path for fig in FIGURES for path in reproduce_figure(fig, out, steps=60)]


def test_figure_file_set(figure_files):
    assert sorted(p.name for p in figure_files) == sorted(FIGURE_DIGESTS)


@pytest.mark.parametrize("name", sorted(FIGURE_DIGESTS))
def test_figure_bytes(figure_files, name):
    path = next(p for p in figure_files if p.name == name)
    assert _sha256(path.read_bytes()) == FIGURE_DIGESTS[name]


def test_reconciliation_report_bytes():
    report = closed_form.default_reconciliation().to_dict()
    text = json.dumps(report, sort_keys=True)
    assert _sha256(text.encode("utf-8")) == RECONCILIATION_DIGEST


def test_classical_bound_channel_optima():
    stack = _random_mixtures(np.random.default_rng(CLASSICAL_SEED), 10_000)
    optima = oracle_det_optimum(stack, QuadratureGrid(16, 16))
    assert float(np.max(optima)) == CLASSICAL_MAX
    assert _sha256(optima.tobytes()) == CLASSICAL_DIGEST
