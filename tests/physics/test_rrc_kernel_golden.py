"""Cross-commit guard on the Simpson RRC kernel's numbers.

The same-commit tests compare the kernel with oracles that share its
inputs; they cannot see a rewrite that moves every path consistently.
The literals below were recorded at commit caf6ad2 (the parent of the PR
that expands the Gaunt rational about bin centres) *before the first
edit*: for each case the spectrum's peak and at most 16 evenly sampled
bins, as hex floats.  A rewritten kernel must agree to 1e-13 of each
spectrum's peak; the literals are never refreshed by a change that
claims the same numerics.

Cases: the wall benchmark's 400-bin grid dense at three temperatures,
its width-4 pruned batch, a 4000-bin linear grid pruned, grids of eight
bins and of one (one bin spans 0.05-8 keV: the expansion needs many
centres there), one per-ion oracle call, no Gaunt factor, and 2e4 K.

Every literal is checked on hosts of 1, 2 and 3 CPUs with every plan
call worth cutting (:func:`cut_like`): a batch of at least as many
points as CPUs is cut on its points, and every row is also computed on
its own — one point, cut on its bins.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

import repro.physics.plan as plan_module
from repro.atomic.ions import Ion
from repro.bench.workloads import small_real_database, small_real_grid
from repro.parallel import ranks
from repro.physics.apec import GridPoint, ion_emissivity_batched
from repro.physics.plan import PlanCache
from repro.physics.spectrum import EnergyGrid

SAMPLES = 16
TOLERANCE = 1.0e-13

#: CPUs of the hosts the literals are checked on.
HOSTS = (1, 2, 3)


@contextlib.contextmanager
def cut_like(cpus: int):
    """Plan calls as a host of ``cpus`` CPUs cuts them with a work floor
    of one pair, on a private pool closed after (no fault allowed)."""
    pool = ranks.RankPool()
    try:
        with mock.patch.object(plan_module, "POOL", pool), \
                mock.patch.object(ranks, "usable_cpus", lambda: cpus), \
                mock.patch.object(ranks, "WORK_FLOOR", 1):
            yield
    finally:
        pool.close()
    assert pool.stats.faults == 0 and pool.quarantined is False


def _point(temperature_k: float) -> GridPoint:
    return GridPoint(temperature_k=temperature_k, ne_cm3=1.0)


def _plan_rows(grid: EnergyGrid, temperatures, **knobs) -> list[np.ndarray]:
    plan = PlanCache().get(small_real_database(), grid, method="simpson", **knobs)
    points = [_point(t) for t in temperatures]
    rows = plan.execute_many(points)
    for point, row in zip(points, rows):
        alone = plan.execute(point)
        np.testing.assert_array_equal(alone.values, row.values)
        assert (alone.n_pairs, alone.n_passes) == (row.n_pairs, row.n_passes)
    return [r.values for r in rows]


def _per_ion(temperature_k: float) -> list[np.ndarray]:
    return [
        ion_emissivity_batched(
            small_real_database(), Ion(z=8, charge=8), _point(temperature_k),
            small_real_grid(400),
        )
    ]


WIDE = (0.05, 8.0)

#: case -> spectra (one per temperature of the call)
CASES = {
    "dense400": lambda: _plan_rows(small_real_grid(400), (2.0e6, 1.0e7, 5.0e7)),
    "pruned400_width4": lambda: _plan_rows(
        small_real_grid(400), np.geomspace(2.0e6, 5.0e7, 4), tail_tol=1.0e-9
    ),
    "pruned4000_linear": lambda: _plan_rows(
        EnergyGrid.linear(*WIDE, 4000), (2.0e6,), tail_tol=1.0e-9
    ),
    "bins8": lambda: _plan_rows(EnergyGrid.linear(*WIDE, 8), (1.0e7,)),
    "bins1": lambda: _plan_rows(EnergyGrid.linear(*WIDE, 1), (1.0e7,)),
    "per_ion": lambda: _per_ion(1.0e7),
    "no_gaunt": lambda: _plan_rows(small_real_grid(400), (1.0e7,), gaunt=False),
    "cold_2e4": lambda: _plan_rows(
        EnergyGrid.linear(*WIDE, 60), (2.0e4,), tail_tol=1.0e-9
    ),
}


def sampled(values: np.ndarray) -> np.ndarray:
    picks = np.linspace(0, values.size - 1, min(SAMPLES, values.size))
    return values[np.unique(picks.round().astype(int))]


#: case -> per spectrum (peak, sampled bins), hex floats from caf6ad2.
GOLDEN: dict[str, list[tuple[str, list[str]]]] = {
    "dense400": [
        ("0x1.37655fda03340p-28", [
            "0x1.61f20bf3134f5p-33", "0x1.71455ef4a45e0p-33", "0x1.7a48442f22cbfp-33",
            "0x1.89501d2b1f9c8p-33", "0x1.99b9b7cc90882p-33", "0x1.9e5f0992cade1p-33",
            "0x1.99369077a56f5p-33", "0x1.8da52cf06348bp-33", "0x1.aa30eeca03048p-33",
            "0x1.8bef820af99fdp-32", "0x1.6c49805cbb231p-32", "0x1.32cd1fbf3f591p-32",
            "0x1.ab3df55aaaef4p-32", "0x1.89358cbf01f89p-32", "0x1.8d45f58d2641ap-29",
            "0x1.d22a27f776db9p-30",
        ]),
        ("0x1.df47d5de2f3dbp-31", [
            "0x1.3bee1fc334f86p-35", "0x1.594c09b9e0af5p-35", "0x1.7fb94cffa9fd5p-35",
            "0x1.a6c013136bca4p-35", "0x1.ea666829acd5ap-35", "0x1.10b7c133c1592p-34",
            "0x1.30f4e22d050c3p-34", "0x1.55f3700459765p-34", "0x1.82ee12df568c7p-34",
            "0x1.0bd2d618799e6p-33", "0x1.3381b76180b12p-33", "0x1.65051bf316854p-33",
            "0x1.e4b20263bb150p-33", "0x1.1b9b60cc6c908p-32", "0x1.9d20d669b03aep-31",
            "0x1.df47d5de2f3dbp-31",
        ]),
        ("0x1.3f0700fa10894p-33", [
            "0x1.1265218e05f50p-38", "0x1.30273223145c8p-38", "0x1.561f1090e2485p-38",
            "0x1.7f9ec9b50beccp-38", "0x1.c0a8ff86aa964p-38", "0x1.fe73e123025ffp-38",
            "0x1.24f48f208a96cp-37", "0x1.521c0447cd04fp-37", "0x1.8c7f69af959b8p-37",
            "0x1.0db5b6a754bc3p-36", "0x1.46079c998b739p-36", "0x1.92f884c7e8cbap-36",
            "0x1.175d6f59c7e77p-35", "0x1.6bd32c1a2306ap-35", "0x1.bbd280421a844p-34",
            "0x1.3f0700fa10894p-33",
        ]),
    ],
    "pruned400_width4": [
        ("0x1.37655fda03340p-28", [
            "0x1.61f20bf3134f5p-33", "0x1.71455ef4a45e0p-33", "0x1.7a48442f22cbfp-33",
            "0x1.89501d2b1f9c8p-33", "0x1.99b9b7cc90882p-33", "0x1.9e5f0992cade1p-33",
            "0x1.99369077a56f5p-33", "0x1.8da52cf06348bp-33", "0x1.aa30eeca03048p-33",
            "0x1.8bef820af99fdp-32", "0x1.6c49805cbb231p-32", "0x1.32cd1fbf3f591p-32",
            "0x1.ab3df55aaaef4p-32", "0x1.89358cbf01f89p-32", "0x1.8d45f58d2641ap-29",
            "0x1.d22a27f776db9p-30",
        ]),
        ("0x1.5e6ea7d2a6935p-30", [
            "0x1.2ab0a57d7877ap-34", "0x1.426b70e95de13p-34", "0x1.6205f94804247p-34",
            "0x1.7ff9bdaf361e5p-34", "0x1.bb29a4118c04ap-34", "0x1.e315ed8d19003p-34",
            "0x1.07e821c30f8c5p-33", "0x1.2090cd44f86fap-33", "0x1.3c62f89d67555p-33",
            "0x1.c3d5c209117adp-33", "0x1.efc772c98406fp-33", "0x1.1213a7b3a91adp-32",
            "0x1.7116a4e09523ep-32", "0x1.8908c6376bdacp-32", "0x1.5e624d09ed8cdp-30",
            "0x1.4fbbe0b9acf5bp-30",
        ]),
        ("0x1.23b5e17aaefd3p-31", [
            "0x1.3850fc4aa33bep-36", "0x1.57d97513f5fa0p-36", "0x1.8082a978ab6aap-36",
            "0x1.ab829b4382c48p-36", "0x1.f1e144e4d180cp-36", "0x1.18275af70821ap-35",
            "0x1.3d8cae7e41817p-35", "0x1.696f3bb415d67p-35", "0x1.a0a0926c234c5p-35",
            "0x1.1d2ad521a58b3p-34", "0x1.5048144ce3c64p-34", "0x1.933f0719b2c25p-34",
            "0x1.140af9f861577p-33", "0x1.557532bfc2076p-33", "0x1.c1de301bd286dp-32",
            "0x1.23b5e17aaefd3p-31",
        ]),
        ("0x1.3f0700fa10894p-33", [
            "0x1.1265218e05f50p-38", "0x1.30273223145c8p-38", "0x1.561f1090e2485p-38",
            "0x1.7f9ec9b50beccp-38", "0x1.c0a8ff86aa964p-38", "0x1.fe73e123025ffp-38",
            "0x1.24f48f208a96cp-37", "0x1.521c0447cd04fp-37", "0x1.8c7f69af959b8p-37",
            "0x1.0db5b6a754bc3p-36", "0x1.46079c998b739p-36", "0x1.92f884c7e8cbap-36",
            "0x1.175d6f59c7e77p-35", "0x1.6bd32c1a2306ap-35", "0x1.bbd280421a844p-34",
            "0x1.3f0700fa10894p-33",
        ]),
    ],
    "pruned4000_linear": [
        ("0x1.d3fa3388ac71fp-30", [
            "0x1.4a3e32a2efb8fp-31", "0x1.2861ecb36db28p-32", "0x1.14479b9cb4d61p-31",
            "0x1.54110de4e6982p-32", "0x1.3807606286246p-35", "0x1.63a3384d79f36p-35",
            "0x1.06d62f0f7b482p-39", "0x1.88ac673f1df39p-44", "0x1.21c6391a63e40p-48",
            "0x1.afc535af661d9p-53", "0x1.399a3b84c0a18p-57", "0x1.28f0267f58edbp-71",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
    ],
    "bins8": [
        ("0x1.3b072b3c67aaep-24", [
            "0x1.2b1702958a1a1p-24", "0x1.3b072b3c67aaep-24", "0x1.7f4e70057560cp-25",
            "0x1.872980361c9b2p-26", "0x1.ee88fe2301b08p-28", "0x1.3845232c4de0ap-29",
            "0x1.8a16c5e07925ep-31", "0x1.f11d94272c2fap-33",
        ]),
    ],
    "bins1": [
        ("0x1.da1f656448686p-23", [
            "0x1.da1f656448686p-23",
        ]),
    ],
    "per_ion": [
        ("0x1.3a8482123d57ap-31", [
            "0x1.dd1e596822140p-38", "0x1.0550788618bc9p-37", "0x1.1e60cbe454524p-37",
            "0x1.3c53313b1e6cep-37", "0x1.5db42772c25fap-37", "0x1.8618a8082f042p-37",
            "0x1.b5a371b1167aap-37", "0x1.ebc1675617bf2p-37", "0x1.175ae89176d5fp-36",
            "0x1.3e0bf56c65a01p-36", "0x1.6ea0032de57b2p-36", "0x1.a9e2c67d4e470p-36",
            "0x1.ef52861794883p-36", "0x1.232a030420267p-35", "0x1.0da738141ccbfp-31",
            "0x1.3a8482123d57ap-31",
        ]),
    ],
    "no_gaunt": [
        ("0x1.e6d8dae62f0cep-31", [
            "0x1.3d736168c41cbp-35", "0x1.5b6cac4d65314p-35", "0x1.829a83ce08342p-35",
            "0x1.aaa53e67a7bd4p-35", "0x1.ef90a2ae379ddp-35", "0x1.14284465a96e8p-34",
            "0x1.358bbcfa4a9dap-34", "0x1.5c08296216552p-34", "0x1.8b1fd5c94f03cp-34",
            "0x1.11441d69d0779p-33", "0x1.3ad9d8693b4e1p-33", "0x1.6f186542c8819p-33",
            "0x1.f271717bee813p-33", "0x1.25426f9862c48p-32", "0x1.a32244794cc02p-31",
            "0x1.e6d8dae62f0cep-31",
        ]),
    ],
    "cold_2e4": [
        ("0x1.9224ee43841b6p-25", [
            "0x1.09c4eaa1abb95p-30", "0x1.3e35a6a6c65a5p-26", "0x1.1b059981dc7a7p-63",
            "0x1.58f3f85d12bfap-280", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_the_parent_commit(case):
    for cpus in HOSTS:
        with cut_like(cpus):
            spectra = CASES[case]()
        assert len(spectra) == len(GOLDEN[case])
        for values, (peak_hex, bins_hex) in zip(spectra, GOLDEN[case]):
            peak = float.fromhex(peak_hex)
            want = np.array([float.fromhex(h) for h in bins_hex])
            assert peak > 0.0
            assert abs(float(values.max()) - peak) <= TOLERANCE * peak
            assert np.abs(sampled(values) - want).max() <= TOLERANCE * peak


def test_a_point_cut_on_its_bins_keeps_the_serial_statistics():
    """Statistics count the whole windows once, never summed over runs."""
    plan = PlanCache().get(small_real_database(), small_real_grid(400), method="simpson")
    got = []
    for cpus in HOSTS:
        with cut_like(cpus):
            result = plan.execute(_point(1.0e7))
        got.append((result.values.tobytes(), result.n_pairs, result.n_passes))
    assert got[0][1] > 0 and len(set(got)) == 1
