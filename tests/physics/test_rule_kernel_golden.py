"""Cross-commit guard on the plan's three rules, recorded before the
Romberg and Gauss plans moved onto the factorized kernel.

Both tables were recorded at commit 51bdba8 — the parent of the PR that
makes :mod:`repro.physics.rrc_kernel` the one kernel of every linear
rule — *before the first source edit*, and are never refreshed by a
change that claims the same numerics.

``SIMPSON_SHA1``: ``sha1(values.tobytes())`` of every spectrum of every
case ``test_rrc_kernel_golden.py`` lists.  Simpson's arithmetic is not
allowed to move at all, so these are matched bit for bit (host-exact
literals, like ``test_serve_golden.py``'s: they pin this NumPy build's
``exp`` and dot product too).

``GENERIC``: what the *generic* window kernels
(:mod:`repro.quadrature.megabatch`, one call per point — the parent's
Romberg / Gauss plan path) computed for Romberg ``k = 5, 7`` and Gauss
``n = 8, 12``, dense and pruned, on the 400-bin benchmark grid, 1000
linear bins over 0.05-8 keV and one bin over the same range, at 2e4 K,
2e6 K and 5e7 K: the spectrum's peak and at most 16 evenly sampled bins
as hex floats.  A plan must agree within ``1e-12 + 2 eps E_max / kT`` of
the peak — the generic kernel rounds ``E`` before it subtracts ``I_l``,
so its own exponent carries ``eps E / kT``
(``test_rrc_kernel.py::test_matches_the_generic_kernel_on_any_grid``).

Both are checked on hosts of 1, 2 and 3 CPUs with every plan call worth
cutting (``test_rrc_kernel_golden.cut_like``): every single-point call is
then cut on its bins, and a batch as wide as the host on its points.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.workloads import small_real_database, small_real_grid
from repro.physics.apec import GridPoint
from repro.physics.plan import PlanCache
from repro.physics.spectrum import EnergyGrid
from tests.physics.test_rrc_kernel_golden import CASES as SIMPSON_CASES
from tests.physics.test_rrc_kernel_golden import HOSTS, cut_like, sampled

TEMPERATURES = (2.0e4, 2.0e6, 5.0e7)
RULES = {
    "romberg5": dict(method="romberg", k=5),
    "romberg7": dict(method="romberg", k=7),
    "gauss8": dict(method="gauss", gl_points=8),
    "gauss12": dict(method="gauss", gl_points=12),
}
GRIDS = {
    "bench400": lambda: small_real_grid(400),
    "wide1000": lambda: EnergyGrid.linear(0.05, 8.0, 1000),
    "bins1": lambda: EnergyGrid.linear(0.05, 8.0, 1),
}
TAIL_TOLS = {"dense": 0.0, "pruned": 1.0e-9}
RULE_CASES = [
    f"{rule}-{grid}-{tail}" for rule in RULES for grid in GRIDS for tail in TAIL_TOLS
]


def rule_spectra(case: str) -> tuple[EnergyGrid, list[np.ndarray]]:
    rule, grid_name, tail = case.split("-")
    grid = GRIDS[grid_name]()
    plan = PlanCache().get(
        small_real_database(), grid, tail_tol=TAIL_TOLS[tail], **RULES[rule]
    )
    return grid, [
        plan.execute(GridPoint(temperature_k=t, ne_cm3=1.0)).values
        for t in TEMPERATURES
    ]


#: case -> sha1 per spectrum, from 51bdba8.
SIMPSON_SHA1: dict[str, list[str]] = {
    "bins1": [
        "1b96b77b8db07958cccf9f194304ec1de6dcc49f",
    ],
    "bins8": [
        "1b71bf72cb395e6e0162e92674ba1ca924c9f9c1",
    ],
    "cold_2e4": [
        "78f32979f1f0c2e3fbcf5e5ba7df2c648743718d",
    ],
    "dense400": [
        "d26ad26e4db9a8c7659d5421e3d8aaa9bc26827c",
        "9b4d6c07ad392f23ae330bc871d6880dc880b96d",
        "d050fc772825e4a75e90b93dae2ee133ce0e6fff",
    ],
    "no_gaunt": [
        "0e0ef127da36a3743e299762ded5ae129b3a08f2",
    ],
    "per_ion": [
        "8b9b870b7c70b0d03cac51657c78e2f95ce5100b",
    ],
    "pruned4000_linear": [
        "2a1264625859999d3263ea3bdcd65f9e93f78e2f",
    ],
    "pruned400_width4": [
        "d26ad26e4db9a8c7659d5421e3d8aaa9bc26827c",
        "4780ff17481780e1b6ea5abba6cddab78e36feb6",
        "abe2651d62138298948c1a6ae8899a331045e0ac",
        "d050fc772825e4a75e90b93dae2ee133ce0e6fff",
    ],
}

#: case -> per temperature (peak, sampled bins), hex floats from 51bdba8.
GENERIC: dict[str, list[tuple[str, list[str]]]] = {
    "romberg5-bench400-dense": [
        ("0x1.508fb997d399ep-25", [
            "0x1.0aa0592a0d46dp-65", "0x1.54cdb92f3492fp-78", "0x1.e448d3bf3d6b7p-38",
            "0x1.34fc67fd3151ep-53", "0x1.03c2d3faf0cc0p-70", "0x1.8e2e58528dccbp-46",
            "0x1.1c96e492610cdp-60", "0x1.bb0a88a8dea1dp-87", "0x1.482c664c5c91ep-53",
            "0x1.4200aa7addf8dp-90", "0x1.6a714dc87d434p-61", "0x1.29929c57809e5p-47",
            "0x1.96fa82eff2ce8p-51", "0x1.2d107c64e9593p-44", "0x1.05b833a5f8c0fp-73",
            "0x1.609477487b28cp-73",
        ]),
        ("0x1.37655fda0333dp-28", [
            "0x1.61f20bf3134fap-33", "0x1.71455ef4a45e6p-33", "0x1.7a48442f22cc8p-33",
            "0x1.89501d2b1f9cep-33", "0x1.99b9b7cc90889p-33", "0x1.9e5f0992cade9p-33",
            "0x1.99369077a56f9p-33", "0x1.8da52cf063490p-33", "0x1.aa30eeca03042p-33",
            "0x1.8bef820af99f7p-32", "0x1.6c49805cbb236p-32", "0x1.32cd1fbf3f593p-32",
            "0x1.ab3df55aaaefap-32", "0x1.89358cbf01f91p-32", "0x1.8d45f58d2640ap-29",
            "0x1.d22a27f776d92p-30",
        ]),
        ("0x1.3f0700fa10896p-33", [
            "0x1.1265218e05f4cp-38", "0x1.30273223145c9p-38", "0x1.561f1090e248dp-38",
            "0x1.7f9ec9b50bec8p-38", "0x1.c0a8ff86aa96ap-38", "0x1.fe73e12302606p-38",
            "0x1.24f48f208a976p-37", "0x1.521c0447cd055p-37", "0x1.8c7f69af959bbp-37",
            "0x1.0db5b6a754bc4p-36", "0x1.46079c998b73ap-36", "0x1.92f884c7e8cc5p-36",
            "0x1.175d6f59c7e7cp-35", "0x1.6bd32c1a2306bp-35", "0x1.bbd280421a849p-34",
            "0x1.3f0700fa10896p-33",
        ]),
    ],
    "romberg5-bench400-pruned": [
        ("0x1.508fb997d399ep-25", [
            "0x1.46b63c9a232bbp-82", "0x1.0f9c991d17110p-130", "0x1.e448d3bf3d6b7p-38",
            "0x1.34fc67fd3151ep-53", "0x1.77c7e7a12b4a6p-198", "0x1.8e2e58528dc09p-46",
            "0x1.1c96e492610cdp-60", "0x1.776584f7ab20cp-452", "0x1.482c664c5c91ep-53",
            "0x1.d1d30451483b7p-999", "0x1.6a610f5f69bdap-61", "0x1.29929c57809e5p-47",
            "0x1.96fa82eff2ce8p-51", "0x1.2cf4c68a1d83bp-44", "0x1.b43dd10c9bd62p-74",
            "0x1.609477487b28cp-73",
        ]),
        ("0x1.37655fda0333dp-28", [
            "0x1.61f20bf3134fap-33", "0x1.71455ef4a45e6p-33", "0x1.7a48442f22cc8p-33",
            "0x1.89501d2b1f9cep-33", "0x1.99b9b7cc90889p-33", "0x1.9e5f0992cade9p-33",
            "0x1.99369077a56f9p-33", "0x1.8da52cf063490p-33", "0x1.aa30eeca03042p-33",
            "0x1.8bef820af99f7p-32", "0x1.6c49805cbb236p-32", "0x1.32cd1fbf3f593p-32",
            "0x1.ab3df55aaaefap-32", "0x1.89358cbf01f91p-32", "0x1.8d45f58d2640ap-29",
            "0x1.d22a27f776d92p-30",
        ]),
        ("0x1.3f0700fa10896p-33", [
            "0x1.1265218e05f4cp-38", "0x1.30273223145c9p-38", "0x1.561f1090e248dp-38",
            "0x1.7f9ec9b50bec8p-38", "0x1.c0a8ff86aa96ap-38", "0x1.fe73e12302606p-38",
            "0x1.24f48f208a976p-37", "0x1.521c0447cd055p-37", "0x1.8c7f69af959bbp-37",
            "0x1.0db5b6a754bc4p-36", "0x1.46079c998b73ap-36", "0x1.92f884c7e8cc5p-36",
            "0x1.175d6f59c7e7cp-35", "0x1.6bd32c1a2306bp-35", "0x1.bbd280421a849p-34",
            "0x1.3f0700fa10896p-33",
        ]),
    ],
    "romberg5-wide1000-dense": [
        ("0x1.88cda4eb6950bp-25", [
            "0x1.6ec5c9ca1bfabp-34", "0x1.e4fc8efa04f25p-71", "0x1.3efeb4a0cc0d6p-61",
            "0x1.4608c7dfacf9ep-252", "0x1.14a9cb9192c57p-684", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.bc7461ab641b2p-28", [
            "0x1.ff850b75a31d3p-29", "0x1.1ffbf9c755854p-30", "0x1.12b82a30335f8p-29",
            "0x1.4e4ad7808e2cfp-30", "0x1.39db17ba2245fp-33", "0x1.61a00e14c0d3bp-33",
            "0x1.025b19b2cb9c0p-37", "0x1.8af9954b8c581p-42", "0x1.202449514d761p-46",
            "0x1.b8077833afb16p-51", "0x1.40bb0088d3c98p-55", "0x1.d367603a20abap-60",
            "0x1.648e541e955a8p-64", "0x1.03aee0b56d8f5p-68", "0x1.8c0a02010b236p-73",
            "0x1.2057361932cf9p-77",
        ]),
        ("0x1.0d020309a889ep-33", [
            "0x1.31df1976f4f2bp-35", "0x1.1834e2f67c2d5p-34", "0x1.e69cb8b148f40p-34",
            "0x1.f6a7360adc465p-34", "0x1.ed0c36d58f885p-34", "0x1.0806072ef0288p-33",
            "0x1.d09ffc868760ap-34", "0x1.999fca0130aedp-34", "0x1.687a14c4e8d65p-34",
            "0x1.3ddcf107575a1p-34", "0x1.17c81218917ffp-34", "0x1.ec930e8cb75ebp-35",
            "0x1.b2790a3ab8cedp-35", "0x1.7e882209b3839p-35", "0x1.5178525901a84p-35",
            "0x1.292d1f7baff2ep-35",
        ]),
    ],
    "romberg5-wide1000-pruned": [
        ("0x1.88cda4eb6950bp-25", [
            "0x1.6ec5c9c2dda82p-34", "0x1.0872d9da00c83p-108", "0x1.3efeb4a0cc0d6p-61",
            "0x1.f51ebec571c85p-936", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.bc7461ab641b2p-28", [
            "0x1.ff850b75a31ccp-29", "0x1.1ffbf9c755855p-30", "0x1.12b82a30335f9p-29",
            "0x1.4e4ad7808e2d0p-30", "0x1.39db17ba2245ep-33", "0x1.61a00e14c0d3ap-33",
            "0x1.025b19b2cb9c0p-37", "0x1.8af98a757f9d1p-42", "0x1.202229fafc02dp-46",
            "0x1.b755f77a58808p-51", "0x1.3b70f0fed0c3ap-55", "0x1.27419395680bap-69",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.0d020309a889ep-33", [
            "0x1.31df1976f4f2bp-35", "0x1.1834e2f67c2d5p-34", "0x1.e69cb8b148f40p-34",
            "0x1.f6a7360adc465p-34", "0x1.ed0c36d58f885p-34", "0x1.0806072ef0288p-33",
            "0x1.d09ffc868760ap-34", "0x1.999fca0130aedp-34", "0x1.687a14c4e8d65p-34",
            "0x1.3ddcf107575a1p-34", "0x1.17c81218917ffp-34", "0x1.ec930e8cb75ebp-35",
            "0x1.b2790a3ab8cedp-35", "0x1.7e882209b3839p-35", "0x1.5178525901a84p-35",
            "0x1.292d1f7baff2ep-35",
        ]),
    ],
    "romberg5-bins1-dense": [
        ("0x1.0f554dbfa3f69p-18", [
            "0x1.0f554dbfa3f69p-18",
        ]),
        ("0x1.e8101a9ace0d2p-22", [
            "0x1.e8101a9ace0d2p-22",
        ]),
        ("0x1.4b2e32b5a4320p-24", [
            "0x1.4b2e32b5a4320p-24",
        ]),
    ],
    "romberg5-bins1-pruned": [
        ("0x1.0f554dbfa2b4bp-18", [
            "0x1.0f554dbfa2b4bp-18",
        ]),
        ("0x1.e8101a9ace0d2p-22", [
            "0x1.e8101a9ace0d2p-22",
        ]),
        ("0x1.4b2e32b5a4320p-24", [
            "0x1.4b2e32b5a4320p-24",
        ]),
    ],
    "romberg7-bench400-dense": [
        ("0x1.508fb997d39aep-25", [
            "0x1.0aa0592a0d46fp-65", "0x1.54cdb92f3492dp-78", "0x1.e448d3bf3d6bcp-38",
            "0x1.34fc67fd31520p-53", "0x1.03c2d3faf0cc1p-70", "0x1.8e2e58528dcc8p-46",
            "0x1.1c96e492610d2p-60", "0x1.bb0a88a8dea1fp-87", "0x1.482c664c5c924p-53",
            "0x1.4200aa7addf8fp-90", "0x1.6a714dc87d41bp-61", "0x1.29929c57809e0p-47",
            "0x1.96fa82eff2cd0p-51", "0x1.2d107c64e929cp-44", "0x1.05b833a5f1544p-73",
            "0x1.609477487b28cp-73",
        ]),
        ("0x1.37655fda03341p-28", [
            "0x1.61f20bf3134fdp-33", "0x1.71455ef4a45e0p-33", "0x1.7a48442f22ccbp-33",
            "0x1.89501d2b1f9d0p-33", "0x1.99b9b7cc90890p-33", "0x1.9e5f0992cade9p-33",
            "0x1.99369077a56f9p-33", "0x1.8da52cf063493p-33", "0x1.aa30eeca0304dp-33",
            "0x1.8bef820af99fdp-32", "0x1.6c49805cbb232p-32", "0x1.32cd1fbf3f594p-32",
            "0x1.ab3df55aaaef6p-32", "0x1.89358cbf01f8dp-32", "0x1.8d45f58d26417p-29",
            "0x1.d22a27f776d92p-30",
        ]),
        ("0x1.3f0700fa10896p-33", [
            "0x1.1265218e05f4bp-38", "0x1.30273223145cep-38", "0x1.561f1090e248dp-38",
            "0x1.7f9ec9b50bec8p-38", "0x1.c0a8ff86aa974p-38", "0x1.fe73e12302607p-38",
            "0x1.24f48f208a97fp-37", "0x1.521c0447cd05ap-37", "0x1.8c7f69af959b7p-37",
            "0x1.0db5b6a754bc6p-36", "0x1.46079c998b73cp-36", "0x1.92f884c7e8cc5p-36",
            "0x1.175d6f59c7e7cp-35", "0x1.6bd32c1a2306cp-35", "0x1.bbd280421a842p-34",
            "0x1.3f0700fa10896p-33",
        ]),
    ],
    "romberg7-bench400-pruned": [
        ("0x1.508fb997d39aep-25", [
            "0x1.46b63c9a232b9p-82", "0x1.0f9c991d17112p-130", "0x1.e448d3bf3d6bcp-38",
            "0x1.34fc67fd3151fp-53", "0x1.77c7e7a12b4a3p-198", "0x1.8e2e58528dc06p-46",
            "0x1.1c96e492610d2p-60", "0x1.776584f7ab20ap-452", "0x1.482c664c5c924p-53",
            "0x1.d1d30451483b6p-999", "0x1.6a610f5f69bc1p-61", "0x1.29929c57809e0p-47",
            "0x1.96fa82eff2cd0p-51", "0x1.2cf4c68a1d544p-44", "0x1.b43dd10c8f760p-74",
            "0x1.609477487b28cp-73",
        ]),
        ("0x1.37655fda03341p-28", [
            "0x1.61f20bf3134fdp-33", "0x1.71455ef4a45e0p-33", "0x1.7a48442f22ccbp-33",
            "0x1.89501d2b1f9d0p-33", "0x1.99b9b7cc90890p-33", "0x1.9e5f0992cade9p-33",
            "0x1.99369077a56f9p-33", "0x1.8da52cf063493p-33", "0x1.aa30eeca0304dp-33",
            "0x1.8bef820af99fdp-32", "0x1.6c49805cbb232p-32", "0x1.32cd1fbf3f594p-32",
            "0x1.ab3df55aaaef6p-32", "0x1.89358cbf01f8dp-32", "0x1.8d45f58d26417p-29",
            "0x1.d22a27f776d92p-30",
        ]),
        ("0x1.3f0700fa10896p-33", [
            "0x1.1265218e05f4bp-38", "0x1.30273223145cep-38", "0x1.561f1090e248dp-38",
            "0x1.7f9ec9b50bec8p-38", "0x1.c0a8ff86aa974p-38", "0x1.fe73e12302607p-38",
            "0x1.24f48f208a97fp-37", "0x1.521c0447cd05ap-37", "0x1.8c7f69af959b7p-37",
            "0x1.0db5b6a754bc6p-36", "0x1.46079c998b73cp-36", "0x1.92f884c7e8cc5p-36",
            "0x1.175d6f59c7e7cp-35", "0x1.6bd32c1a2306cp-35", "0x1.bbd280421a842p-34",
            "0x1.3f0700fa10896p-33",
        ]),
    ],
    "romberg7-wide1000-dense": [
        ("0x1.88cda4eb3f1fbp-25", [
            "0x1.6ec5c9ca1b548p-34", "0x1.e4fc8ef9d0ddep-71", "0x1.3efeb4a0a9c88p-61",
            "0x1.4608c7df89f3bp-252", "0x1.14a9cb9175032p-684", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.bc7461ab641b6p-28", [
            "0x1.ff850b75a31d1p-29", "0x1.1ffbf9c755855p-30", "0x1.12b82a30335f9p-29",
            "0x1.4e4ad7808e2d1p-30", "0x1.39db17ba2245fp-33", "0x1.61a00e14c0d3cp-33",
            "0x1.025b19b2cb9bfp-37", "0x1.8af9954b8c582p-42", "0x1.202449514d75dp-46",
            "0x1.b8077833afb19p-51", "0x1.40bb0088d3c98p-55", "0x1.d367603a20ab8p-60",
            "0x1.648e541e955acp-64", "0x1.03aee0b56d8f4p-68", "0x1.8c0a02010b235p-73",
            "0x1.2057361932cfap-77",
        ]),
        ("0x1.0d020309a889ep-33", [
            "0x1.31df1976f4f2bp-35", "0x1.1834e2f67c2d5p-34", "0x1.e69cb8b148f44p-34",
            "0x1.f6a7360adc465p-34", "0x1.ed0c36d58f883p-34", "0x1.0806072ef0288p-33",
            "0x1.d09ffc8687607p-34", "0x1.999fca0130aefp-34", "0x1.687a14c4e8d64p-34",
            "0x1.3ddcf1075759ep-34", "0x1.17c8121891800p-34", "0x1.ec930e8cb75edp-35",
            "0x1.b2790a3ab8ceep-35", "0x1.7e882209b383ap-35", "0x1.5178525901a83p-35",
            "0x1.292d1f7baff2dp-35",
        ]),
    ],
    "romberg7-wide1000-pruned": [
        ("0x1.88cda4eb3f1fbp-25", [
            "0x1.6ec5c9c2dd01ep-34", "0x1.0872d9d9e4626p-108", "0x1.3efeb4a0a9c88p-61",
            "0x1.f51ebec53bf2cp-936", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.bc7461ab641b2p-28", [
            "0x1.ff850b75a31d0p-29", "0x1.1ffbf9c755854p-30", "0x1.12b82a30335fap-29",
            "0x1.4e4ad7808e2d0p-30", "0x1.39db17ba2245ep-33", "0x1.61a00e14c0d3bp-33",
            "0x1.025b19b2cb9c0p-37", "0x1.8af98a757f9cep-42", "0x1.202229fafc02ap-46",
            "0x1.b755f77a58807p-51", "0x1.3b70f0fed0c39p-55", "0x1.27419395680bap-69",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.0d020309a889ep-33", [
            "0x1.31df1976f4f2bp-35", "0x1.1834e2f67c2d5p-34", "0x1.e69cb8b148f44p-34",
            "0x1.f6a7360adc465p-34", "0x1.ed0c36d58f883p-34", "0x1.0806072ef0288p-33",
            "0x1.d09ffc8687607p-34", "0x1.999fca0130aefp-34", "0x1.687a14c4e8d64p-34",
            "0x1.3ddcf1075759ep-34", "0x1.17c8121891800p-34", "0x1.ec930e8cb75edp-35",
            "0x1.b2790a3ab8ceep-35", "0x1.7e882209b383ap-35", "0x1.5178525901a83p-35",
            "0x1.292d1f7baff2dp-35",
        ]),
    ],
    "romberg7-bins1-dense": [
        ("0x1.0f401a390fc72p-20", [
            "0x1.0f401a390fc72p-20",
        ]),
        ("0x1.e6badab2cbdefp-22", [
            "0x1.e6badab2cbdefp-22",
        ]),
        ("0x1.4b3117791ba92p-24", [
            "0x1.4b3117791ba92p-24",
        ]),
    ],
    "romberg7-bins1-pruned": [
        ("0x1.0f401a390e856p-20", [
            "0x1.0f401a390e856p-20",
        ]),
        ("0x1.e6badab2cbdefp-22", [
            "0x1.e6badab2cbdefp-22",
        ]),
        ("0x1.4b3117791ba92p-24", [
            "0x1.4b3117791ba92p-24",
        ]),
    ],
    "gauss8-bench400-dense": [
        ("0x1.508fb997d3982p-25", [
            "0x1.0aa0592a0d425p-65", "0x1.54cdb92f348d0p-78", "0x1.e448d3bf3d633p-38",
            "0x1.34fc67fd31520p-53", "0x1.03c2d3faf0cc5p-70", "0x1.8e2e58528dccap-46",
            "0x1.1c96e49261089p-60", "0x1.bb0a88a8dea16p-87", "0x1.482c664c5c931p-53",
            "0x1.4200aa7addfb3p-90", "0x1.6a714dc87d4e7p-61", "0x1.29929c57809edp-47",
            "0x1.96fa82eff2cafp-51", "0x1.2d107c64e9260p-44", "0x1.05b833a5f13a9p-73",
            "0x1.609477487b417p-73",
        ]),
        ("0x1.37655fda03335p-28", [
            "0x1.61f20bf3134f5p-33", "0x1.71455ef4a45e0p-33", "0x1.7a48442f22cc0p-33",
            "0x1.89501d2b1f9cap-33", "0x1.99b9b7cc90884p-33", "0x1.9e5f0992cade4p-33",
            "0x1.99369077a56f6p-33", "0x1.8da52cf06348bp-33", "0x1.aa30eeca03049p-33",
            "0x1.8bef820af99ebp-32", "0x1.6c49805cbb240p-32", "0x1.32cd1fbf3f58ep-32",
            "0x1.ab3df55aaaf00p-32", "0x1.89358cbf01f8dp-32", "0x1.8d45f58d26402p-29",
            "0x1.d22a27f776d85p-30",
        ]),
        ("0x1.3f0700fa10897p-33", [
            "0x1.1265218e05f50p-38", "0x1.30273223145c9p-38", "0x1.561f1090e2485p-38",
            "0x1.7f9ec9b50becdp-38", "0x1.c0a8ff86aa964p-38", "0x1.fe73e12302601p-38",
            "0x1.24f48f208a96cp-37", "0x1.521c0447cd051p-37", "0x1.8c7f69af959bap-37",
            "0x1.0db5b6a754bbcp-36", "0x1.46079c998b738p-36", "0x1.92f884c7e8cbep-36",
            "0x1.175d6f59c7e79p-35", "0x1.6bd32c1a2306dp-35", "0x1.bbd280421a849p-34",
            "0x1.3f0700fa10897p-33",
        ]),
    ],
    "gauss8-bench400-pruned": [
        ("0x1.508fb997d3982p-25", [
            "0x1.46b63c9a2325cp-82", "0x1.0f9c991d170c2p-130", "0x1.e448d3bf3d633p-38",
            "0x1.34fc67fd31520p-53", "0x1.77c7e7a12b4aap-198", "0x1.8e2e58528dc08p-46",
            "0x1.1c96e49261089p-60", "0x1.776584f7ab205p-452", "0x1.482c664c5c931p-53",
            "0x1.d1d30451483e8p-999", "0x1.6a610f5f69c8dp-61", "0x1.29929c57809edp-47",
            "0x1.96fa82eff2cafp-51", "0x1.2cf4c68a1d508p-44", "0x1.b43dd10c8f4b3p-74",
            "0x1.609477487b417p-73",
        ]),
        ("0x1.37655fda03335p-28", [
            "0x1.61f20bf3134f5p-33", "0x1.71455ef4a45e0p-33", "0x1.7a48442f22cc0p-33",
            "0x1.89501d2b1f9cap-33", "0x1.99b9b7cc90884p-33", "0x1.9e5f0992cade4p-33",
            "0x1.99369077a56f6p-33", "0x1.8da52cf06348bp-33", "0x1.aa30eeca03049p-33",
            "0x1.8bef820af99ebp-32", "0x1.6c49805cbb240p-32", "0x1.32cd1fbf3f58ep-32",
            "0x1.ab3df55aaaf00p-32", "0x1.89358cbf01f8dp-32", "0x1.8d45f58d26402p-29",
            "0x1.d22a27f776d85p-30",
        ]),
        ("0x1.3f0700fa10897p-33", [
            "0x1.1265218e05f50p-38", "0x1.30273223145c9p-38", "0x1.561f1090e2485p-38",
            "0x1.7f9ec9b50becdp-38", "0x1.c0a8ff86aa964p-38", "0x1.fe73e12302601p-38",
            "0x1.24f48f208a96cp-37", "0x1.521c0447cd051p-37", "0x1.8c7f69af959bap-37",
            "0x1.0db5b6a754bbcp-36", "0x1.46079c998b738p-36", "0x1.92f884c7e8cbep-36",
            "0x1.175d6f59c7e79p-35", "0x1.6bd32c1a2306dp-35", "0x1.bbd280421a849p-34",
            "0x1.3f0700fa10897p-33",
        ]),
    ],
    "gauss8-wide1000-dense": [
        ("0x1.88cda4eb3e938p-25", [
            "0x1.6ec5c9ca1b517p-34", "0x1.e4fc8ef9d00e7p-71", "0x1.3efeb4a0a94f5p-61",
            "0x1.4608c7df89786p-252", "0x1.14a9cb91748b0p-684", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.bc7461ab641b7p-28", [
            "0x1.ff850b75a31cap-29", "0x1.1ffbf9c755854p-30", "0x1.12b82a30335fcp-29",
            "0x1.4e4ad7808e2d0p-30", "0x1.39db17ba2245cp-33", "0x1.61a00e14c0d45p-33",
            "0x1.025b19b2cb9c1p-37", "0x1.8af9954b8c578p-42", "0x1.202449514d753p-46",
            "0x1.b8077833afb27p-51", "0x1.40bb0088d3ca7p-55", "0x1.d367603a20aa9p-60",
            "0x1.648e541e955bdp-64", "0x1.03aee0b56d901p-68", "0x1.8c0a02010b227p-73",
            "0x1.2057361932d08p-77",
        ]),
        ("0x1.0d020309a889ap-33", [
            "0x1.31df1976f4f27p-35", "0x1.1834e2f67c2ccp-34", "0x1.e69cb8b148f36p-34",
            "0x1.f6a7360adc461p-34", "0x1.ed0c36d58f87ap-34", "0x1.0806072ef0286p-33",
            "0x1.d09ffc8687600p-34", "0x1.999fca0130ae9p-34", "0x1.687a14c4e8d66p-34",
            "0x1.3ddcf10757599p-34", "0x1.17c8121891802p-34", "0x1.ec930e8cb75ecp-35",
            "0x1.b2790a3ab8cedp-35", "0x1.7e882209b3834p-35", "0x1.5178525901a7ep-35",
            "0x1.292d1f7baff2ap-35",
        ]),
    ],
    "gauss8-wide1000-pruned": [
        ("0x1.88cda4eb3e938p-25", [
            "0x1.6ec5c9c2dcfeep-34", "0x1.0872d9d9e3f13p-108", "0x1.3efeb4a0a94f5p-61",
            "0x1.f51ebec53b356p-936", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.bc7461ab641b8p-28", [
            "0x1.ff850b75a31c7p-29", "0x1.1ffbf9c755853p-30", "0x1.12b82a30335f8p-29",
            "0x1.4e4ad7808e2c8p-30", "0x1.39db17ba2245dp-33", "0x1.61a00e14c0d46p-33",
            "0x1.025b19b2cb9c2p-37", "0x1.8af98a757f9c6p-42", "0x1.202229fafc01fp-46",
            "0x1.b755f77a58819p-51", "0x1.3b70f0fed0c49p-55", "0x1.27419395680aep-69",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.0d020309a889ap-33", [
            "0x1.31df1976f4f27p-35", "0x1.1834e2f67c2ccp-34", "0x1.e69cb8b148f36p-34",
            "0x1.f6a7360adc461p-34", "0x1.ed0c36d58f87ap-34", "0x1.0806072ef0286p-33",
            "0x1.d09ffc8687600p-34", "0x1.999fca0130ae9p-34", "0x1.687a14c4e8d66p-34",
            "0x1.3ddcf10757599p-34", "0x1.17c8121891802p-34", "0x1.ec930e8cb75ecp-35",
            "0x1.b2790a3ab8cedp-35", "0x1.7e882209b3834p-35", "0x1.5178525901a7ep-35",
            "0x1.292d1f7baff2ap-35",
        ]),
    ],
    "gauss8-bins1-dense": [
        ("0x1.d3fc0f33ca8b7p-137", [
            "0x1.d3fc0f33ca8b7p-137",
        ]),
        ("0x1.e153285805f8dp-22", [
            "0x1.e153285805f8dp-22",
        ]),
        ("0x1.4b34883affe69p-24", [
            "0x1.4b34883affe69p-24",
        ]),
    ],
    "gauss8-bins1-pruned": [
        ("0x1.d3fc0f33ca8b5p-137", [
            "0x1.d3fc0f33ca8b5p-137",
        ]),
        ("0x1.e153285805f8dp-22", [
            "0x1.e153285805f8dp-22",
        ]),
        ("0x1.4b34883affe69p-24", [
            "0x1.4b34883affe69p-24",
        ]),
    ],
    "gauss12-bench400-dense": [
        ("0x1.508fb997d39aep-25", [
            "0x1.0aa0592a0d425p-65", "0x1.54cdb92f348d3p-78", "0x1.e448d3bf3d62dp-38",
            "0x1.34fc67fd3151cp-53", "0x1.03c2d3faf0cbfp-70", "0x1.8e2e58528dcd0p-46",
            "0x1.1c96e49261081p-60", "0x1.bb0a88a8dea1cp-87", "0x1.482c664c5c922p-53",
            "0x1.4200aa7addf87p-90", "0x1.6a714dc87d4c9p-61", "0x1.29929c57809ebp-47",
            "0x1.96fa82eff2caap-51", "0x1.2d107c64e9273p-44", "0x1.05b833a5f14d8p-73",
            "0x1.609477487b418p-73",
        ]),
        ("0x1.37655fda03335p-28", [
            "0x1.61f20bf3134f4p-33", "0x1.71455ef4a45e0p-33", "0x1.7a48442f22cbfp-33",
            "0x1.89501d2b1f9c9p-33", "0x1.99b9b7cc90884p-33", "0x1.9e5f0992cade2p-33",
            "0x1.99369077a56f5p-33", "0x1.8da52cf06348bp-33", "0x1.aa30eeca03048p-33",
            "0x1.8bef820af99eap-32", "0x1.6c49805cbb240p-32", "0x1.32cd1fbf3f58dp-32",
            "0x1.ab3df55aaaf00p-32", "0x1.89358cbf01f8cp-32", "0x1.8d45f58d26402p-29",
            "0x1.d22a27f776d85p-30",
        ]),
        ("0x1.3f0700fa10896p-33", [
            "0x1.1265218e05f50p-38", "0x1.30273223145c9p-38", "0x1.561f1090e2485p-38",
            "0x1.7f9ec9b50becdp-38", "0x1.c0a8ff86aa964p-38", "0x1.fe73e12302600p-38",
            "0x1.24f48f208a96bp-37", "0x1.521c0447cd050p-37", "0x1.8c7f69af959b9p-37",
            "0x1.0db5b6a754bbcp-36", "0x1.46079c998b738p-36", "0x1.92f884c7e8cbdp-36",
            "0x1.175d6f59c7e79p-35", "0x1.6bd32c1a2306dp-35", "0x1.bbd280421a849p-34",
            "0x1.3f0700fa10896p-33",
        ]),
    ],
    "gauss12-bench400-pruned": [
        ("0x1.508fb997d39aep-25", [
            "0x1.46b63c9a2325ep-82", "0x1.0f9c991d170c7p-130", "0x1.e448d3bf3d62dp-38",
            "0x1.34fc67fd3151cp-53", "0x1.77c7e7a12b4a0p-198", "0x1.8e2e58528dc0ep-46",
            "0x1.1c96e49261081p-60", "0x1.776584f7ab205p-452", "0x1.482c664c5c922p-53",
            "0x1.d1d30451483acp-999", "0x1.6a610f5f69c6fp-61", "0x1.29929c57809ebp-47",
            "0x1.96fa82eff2caap-51", "0x1.2cf4c68a1d51bp-44", "0x1.b43dd10c8f6acp-74",
            "0x1.609477487b418p-73",
        ]),
        ("0x1.37655fda03335p-28", [
            "0x1.61f20bf3134f4p-33", "0x1.71455ef4a45e0p-33", "0x1.7a48442f22cbfp-33",
            "0x1.89501d2b1f9c9p-33", "0x1.99b9b7cc90884p-33", "0x1.9e5f0992cade2p-33",
            "0x1.99369077a56f5p-33", "0x1.8da52cf06348bp-33", "0x1.aa30eeca03048p-33",
            "0x1.8bef820af99eap-32", "0x1.6c49805cbb240p-32", "0x1.32cd1fbf3f58dp-32",
            "0x1.ab3df55aaaf00p-32", "0x1.89358cbf01f8cp-32", "0x1.8d45f58d26402p-29",
            "0x1.d22a27f776d85p-30",
        ]),
        ("0x1.3f0700fa10896p-33", [
            "0x1.1265218e05f50p-38", "0x1.30273223145c9p-38", "0x1.561f1090e2485p-38",
            "0x1.7f9ec9b50becdp-38", "0x1.c0a8ff86aa964p-38", "0x1.fe73e12302600p-38",
            "0x1.24f48f208a96bp-37", "0x1.521c0447cd050p-37", "0x1.8c7f69af959b9p-37",
            "0x1.0db5b6a754bbcp-36", "0x1.46079c998b738p-36", "0x1.92f884c7e8cbdp-36",
            "0x1.175d6f59c7e79p-35", "0x1.6bd32c1a2306dp-35", "0x1.bbd280421a849p-34",
            "0x1.3f0700fa10896p-33",
        ]),
    ],
    "gauss12-wide1000-dense": [
        ("0x1.88cda4eb3f302p-25", [
            "0x1.6ec5c9ca1b53bp-34", "0x1.e4fc8ef9d0cf5p-71", "0x1.3efeb4a0a9c7dp-61",
            "0x1.4608c7df89f3ap-252", "0x1.14a9cb917500ap-684", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.bc7461ab641b3p-28", [
            "0x1.ff850b75a31ccp-29", "0x1.1ffbf9c755854p-30", "0x1.12b82a30335f6p-29",
            "0x1.4e4ad7808e2c8p-30", "0x1.39db17ba2245ep-33", "0x1.61a00e14c0d43p-33",
            "0x1.025b19b2cb9c2p-37", "0x1.8af9954b8c577p-42", "0x1.202449514d752p-46",
            "0x1.b8077833afb2ap-51", "0x1.40bb0088d3ca3p-55", "0x1.d367603a20aa1p-60",
            "0x1.648e541e955bep-64", "0x1.03aee0b56d902p-68", "0x1.8c0a02010b226p-73",
            "0x1.2057361932d0ep-77",
        ]),
        ("0x1.0d020309a889bp-33", [
            "0x1.31df1976f4f2bp-35", "0x1.1834e2f67c2d3p-34", "0x1.e69cb8b148f38p-34",
            "0x1.f6a7360adc461p-34", "0x1.ed0c36d58f879p-34", "0x1.0806072ef0285p-33",
            "0x1.d09ffc8687603p-34", "0x1.999fca0130aebp-34", "0x1.687a14c4e8d62p-34",
            "0x1.3ddcf1075759cp-34", "0x1.17c8121891800p-34", "0x1.ec930e8cb75eap-35",
            "0x1.b2790a3ab8cefp-35", "0x1.7e882209b3832p-35", "0x1.5178525901a7dp-35",
            "0x1.292d1f7baff2cp-35",
        ]),
    ],
    "gauss12-wide1000-pruned": [
        ("0x1.88cda4eb3f302p-25", [
            "0x1.6ec5c9c2dd012p-34", "0x1.0872d9d9e45adp-108", "0x1.3efeb4a0a9c7dp-61",
            "0x1.f51ebec53bf29p-936", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.bc7461ab641b8p-28", [
            "0x1.ff850b75a31c5p-29", "0x1.1ffbf9c755852p-30", "0x1.12b82a30335f7p-29",
            "0x1.4e4ad7808e2c7p-30", "0x1.39db17ba2245dp-33", "0x1.61a00e14c0d43p-33",
            "0x1.025b19b2cb9c2p-37", "0x1.8af98a757f9c5p-42", "0x1.202229fafc01ep-46",
            "0x1.b755f77a5881cp-51", "0x1.3b70f0fed0c45p-55", "0x1.27419395680adp-69",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0",
        ]),
        ("0x1.0d020309a889bp-33", [
            "0x1.31df1976f4f2bp-35", "0x1.1834e2f67c2d3p-34", "0x1.e69cb8b148f38p-34",
            "0x1.f6a7360adc461p-34", "0x1.ed0c36d58f879p-34", "0x1.0806072ef0285p-33",
            "0x1.d09ffc8687603p-34", "0x1.999fca0130aebp-34", "0x1.687a14c4e8d62p-34",
            "0x1.3ddcf1075759cp-34", "0x1.17c8121891800p-34", "0x1.ec930e8cb75eap-35",
            "0x1.b2790a3ab8cefp-35", "0x1.7e882209b3832p-35", "0x1.5178525901a7dp-35",
            "0x1.292d1f7baff2cp-35",
        ]),
    ],
    "gauss12-bins1-dense": [
        ("0x1.034febfe9efbcp-73", [
            "0x1.034febfe9efbcp-73",
        ]),
        ("0x1.e6d94f1de9581p-22", [
            "0x1.e6d94f1de9581p-22",
        ]),
        ("0x1.4b31c8a16d394p-24", [
            "0x1.4b31c8a16d394p-24",
        ]),
    ],
    "gauss12-bins1-pruned": [
        ("0x1.034febfe9ef2bp-73", [
            "0x1.034febfe9ef2bp-73",
        ]),
        ("0x1.e6d94f1de9581p-22", [
            "0x1.e6d94f1de9581p-22",
        ]),
        ("0x1.4b31c8a16d394p-24", [
            "0x1.4b31c8a16d394p-24",
        ]),
    ],
}


@pytest.mark.parametrize("case", sorted(SIMPSON_CASES))
def test_simpson_keeps_its_bits(case):
    for cpus in HOSTS:
        with cut_like(cpus):
            got = [hashlib.sha1(v.tobytes()).hexdigest() for v in SIMPSON_CASES[case]()]
        assert got == SIMPSON_SHA1[case]


@pytest.mark.parametrize("case", RULE_CASES)
def test_rule_matches_the_parents_generic_path(case):
    for cpus in HOSTS:
        with cut_like(cpus):
            grid, spectra = rule_spectra(case)
        assert len(spectra) == len(GENERIC[case])
        for temperature_k, values, (peak_hex, bins_hex) in zip(
            TEMPERATURES, spectra, GENERIC[case]
        ):
            kt = GridPoint(temperature_k=temperature_k, ne_cm3=1.0).kt_kev
            budget = 1.0e-12 + 2.0 * np.finfo(float).eps * grid.edges[-1] / kt
            peak = float.fromhex(peak_hex)
            want = np.array([float.fromhex(h) for h in bins_hex])
            assert peak > 0.0
            assert abs(float(values.max()) - peak) <= budget * peak
            assert np.abs(sampled(values) - want).max() <= budget * peak
