"""The accepted regime space, drawn once.

`settings()` draws the seeded configs that
`tests/test_jpaim.py::test_promises_hold_over_the_accepted_regimes` checks
and that `tools/drift.py` runs as its regime campaigns, so the test and the
tool cover one space.  Each regime is a tuple of `section.key` settings in
config-file form, `(("scenario.cells", "2"), ...)`: drift writes campaign
configs from them, and the tests parse them as a campaign does.  This
module reads numpy only, not the package, because drift's own process has
no package on its path.
"""

import math

import numpy as np

SEED = 20261019
COUNT = 100
# the desk-scale scenario of helpers.small_config, where antenna counts do not matter
SMALL = dict(cells=2, dl_users=1, ul_users=1, bs_tx_antennas=4, bs_rx_antennas=4,
             ue_tx_antennas=2, ue_rx_antennas=2, dl_streams=1, ul_streams=1)


def settings() -> list:
    """COUNT regimes drawn from SEED over the accepted space, on the SMALL
    scenario: 1-3 cells, 0-2 users per direction, 1-2 streams, every CSI
    error, converter and cancellation regime, and nu auto or a number."""
    rng = np.random.default_rng(SEED)
    regimes = []
    for _ in range(COUNT):
        cells, dl_users, ul_users = rng.integers(1, 4), rng.integers(0, 3), rng.integers(0, 3)
        streams = rng.integers(1, 3, size=2)
        scenario = dict(
            SMALL, cells=int(cells), dl_users=int(dl_users), ul_users=int(ul_users),
            dl_streams=int(streams[0]), ul_streams=int(streams[1]),
            csi_error_factor=float(rng.choice([0.0, 1e-12, 1e-2, 1.0])),
            adc_bits=float(rng.choice([4.0, 12.0, math.inf])),
            asic_db=float(rng.choice([0.0, 40.0, 120.0, math.inf])))
        nu = [None, 0.0, 1e-6, 1.0][rng.integers(4)]
        # repr round-trips every float, inf included, through the config parser
        regimes.append(tuple((f"scenario.{key}", repr(value)) for key, value in scenario.items())
                       + (("solver.nu", "auto" if nu is None else repr(nu)),))
    return regimes
