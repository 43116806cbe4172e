"""Pure-Python jump-chain kernel, the reference for the compiled one.

Both kernels read the same cumulative rate table and hold no physics:
row n holds r0, r0+r1, ..., r0+...+r5 for state n, so its last entry is
the total outflow. Each event takes two uniforms, the waiting time first,
then the channel, which is the first k with v < row[k], else 5. The
compiled kernel (_jump.c) must keep this draw order, this arithmetic and
this scan, so that a seed gives the same event list on either backend.
"""

from __future__ import annotations

import math

import numpy as np

# Phonon-number change of each channel, in the frozen channel order:
# thermal_up, thermal_down, opt_up1, opt_down1, opt_up2, opt_down2.
CHANNEL_DELTAS = (1, -1, 1, -1, 2, -2)

CHUNK = 4096

STATUS_OK = 0
STATUS_TRUNCATED = 1


def run(rng, n0: int, t_final: float, cum, n_cap: int):
    """Simulate one jump chain; returns (status, times, states, channels).

    rng: numpy Generator whose uniform stream drives the chain.
    cum: ``(n_cap, 6)`` cumulative rate table, row n as described above.
    Status 1 means the state left the table (reached n_cap, or went below
    0 on a malformed table) and the run is invalid.
    """
    rows = np.asarray(cum, dtype=np.float64).tolist()
    buf = rng.random(CHUNK).tolist()
    bi = 0
    t = 0.0
    n = int(n0)
    times: list[float] = []
    states: list[int] = []
    chans: list[int] = []
    status = STATUS_OK
    while True:
        row = rows[n]
        total = row[5]
        if total <= 0.0:
            break
        if bi == CHUNK:
            buf = rng.random(CHUNK).tolist()
            bi = 0
        u = buf[bi]
        bi += 1
        t_next = t + (-math.log(1.0 - u) / total)
        if t_next >= t_final:
            break
        if bi == CHUNK:
            buf = rng.random(CHUNK).tolist()
            bi = 0
        v = buf[bi] * total
        bi += 1
        ch = 0
        while ch < 5 and not v < row[ch]:
            ch += 1
        n = n + CHANNEL_DELTAS[ch]
        t = t_next
        times.append(t)
        states.append(n)
        chans.append(ch)
        if not 0 <= n < n_cap:
            status = STATUS_TRUNCATED
            break
    return (
        status,
        np.asarray(times, dtype=np.float64),
        np.asarray(states, dtype=np.int64),
        np.asarray(chans, dtype=np.uint8),
    )
