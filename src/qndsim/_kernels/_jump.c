/* Compiled jump-chain kernel, loaded with ctypes by _ckernel.py.

   Same contract as _gillespie_py.run, and no physics: cum is the C-contiguous
   (cap, 6) cumulative rate table, row n holding r0, r0+r1, ..., r0+...+r5.
   Each event takes two uniforms from buf, the waiting time, then the
   channel, the first k with v < row[k], else 5. The call resumes from *bi,
   *n, *t and *k and returns 0 when the chain is done, 1 when the state left
   the table, 2 when fewer than two uniforms remain and 3 when the output
   arrays are full. The caller checks the table and n0 < cap. */
#include <math.h>
#include <stdint.h>

static const int64_t DELTAS[6] = {1, -1, 1, -1, 2, -2};

int qnd_jump(const double *cum, int64_t cap, double t_final,
             const double *buf, int64_t nbuf, int64_t *bi, int64_t *n,
             double *t, double *times, int64_t *states, uint8_t *chans,
             int64_t out_cap, int64_t *k)
{
    for (;;) {
        const double *row = cum + 6 * *n;
        double total = row[5], t_next, v;
        int ch = 0;
        if (total <= 0.0) return 0;
        if (nbuf - *bi < 2) return 2;
        if (*k == out_cap) return 3;
        t_next = *t + (-log(1.0 - buf[(*bi)++]) / total);
        if (t_next >= t_final) return 0;
        v = buf[(*bi)++] * total;
        while (ch < 5 && !(v < row[ch])) ch++;
        *n += DELTAS[ch];
        *t = t_next;
        times[*k] = t_next;
        states[*k] = *n;
        chans[(*k)++] = (uint8_t)ch;
        if (*n < 0 || *n >= cap) return 1;
    }
}
