"""C implementation of the kernels, compiled at first use via ctypes.

The only native provider of the ``jit`` backend: a single small C
translation unit, compiled once with the system compiler into a
content-addressed shared library under a per-user scratch directory,
and bound through :mod:`ctypes`.

Bit-exactness: the C code replays the NumPy oracle's expression trees
exactly -- same association, strict ``<``/``>`` first-occurrence tie
breaks -- and the build forbids the two compiler liberties that change
IEEE results (``-fno-fast-math`` against reassociation, and
``-ffp-contract=off`` against FMA contraction, which GCC otherwise
enables at any optimisation level).

``run_dynamics`` reaches the oracle's state by a different route: after
the first move's full sweep it refreshes each player incrementally,
recomputing only the adjusted costs of the six resources a move touches
(every other entry is bitwise unchanged) and updating the cached
per-menu first minima exactly.  Its kernel work per move is therefore
far below the ``I * |Z_i|`` candidate evaluations the engine counters
report, which count the reference dynamics' logical work.
"""

from __future__ import annotations

import ctypes
import getpass
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.kernels._adapt import wrap_raw_backend
from repro.kernels.interface import KernelBackend

__all__ = ["KernelBuildError", "find_compiler", "make_cc_backend"]


class KernelBuildError(RuntimeError):
    """Raised when the C kernels cannot be compiled or loaded."""


_SOURCE = r"""
#include <math.h>

/* Inverse golden ratios; sqrt(5.0) is correctly rounded at compile
 * time, so these bits match Python's (math.sqrt(5.0) - 1.0) / 2.0. */
#define INVPHI  ((sqrt(5.0) - 1.0) / 2.0)
#define INVPHI2 ((3.0 - sqrt(5.0)) / 2.0)

typedef long long i64;

/* Player i's current cost: (access + fronthaul) + compute. */
static double current_cost(
    i64 i, i64 I, const double *loads, const double *wcur,
    const i64 *cur_idx)
{
    double c0 = wcur[0 * I + i] * loads[cur_idx[0 * I + i]];
    double c1 = wcur[1 * I + i] * loads[cur_idx[1 * I + i]];
    double c2 = wcur[2 * I + i] * loads[cur_idx[2 * I + i]];
    return (c0 + c1) + c2;
}

/* One player's decomposed sweep: adjusted per-entry costs, per-menu
 * server argmin, per-bs total argmin, current cost.  Mirrors the NumPy
 * gap_sweep row for row (first-minimum tie breaks via strict <). */
static double sweep_player(
    i64 i, i64 I, i64 K, i64 N, i64 G,
    const double *loads, const double *p, const double *w,
    const double *sub, const double *wcur, const i64 *cur_idx,
    const i64 *menu_of_bs, const i64 *menu_off, const i64 *menu_srv,
    i64 *nidx, double *adj, double *t, double *bvals,
    i64 *kbest_out, double *cur_out)
{
    i64 W = 2 * K + N;
    const double *pi = p + i * W;
    const double *wi = w + i * W;
    const double *si = sub + i * W;
    for (i64 r = 0; r < W; ++r)
        adj[r] = ((loads[r] - si[r]) + pi[r]) * wi[r];
    for (i64 k = 0; k < K; ++k)
        t[k] = adj[k] + adj[K + k];
    for (i64 g = 0; g < G; ++g) {
        i64 off = menu_off[g];
        i64 cnt = menu_off[g + 1] - off;
        i64 bidx = 0;
        double bv = adj[2 * K + menu_srv[off]];
        for (i64 j = 1; j < cnt; ++j) {
            double v = adj[2 * K + menu_srv[off + j]];
            if (v < bv) { bv = v; bidx = j; }
        }
        nidx[g * I + i] = bidx;
        bvals[g] = bv;
    }
    i64 kb = 0;
    double best = t[0] + bvals[menu_of_bs[0]];
    for (i64 k = 1; k < K; ++k) {
        double v = t[k] + bvals[menu_of_bs[k]];
        if (v < best) { best = v; kb = k; }
    }
    *kbest_out = kb;
    *cur_out = current_cost(i, I, loads, wcur, cur_idx);
    return best;
}

void repro_gap_sweep(
    i64 I, i64 K, i64 N, i64 G,
    const double *loads, const double *p, const double *w,
    const double *sub, const double *wcur, const i64 *cur_idx,
    const i64 *menu_of_bs, const i64 *menu_off, const i64 *menu_srv,
    i64 *nidx, i64 *kbest,
    double *best_out, double *cur_out,
    double *adj, double *t, double *bvals)
{
    for (i64 i = 0; i < I; ++i)
        best_out[i] = sweep_player(i, I, K, N, G, loads, p, w, sub, wcur,
                                   cur_idx, menu_of_bs, menu_off, menu_srv,
                                   nidx, adj, t, bvals, &kbest[i], &cur_out[i]);
}

/* The incremental refresh's caches, resource-major (one row of I
 * players per resource) so each step streams whole rows: transposed
 * copies of p, w and sub, the access + fronthaul term t of every base
 * station, the compute term ac of every server, and the per-menu
 * minima bv (row G stays +inf).  Carved from one buffer of
 * (3W + K + N + G + 1) * I doubles. */
typedef struct {
    double *pT, *wT, *sT, *tT, *acT, *bvT;
} dyn_cache;

/* dst (W x I) = src (I x W) transposed, in blocks of 8 players. */
static void transpose(i64 I, i64 W, const double *src, double *dst)
{
    for (i64 i0 = 0; i0 < I; i0 += 8) {
        i64 i1 = (i0 + 8 < I) ? i0 + 8 : I;
        for (i64 r = 0; r < W; ++r)
            for (i64 i = i0; i < i1; ++i)
                dst[r * I + i] = src[i * W + r];
    }
}

/* t of base station k, every player: adj[k] + adj[K + k]. */
static void refresh_bs(i64 I, i64 K, i64 k, const double *loads,
                       const dyn_cache *c)
{
    double la = loads[k], lf = loads[K + k];
    const double *pa = c->pT + k * I, *wa = c->wT + k * I;
    const double *sa = c->sT + k * I;
    const double *pf = c->pT + (K + k) * I, *wf = c->wT + (K + k) * I;
    const double *sf = c->sT + (K + k) * I;
    double *t = c->tT + k * I;
    for (i64 i = 0; i < I; ++i)
        t[i] = ((la - sa[i]) + pa[i]) * wa[i]
             + ((lf - sf[i]) + pf[i]) * wf[i];
}

/* ac of server n, every player: adj[2K + n]. */
static void refresh_server(i64 I, i64 K, i64 n, const double *loads,
                           const dyn_cache *c)
{
    i64 r = 2 * K + n;
    double l = loads[r];
    const double *p = c->pT + r * I, *w = c->wT + r * I, *s = c->sT + r * I;
    double *ac = c->acT + n * I;
    for (i64 i = 0; i < I; ++i)
        ac[i] = ((l - s[i]) + p[i]) * w[i];
}

/* First minimum of menu h for every player (strict <, like np.argmin). */
static void scan_menu(i64 I, i64 h, const i64 *menu_off, const i64 *menu_srv,
                      const dyn_cache *c, i64 *nidx)
{
    i64 off = menu_off[h];
    i64 cnt = menu_off[h + 1] - off;
    double *bv = c->bvT + h * I;
    i64 *pos = nidx + h * I;
    const double *a0 = c->acT + menu_srv[off] * I;
    for (i64 i = 0; i < I; ++i) {
        bv[i] = a0[i];
        pos[i] = 0;
    }
    for (i64 j = 1; j < cnt; ++j) {
        const double *a = c->acT + menu_srv[off + j] * I;
        for (i64 i = 0; i < I; ++i)
            if (a[i] < bv[i]) { bv[i] = a[i]; pos[i] = j; }
    }
}

/* Exact first-minimum update of menu h for every player after the
 * entry at position j (server n) changed: keep, take, or -- when the
 * current minimum itself rose -- rescan that player's menu. */
static void menu_entry_changed(
    i64 I, i64 h, i64 j, i64 n, const i64 *menu_off, const i64 *menu_srv,
    const dyn_cache *c, i64 *nidx)
{
    const double *a = c->acT + n * I;
    double *bv = c->bvT + h * I;
    i64 *pos = nidx + h * I;
    for (i64 i = 0; i < I; ++i) {
        double v = a[i];
        if (j == pos[i]) {
            if (v <= bv[i]) {
                bv[i] = v;
            } else {
                i64 off = menu_off[h];
                i64 cnt = menu_off[h + 1] - off;
                i64 bidx = 0;
                double b = c->acT[menu_srv[off] * I + i];
                for (i64 q = 1; q < cnt; ++q) {
                    double x = c->acT[menu_srv[off + q] * I + i];
                    if (x < b) { b = x; bidx = q; }
                }
                bv[i] = b;
                pos[i] = bidx;
            }
        } else if (v < bv[i] || (v == bv[i] && j < pos[i])) {
            bv[i] = v;
            pos[i] = j;
        }
    }
}

/* Per-bs total argmin t[k] + bv[menu_of_bs[k]] of every player, its
 * gap under the slack eligibility test, and the next mover: the first
 * maximum gap (returned, its value in *gmax).  The strict-< first-min
 * scan is split into two vectorisable passes -- the minimum, then the
 * first k attaining it -- with best costs passing through gaps. */
static i64 refresh_gaps(
    i64 I, i64 K, double slack, const double *loads, const double *wcur,
    const i64 *cur_idx, const i64 *menu_of_bs, const dyn_cache *c,
    i64 *kbest, double *gaps, double *gmax)
{
    double one_minus = 1.0 - slack;
    const double *b0 = c->bvT + menu_of_bs[0] * I;
    for (i64 i = 0; i < I; ++i) {
        gaps[i] = c->tT[i] + b0[i];
        kbest[i] = 0;
    }
    for (i64 k = 1; k < K; ++k) {
        const double *t = c->tT + k * I;
        const double *b = c->bvT + menu_of_bs[k] * I;
        for (i64 i = 0; i < I; ++i) {
            double v = t[i] + b[i];
            gaps[i] = (v < gaps[i]) ? v : gaps[i];
        }
    }
    for (i64 k = K - 1; k >= 0; --k) {
        const double *t = c->tT + k * I;
        const double *b = c->bvT + menu_of_bs[k] * I;
        for (i64 i = 0; i < I; ++i)
            kbest[i] = (t[i] + b[i] == gaps[i]) ? k : kbest[i];
    }
    i64 pl = 0;
    for (i64 i = 0; i < I; ++i) {
        double best = gaps[i];
        double cur = current_cost(i, I, loads, wcur, cur_idx);
        if (slack == 0.0) {
            double gap = cur - best;
            gaps[i] = (gap <= 0.0) ? -INFINITY : gap;
        } else {
            gaps[i] = (one_minus * cur > best) ? (cur - best) : -INFINITY;
        }
        if (i == 0 || gaps[i] > *gmax) { *gmax = gaps[i]; pl = i; }
    }
    return pl;
}

/* The static server -> (menu, position) map: server n's entries are
 * soff[n] .. soff[n + 1] - 1, entry e holding the menu in sent[2e] and
 * the position in sent[2e + 1] (ascending menus per server). */
static void build_server_map(
    i64 N, i64 G, const i64 *menu_off, const i64 *menu_srv,
    i64 *soff, i64 *sent)
{
    for (i64 n = 0; n <= N; ++n)
        soff[n] = 0;
    for (i64 e = 0; e < menu_off[G]; ++e)
        ++soff[menu_srv[e] + 1];
    for (i64 n = 0; n < N; ++n)
        soff[n + 1] += soff[n];
    /* Fill with soff[n] as server n's cursor, then shift back. */
    for (i64 g = 0; g < G; ++g)
        for (i64 e = menu_off[g]; e < menu_off[g + 1]; ++e) {
            i64 slot = soff[menu_srv[e]]++;
            sent[2 * slot] = g;
            sent[2 * slot + 1] = e - menu_off[g];
        }
    for (i64 n = N; n > 0; --n)
        soff[n] = soff[n - 1];
    soff[0] = 0;
}

/* The fused best-response loop: argmax gap pick, apply the cached best
 * response, refresh every player's gap -- one iteration per move,
 * exactly the engine's hot Python loop.  The first move's refresh is a
 * full sweep that fills the caches (dyn: see dyn_cache; smap: the
 * server map).  Later refreshes are incremental and exact: a move from
 * (k_old, n_old) to (k_new, n_new) changes loads, and the mover's sub
 * row, only in the access and fronthaul columns of k_old and k_new and
 * the compute columns of n_old and n_new, so every other adjusted cost
 * is bitwise unchanged.  Only those t and ac rows are recomputed, the
 * menus holding n_old or n_new are updated by the first-minimum rule,
 * and the per-bs argmin is redone.  Returns the move count;
 * *converged_out is 1 when the gap argmax hit -inf within the budget. */
i64 repro_run_dynamics(
    i64 I, i64 K, i64 N, i64 G,
    double slack, i64 max_iter,
    double *loads, const double *p, const double *w,
    double *sub, double *wcur, i64 *cur_idx,
    const i64 *menu_of_bs, const i64 *menu_off, const i64 *menu_srv,
    i64 *nidx, i64 *kbest, double *gaps,
    const double *p_access, const double *p_front, const double *p_compute,
    const double *m_access, const double *m_front, const double *m_compute,
    i64 *bs_of, i64 *server_of,
    double *pa_cur, double *pc_cur,
    double *sq_access, double *sq_front, double *sq_compute,
    double *dyn, i64 *smap,
    i64 *converged_out)
{
    i64 W = 2 * K + N;
    i64 *soff = smap;
    i64 *sent = smap + N + 1;
    dyn_cache c;
    c.pT = dyn;
    c.wT = c.pT + W * I;
    c.sT = c.wT + W * I;
    c.tT = c.sT + W * I;
    c.acT = c.tT + K * I;
    c.bvT = c.acT + N * I;
    i64 moves = 0;
    i64 pl = 0;
    double g = gaps[0];
    for (i64 i = 1; i < I; ++i)
        if (gaps[i] > g) { g = gaps[i]; pl = i; }
    for (i64 it = 0; it < max_iter; ++it) {
        if (g == -INFINITY) { *converged_out = 1; return moves; }

        /* Apply the cached best response of player pl (same float op
         * order as OffloadingCongestionGame.move). */
        i64 k_new = kbest[pl];
        i64 grp = menu_of_bs[k_new];
        i64 n_new = menu_srv[menu_off[grp] + nidx[grp * I + pl]];
        i64 k_old = bs_of[pl];
        i64 n_old = server_of[pl];
        double *sp = sub + pl * W;
        {
            double pa_old = p_access[pl * K + k_old];
            double pa_new = p_access[pl * K + k_new];
            double pf = p_front[pl];
            double pc_old = p_compute[pl * N + n_old];
            double pc_new = p_compute[pl * N + n_new];

            loads[k_old] -= pa_old;
            loads[k_new] += pa_new;
            sq_access[k_old] -= pa_old * pa_old;
            sq_access[k_new] += pa_new * pa_new;

            loads[K + k_old] -= pf;
            loads[K + k_new] += pf;
            sq_front[k_old] -= pf * pf;
            sq_front[k_new] += pf * pf;

            loads[2 * K + n_old] -= pc_old;
            loads[2 * K + n_new] += pc_new;
            sq_compute[n_old] -= pc_old * pc_old;
            sq_compute[n_new] += pc_new * pc_new;

            bs_of[pl] = k_new;
            server_of[pl] = n_new;
            pa_cur[pl] = pa_new;
            pc_cur[pl] = pc_new;

            sp[k_old] = 0.0;
            sp[K + k_old] = 0.0;
            sp[2 * K + n_old] = 0.0;
            sp[k_new] = pa_new;
            sp[K + k_new] = pf;
            sp[2 * K + n_new] = pc_new;
            wcur[0 * I + pl] = m_access[k_new] * pa_new;
            wcur[1 * I + pl] = m_front[k_new] * pf;
            wcur[2 * I + pl] = m_compute[n_new] * pc_new;
            cur_idx[0 * I + pl] = k_new;
            cur_idx[1 * I + pl] = K + k_new;
            cur_idx[2 * I + pl] = 2 * K + n_new;
        }

        if (moves++ == 0) {
            /* Full sweep into the caches. */
            transpose(I, W, p, c.pT);
            transpose(I, W, w, c.wT);
            transpose(I, W, sub, c.sT);
            for (i64 k = 0; k < K; ++k)
                refresh_bs(I, K, k, loads, &c);
            for (i64 n = 0; n < N; ++n)
                refresh_server(I, K, n, loads, &c);
            for (i64 h = 0; h < G; ++h)
                scan_menu(I, h, menu_off, menu_srv, &c, nidx);
            for (i64 i = 0; i < I; ++i)
                c.bvT[G * I + i] = INFINITY;
            build_server_map(N, G, menu_off, menu_srv, soff, sent);
        } else {
            i64 cols[6] = {k_old, k_new, K + k_old, K + k_new,
                           2 * K + n_old, 2 * K + n_new};
            i64 srv[2] = {n_old, n_new};
            i64 nsrv = (n_new == n_old) ? 1 : 2;
            for (int q = 0; q < 6; ++q)
                c.sT[cols[q] * I + pl] = sp[cols[q]];
            refresh_bs(I, K, k_old, loads, &c);
            if (k_new != k_old)
                refresh_bs(I, K, k_new, loads, &c);
            for (i64 s = 0; s < nsrv; ++s)
                refresh_server(I, K, srv[s], loads, &c);
            for (i64 s = 0; s < nsrv; ++s)
                for (i64 e = soff[srv[s]]; e < soff[srv[s] + 1]; ++e)
                    menu_entry_changed(I, sent[2 * e], sent[2 * e + 1],
                                       srv[s], menu_off, menu_srv, &c, nidx);
        }
        pl = refresh_gaps(I, K, slack, loads, wcur, cur_idx, menu_of_bs, &c,
                          kbest, gaps, &g);
    }
    *converged_out = 0;
    return moves;
}

/* Per-lane golden-section search on the P2-B quadratic-energy
 * objective f(x) = ls/x + ep * (scale * (qa x^2 + qb x + qc)).
 * Replays minimize_convex_scalar lane by lane: same probe points, same
 * fc <= fd branch, same endpoint-included candidate comparison with
 * the first-minimum tie break, same evaluation counting. */
void repro_golden_quad(
    i64 n, const double *lo, const double *hi,
    double tol, i64 max_iter,
    const double *ls, const double *ep, const double *scale,
    const double *qa, const double *qb, const double *qc,
    double *x_out, i64 *evals_out)
{
    for (i64 i = 0; i < n; ++i) {
        double a = lo[i], b = hi[i];
        double L = ls[i], E = ep[i], S = scale[i];
        double A = qa[i], B = qb[i], C = qc[i];
        double width, threshold, c, d, fc, fd, xl, xh, fl, fh, bv, bx;
        i64 evals;
        if (b == a) {
            x_out[i] = a;
            evals_out[i] = 1;
            continue;
        }
        width = b - a;
        threshold = tol * (width > 1.0 ? width : 1.0);
        c = a + INVPHI2 * (b - a);
        d = a + INVPHI * (b - a);
        fc = L / c + E * (S * (A * c * c + B * c + C));
        fd = L / d + E * (S * (A * d * d + B * d + C));
        evals = 2;
        for (i64 it = 0; it < max_iter; ++it) {
            if ((b - a) <= threshold)
                break;
            if (fc <= fd) {
                b = d; d = c; fd = fc;
                c = a + INVPHI2 * (b - a);
                fc = L / c + E * (S * (A * c * c + B * c + C));
            } else {
                a = c; c = d; fc = fd;
                d = a + INVPHI * (b - a);
                fd = L / d + E * (S * (A * d * d + B * d + C));
            }
            ++evals;
        }
        xl = lo[i];
        xh = hi[i];
        fl = L / xl + E * (S * (A * xl * xl + B * xl + C));
        fh = L / xh + E * (S * (A * xh * xh + B * xh + C));
        evals += 2;
        bv = fl; bx = xl;
        if (fh < bv) { bv = fh; bx = xh; }
        if (fc < bv) { bv = fc; bx = c; }
        if (fd < bv) { bv = fd; bx = d; }
        x_out[i] = bx;
        evals_out[i] = evals;
    }
}
"""

#: Flags that pin IEEE semantics: no reassociation, no FMA contraction.
_CFLAGS = ["-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]


def find_compiler() -> str | None:
    """Path of a usable C compiler, or ``None``."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    try:
        user = getpass.getuser()
    except Exception:  # no passwd entry in minimal containers
        user = "shared"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{user}"


def _build_library() -> Path:
    """Compile (or reuse) the shared library; content-addressed cache."""
    compiler = find_compiler()
    if compiler is None:
        raise KernelBuildError("no C compiler found (tried cc, gcc, clang)")
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"reprokern-{digest}.so"
    if lib_path.exists():
        return lib_path
    cache.mkdir(parents=True, exist_ok=True)
    src_path = cache / f"reprokern-{digest}.c"
    src_path.write_text(_SOURCE)
    tmp_path = cache / f".reprokern-{digest}.{os.getpid()}.so"
    cmd = [compiler, *_CFLAGS, "-o", str(tmp_path), str(src_path), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise KernelBuildError(f"kernel compile failed to run: {exc}") from exc
    if proc.returncode != 0:
        raise KernelBuildError(
            f"kernel compile failed ({compiler}):\n{proc.stderr.strip()}"
        )
    os.replace(tmp_path, lib_path)  # atomic: concurrent builds converge
    return lib_path


# Arrays are passed as raw data pointers: ndpointer's per-call
# dtype/flags validation costs microseconds per argument, which
# dominates once the kernels themselves are sub-millisecond.  The
# adapter (_adapt._StateCache) validates dtype/contiguity once per
# array binding and caches the converted pointer.
_f64 = ctypes.c_void_p
_i64 = ctypes.c_void_p
_ll = ctypes.c_longlong
_dbl = ctypes.c_double


def _as_ptr(arr: np.ndarray) -> ctypes.c_void_p:
    """The array's data pointer, for the c_void_p argument slots."""
    return ctypes.c_void_p(arr.ctypes.data)


def _bind(lib: ctypes.CDLL) -> tuple:
    gap_sweep = lib.repro_gap_sweep
    gap_sweep.restype = None
    gap_sweep.argtypes = [
        _ll, _ll, _ll, _ll,
        _f64, _f64, _f64, _f64, _f64, _i64,
        _i64, _i64, _i64,
        _i64, _i64,
        _f64, _f64,
        _f64, _f64, _f64,
    ]
    run_dynamics = lib.repro_run_dynamics
    run_dynamics.restype = _ll
    run_dynamics.argtypes = [
        _ll, _ll, _ll, _ll,
        _dbl, _ll,
        _f64, _f64, _f64, _f64, _f64, _i64,
        _i64, _i64, _i64,
        _i64, _i64, _f64,
        _f64, _f64, _f64,
        _f64, _f64, _f64,
        _i64, _i64,
        _f64, _f64,
        _f64, _f64, _f64,
        _f64, _i64,
        _i64,
    ]
    golden_quad = lib.repro_golden_quad
    golden_quad.restype = None
    golden_quad.argtypes = [
        _ll, _f64, _f64,
        _dbl, _ll,
        _f64, _f64, _f64,
        _f64, _f64, _f64,
        _f64, _i64,
    ]
    return gap_sweep, run_dynamics, golden_quad


_backend: KernelBackend | None = None


def make_cc_backend() -> KernelBackend:
    """Compile, load, and wrap the C kernels (cached per process).

    Raises:
        KernelBuildError: When no compiler is available or the build or
            load fails; callers fall back to the NumPy kernels.
    """
    global _backend
    if _backend is not None:
        return _backend
    lib_path = _build_library()
    try:
        lib = ctypes.CDLL(str(lib_path))
        raw_gap_sweep, raw_run_dynamics, raw_golden_quad = _bind(lib)
    except OSError as exc:
        raise KernelBuildError(f"failed to load kernel library: {exc}") from exc
    _backend = wrap_raw_backend(
        "jit", "cc", raw_gap_sweep, raw_run_dynamics, raw_golden_quad,
        convert=_as_ptr,
    )
    return _backend
