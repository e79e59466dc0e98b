/* Compiled Find-Best-Module sweep of the distributed solver.
 *
 * One call scores and commits a whole sub-sweep: for every listed local
 * vertex, in order, it aggregates the vertex's link flow per
 * neighbouring module, applies the section 3.4 min-label filter and
 * near-tie re-break, scores the map-equation delta (or the max-flow
 * rule), and commits the move into the rank's module table.  Because
 * each vertex is scored against the table as left by every earlier
 * commit, the committed sequence is the one a one-vertex-at-a-time
 * loop produces; no snapshot or certification is involved.
 *
 * Bitwise contract (see DESIGN.md section 3c):
 *   - per-module flows accumulate from 0.0 in CSR entry order, and the
 *     total x_u is summed over the aggregated flows in ascending module
 *     order, starting from the first (a cumulative sum);
 *   - every expression keeps the operand order and association of the
 *     Python reference, compiled with -ffp-contract=off (no fused
 *     multiply-add) and without -ffast-math;
 *   - plogp uses libm's log2, the function CPython's math.log2 calls.
 *
 * Table access goes through an open-addressing map built per call over
 * the table's k modules plus room for the modules first entered during
 * the call (at most one per listed vertex), so memory scales with the
 * rank's local modules and entries, never with the global id space.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ERR_UNKNOWN_MODULE (-1)
#define ERR_NO_MEMORY (-2)
#define ERR_OVERFLOW_FULL (-3)

typedef struct {
    /* sorted base columns, updated in place */
    int64_t *ids;
    double *exit;
    double *sum_p;
    int64_t *members;
    int64_t k;
    /* modules first entered during the call, in entry order */
    int64_t *ov_ids;
    double *ov_exit;
    double *ov_sum_p;
    int64_t *ov_members;
    int64_t n_ov; /* out: entries appended */
    int64_t ov_cap;
} table_t;

typedef struct {
    int64_t min_label;
    int64_t max_flow;
    double min_improvement;
    double tie_eps;
    const int64_t *bmods; /* sorted boundary module ids */
    int64_t n_bmods;
} rule_t;

typedef struct {
    const int64_t *indptr;
    const int64_t *nbr;
    const double *nbr_flow;
    const double *node_flow;
} csr_t;

/* ------------------------------------------------------------------ */
/* module id -> table row                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t key;
    int64_t row; /* table row + 1; 0 marks an empty slot */
} slot_t;

typedef struct {
    slot_t *slots;
    uint64_t mask;
    table_t *t;
} map_t;

static inline uint64_t hash_id(int64_t key)
{
    uint64_t x = (uint64_t)key * 0x9E3779B97F4A7C15ull;
    return x ^ (x >> 29);
}

static void map_put(map_t *m, int64_t key, int64_t row)
{
    uint64_t h = hash_id(key) & m->mask;
    while (m->slots[h].row)
        h = (h + 1) & m->mask;
    m->slots[h].key = key;
    m->slots[h].row = row + 1;
}

static inline int64_t map_get(const map_t *m, int64_t key)
{
    uint64_t h = hash_id(key) & m->mask;
    while (m->slots[h].row) {
        if (m->slots[h].key == key)
            return m->slots[h].row - 1;
        h = (h + 1) & m->mask;
    }
    return -1;
}

static int map_init(map_t *m, table_t *t, int64_t extra)
{
    uint64_t need = 2 * (uint64_t)(t->k + extra) + 2;
    uint64_t cap = 16;
    while (cap < need)
        cap <<= 1;
    m->slots = calloc(cap, sizeof(slot_t));
    if (!m->slots)
        return ERR_NO_MEMORY;
    m->mask = cap - 1;
    m->t = t;
    for (int64_t i = 0; i < t->k; i++)
        map_put(m, t->ids[i], i);
    return 0;
}

static inline double *col_q(table_t *t, int64_t row)
{
    return row < t->k ? &t->exit[row] : &t->ov_exit[row - t->k];
}

static inline double *col_p(table_t *t, int64_t row)
{
    return row < t->k ? &t->sum_p[row] : &t->ov_sum_p[row - t->k];
}

static inline int64_t *col_n(table_t *t, int64_t row)
{
    return row < t->k ? &t->members[row] : &t->ov_members[row - t->k];
}

static inline double get_q(const map_t *m, int64_t mod)
{
    int64_t row = map_get(m, mod);
    return row < 0 ? 0.0 : *col_q(m->t, row);
}

static inline double get_p(const map_t *m, int64_t mod)
{
    int64_t row = map_get(m, mod);
    return row < 0 ? 0.0 : *col_p(m->t, row);
}

/* Member count, 1 for a module the table does not know (a singleton). */
static inline int64_t get_n(const map_t *m, int64_t mod)
{
    int64_t row = map_get(m, mod);
    return row < 0 ? 1 : *col_n(m->t, row);
}

static int contains_sorted(const int64_t *a, int64_t n, int64_t key)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < n && a[lo] == key;
}

/* ------------------------------------------------------------------ */
/* scoring                                                             */
/* ------------------------------------------------------------------ */

static inline double plogp(double x)
{
    return x > 1e-300 ? x * log2(x) : 0.0;
}

typedef struct {
    int64_t target;
    double delta;
    double d_old;
    double d_new;
} decision_t;

/* Pick a move for a vertex in module `current` whose link flow into the
 * sorted unique modules uniq[0..n) is agg[0..n).  Returns 1 and fills
 * *out for a move, 0 to stay.  `deltas` and `cand` are scratch of n. */
static int score(const map_t *m, const rule_t *r, double sum_exit,
                 int64_t current, const int64_t *uniq, const double *agg,
                 int64_t n, double p_u, double x_u, double *deltas,
                 int64_t *cand, decision_t *out)
{
    double d_old = 0.0;
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (uniq[mid] < current)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < n && uniq[lo] == current)
        d_old = agg[lo];

    /* Section 3.4 minimum-label rule (after Lu et al.): the bouncing
     * failure is two vertices swapping communities in the same
     * synchronized round, which for strictly improving moves needs
     * both sides to be singletons.  Such a merge into a boundary
     * module is admitted only toward the smaller module id, so one
     * direction proceeds and the swap cannot; all other moves stay
     * unrestricted, so mass is not ratcheted into small-id modules. */
    int filter = r->min_label && r->n_bmods > 0 && get_n(m, current) == 1;
    int64_t nc = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t mod = uniq[i];
        if (mod == current)
            continue;
        if (filter && mod > current
            && contains_sorted(r->bmods, r->n_bmods, mod)
            && get_n(m, mod) == 1)
            continue;
        cand[nc++] = i;
    }
    if (nc == 0)
        return 0;

    int64_t best = 0;
    if (r->max_flow) {
        /* GossipMap-family rule (section 2.3): adopt the neighbouring
         * module receiving the most link flow if it strictly beats the
         * flow kept by the current module; no codelength is consulted.
         * Ties within 1e-15 break toward the smaller module id. */
        for (int64_t j = 1; j < nc; j++)
            if (agg[cand[j]] > agg[cand[best]])
                best = j;
        double best_flow = agg[cand[best]];
        if (best_flow <= d_old + 1e-15)
            return 0;
        for (int64_t j = 0; j < nc; j++)
            if (agg[cand[j]] >= best_flow - 1e-15) {
                best = j;
                break;
            }
        out->target = uniq[cand[best]];
        out->delta = 0.0;
        out->d_old = d_old;
        out->d_new = agg[cand[best]];
        return 1;
    }

    double q_old = get_q(m, current);
    double p_old = get_p(m, current);
    double q_old_after = q_old - x_u + 2.0 * d_old;
    double p_old_after = p_old - p_u;
    double base_old = -2.0 * (plogp(q_old_after) - plogp(q_old))
                      + plogp(q_old_after + p_old_after)
                      - plogp(q_old + p_old);
    for (int64_t j = 0; j < nc; j++) {
        int64_t mod = uniq[cand[j]];
        double d_new = agg[cand[j]];
        double q_new = get_q(m, mod);
        double p_new = get_p(m, mod);
        double q_new_after = q_new + x_u - 2.0 * d_new;
        double se_after = sum_exit + (q_old_after - q_old)
                          + (q_new_after - q_new);
        deltas[j] = plogp(se_after) - plogp(sum_exit)
                    + base_old
                    - 2.0 * (plogp(q_new_after) - plogp(q_new))
                    + plogp(q_new_after + p_new + p_u)
                    - plogp(q_new + p_new);
    }
    for (int64_t j = 1; j < nc; j++)
        if (deltas[j] < deltas[best])
            best = j;
    double best_delta = deltas[best];
    if (best_delta >= -r->min_improvement)
        return 0;
    if (r->min_label
        && contains_sorted(r->bmods, r->n_bmods, uniq[cand[best]])) {
        /* Near-ties break toward the minimum label too, so two ranks
         * scoring the same vertex pick the same winner. */
        for (int64_t j = 0; j < nc; j++)
            if (deltas[j] <= best_delta + r->tie_eps) {
                best = j;
                break;
            }
        best_delta = deltas[best];
    }
    out->target = uniq[cand[best]];
    out->delta = best_delta;
    out->d_old = d_old;
    out->d_new = agg[cand[best]];
    return 1;
}

/* Move one vertex from `old` to `new_mod` in the table (the primed
 * quantities of the delta above) and fold the exit-sum change. */
static int apply_move(map_t *m, int64_t old, int64_t new_mod,
                      const decision_t *dec, double p_u, double x_u,
                      double *sum_exit)
{
    table_t *t = m->t;
    int64_t io = map_get(m, old);
    if (io < 0)
        return ERR_UNKNOWN_MODULE;
    double q_old = *col_q(t, io);
    double p_old = *col_p(t, io);
    int64_t n_old = *col_n(t, io);
    int64_t in = map_get(m, new_mod);
    double q_new = 0.0, p_new = 0.0;
    int64_t n_new = 0;
    if (in >= 0) {
        q_new = *col_q(t, in);
        p_new = *col_p(t, in);
        n_new = *col_n(t, in);
    }
    if (in < 0 && t->n_ov >= t->ov_cap)
        return ERR_OVERFLOW_FULL;
    double q_old_after = q_old - x_u + 2.0 * dec->d_old;
    double q_new_after = q_new + x_u - 2.0 * dec->d_new;
    *col_q(t, io) = q_old_after;
    *col_p(t, io) = p_old - p_u;
    *col_n(t, io) = n_old - 1;
    if (in < 0) {
        in = t->k + t->n_ov;
        t->ov_ids[t->n_ov] = new_mod;
        t->n_ov++;
        map_put(m, new_mod, in);
    }
    *col_q(t, in) = q_new_after;
    *col_p(t, in) = p_new + p_u;
    *col_n(t, in) = n_new + 1;
    *sum_exit += (q_old_after - q_old) + (q_new_after - q_new);
    return 0;
}

/* ------------------------------------------------------------------ */
/* per-vertex aggregation                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t mod;
    double flow;
} pair_t;

/* Stable sort by module id, so equal modules keep CSR entry order. */
static void sort_pairs(pair_t *a, pair_t *tmp, int64_t n)
{
    if (n <= 24) {
        for (int64_t i = 1; i < n; i++) {
            pair_t x = a[i];
            int64_t j = i;
            while (j > 0 && a[j - 1].mod > x.mod) {
                a[j] = a[j - 1];
                j--;
            }
            a[j] = x;
        }
        return;
    }
    int64_t h = n / 2;
    sort_pairs(a, tmp, h);
    sort_pairs(a + h, tmp, n - h);
    int64_t i = 0, j = h, k = 0;
    while (i < h && j < n)
        tmp[k++] = a[j].mod < a[i].mod ? a[j++] : a[i++];
    while (i < h)
        tmp[k++] = a[i++];
    while (j < n)
        tmp[k++] = a[j++];
    memcpy(a, tmp, (size_t)n * sizeof(pair_t));
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */
/* ------------------------------------------------------------------ */

/* Score the local source rows order[0..n) in sequence.  With `commit`
 * each move is applied before the next row is scored; without it the
 * table and module_of are only read.  out_target[i] is the chosen
 * module of order[i] or -1, out_delta[i] its delta.  Returns the number
 * of moves, or a negative error code. */
int64_t repro_sweep(const csr_t *g, int64_t *module_of,
                    const int64_t *order, int64_t n, table_t *t,
                    const rule_t *r, double *sum_exit, int64_t commit,
                    int64_t *out_target, double *out_delta,
                    int64_t *out_work)
{
    int64_t maxdeg = 0, work = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t li = order[i];
        int64_t d = g->indptr[li + 1] - g->indptr[li];
        work += d;
        if (d > maxdeg)
            maxdeg = d;
    }
    *out_work = work;

    map_t m;
    int rc = map_init(&m, t, commit ? t->ov_cap : 0);
    if (rc)
        return rc;
    size_t cap = (size_t)(maxdeg > 0 ? maxdeg : 1);
    pair_t *pairs = malloc(2 * cap * sizeof(pair_t));
    int64_t *uniq = malloc(2 * cap * sizeof(int64_t));
    double *agg = malloc(2 * cap * sizeof(double));
    if (!pairs || !uniq || !agg) {
        free(pairs);
        free(uniq);
        free(agg);
        free(m.slots);
        return ERR_NO_MEMORY;
    }
    int64_t *cand = uniq + cap;
    double *deltas = agg + cap;

    int64_t moves = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t li = order[i];
        out_target[i] = -1;
        out_delta[i] = 0.0;
        int64_t d = 0;
        for (int64_t e = g->indptr[li]; e < g->indptr[li + 1]; e++) {
            int64_t v = g->nbr[e];
            if (v == li)
                continue;
            pairs[d].mod = module_of[v];
            pairs[d].flow = g->nbr_flow[e];
            d++;
        }
        if (d == 0)
            continue;
        sort_pairs(pairs, pairs + cap, d);
        int64_t nu = 0;
        for (int64_t j = 0; j < d; j++) {
            if (j == 0 || pairs[j].mod != pairs[j - 1].mod) {
                uniq[nu] = pairs[j].mod;
                agg[nu] = 0.0;
                nu++;
            }
            agg[nu - 1] += pairs[j].flow;
        }
        double x_u = agg[0];
        for (int64_t j = 1; j < nu; j++)
            x_u += agg[j];

        int64_t current = module_of[li];
        double p_u = g->node_flow[li];
        decision_t dec;
        if (!score(&m, r, *sum_exit, current, uniq, agg, nu, p_u, x_u,
                   deltas, cand, &dec))
            continue;
        out_target[i] = dec.target;
        out_delta[i] = dec.delta;
        if (commit) {
            rc = apply_move(&m, current, dec.target, &dec, p_u, x_u,
                            sum_exit);
            if (rc) {
                moves = rc;
                break;
            }
            module_of[li] = dec.target;
        }
        moves++;
    }
    free(pairs);
    free(uniq);
    free(agg);
    free(m.slots);
    return moves;
}

/* Score n vertices from pre-aggregated flows without committing:
 * vertex i sits in current[i] and sends flows[seg_ptr[i]..seg_ptr[i+1])
 * into the sorted unique modules mods[...].  Outputs as repro_sweep. */
int64_t repro_score_flows(table_t *t, const rule_t *r, double sum_exit,
                          const int64_t *seg_ptr, const int64_t *mods,
                          const double *flows, const int64_t *current,
                          const double *p_u, const double *x_u, int64_t n,
                          int64_t *out_target, double *out_delta)
{
    int64_t maxlen = 1;
    for (int64_t i = 0; i < n; i++)
        if (seg_ptr[i + 1] - seg_ptr[i] > maxlen)
            maxlen = seg_ptr[i + 1] - seg_ptr[i];
    map_t m;
    int rc = map_init(&m, t, 0);
    if (rc)
        return rc;
    double *deltas = malloc((size_t)maxlen * sizeof(double));
    int64_t *cand = malloc((size_t)maxlen * sizeof(int64_t));
    if (!deltas || !cand) {
        free(deltas);
        free(cand);
        free(m.slots);
        return ERR_NO_MEMORY;
    }
    int64_t found = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = seg_ptr[i];
        decision_t dec;
        out_target[i] = -1;
        out_delta[i] = 0.0;
        if (score(&m, r, sum_exit, current[i], mods + a, flows + a,
                  seg_ptr[i + 1] - a, p_u[i], x_u[i], deltas, cand, &dec)) {
            out_target[i] = dec.target;
            out_delta[i] = dec.delta;
            found++;
        }
    }
    free(deltas);
    free(cand);
    free(m.slots);
    return found;
}
