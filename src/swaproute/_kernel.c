/* The search of swaproute.maxsat in C: the same branch and bound, step
 * for step, as the Python reference kernel `maxsat._search_python`, and
 * the passes over an instance's hard clauses that run at every instance
 * and every WCNF file: the arena check and the writer of the hard lines.
 *
 * Literals are in index form (MiniSat; Een & Sorensson, SAT 2003):
 * variable v is 2v and its negation 2v + 1.  Clauses of three literals or
 * more live in one arena of ints, each as [width, lbd, literals...], and
 * a clause is named by its offset there; binary clauses live only in the
 * per-literal implication lists.  A reason is 0 (a decision or a level-0
 * fact), an arena offset, or minus the other literal of a binary clause.
 *
 * Every list is visited, extended and cut in the same order as the Python
 * kernel's lists, so both take the same decisions and learn the same
 * clauses.  A solver runs one search, with one bound and one deadline,
 * over its own set-up of the clauses: the caller creates it with sr_new,
 * runs it with sr_run (which returns at each new incumbent and is called
 * again to go on), reads its counters, model and saved polarities with
 * sr_result and frees it with sr_free.  sr_run searches without the
 * interpreter lock, so the caller's other threads run meanwhile.  Every
 * 2,048 propagations it checks the deadline and, holding the lock, checks
 * the interpreter's pending signals, which stop the search at once when a
 * handler raises.
 *
 * The hard clauses are read where they lie: in the caller's Python list
 * of DIMACS literals, each clause closed by a 0 (`cnf.HardClauses.lits`),
 * one item at a time through the interpreter's own functions.  sr_init
 * hands over those functions' addresses once per process, so this file
 * needs no Python headers.
 *
 * Build: cc -O2 -shared -fPIC.  Only the C library is used.
 */

#define _GNU_SOURCE /* mremap */
#include <limits.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>

typedef long long i64;

#define CHECK_MASK 2047  /* deadline and signals every 2,048 propagations */
#define SETUP_MASK 65535 /* the set-up's deadline every 65,536 hard clause items */
#define MAP_INTS 262144  /* a clause arena of this many ints or more is a mapping of its own (mremap) */

enum { EV_DONE, EV_INCUMBENT, EV_INTERRUPTED, EV_NOMEM };
enum { ERR_NONE, ERR_EMPTY_CLAUSE, ERR_NOMEM, ERR_MALFORMED, ERR_EXPIRED };

/* The interpreter's functions (see sr_init).  A list's item is a borrowed
 * reference; PyLong_AsLong gives -1 with an exception set for an item
 * that is not an int or does not fit a long. */
static struct {
    void *(*save)(void);                  /* PyEval_SaveThread */
    void (*restore)(void *);              /* PyEval_RestoreThread */
    int (*check)(void);                   /* PyErr_CheckSignals */
    void *(*list_item)(void *, long);     /* PyList_GetItem */
    long (*as_long)(void *);              /* PyLong_AsLong */
    void *(*error)(void);                 /* PyErr_Occurred */
    void (*clear)(void);                  /* PyErr_Clear */
    void *(*latin1)(const char *, long, const char *); /* PyUnicode_DecodeLatin1 */
} py;

/* Take the interpreter's functions, in the order of `py`'s fields. */
void sr_init(void *const *api) {
    memcpy(&py, api, sizeof py);
}

/* Item i of a Python list as a long.  Returns 0 with *bad set, and the
 * interpreter's exception left set, when there is no such item or it is
 * not an int that fits. */
static long item(void *list, long i, int *bad) {
    void *x = py.list_item(list, i);
    long v = x ? py.as_long(x) : -1;
    *bad = v == -1 && (!x || py.error());
    return *bad ? 0 : v;
}

/* Check a list of `n` DIMACS items that should hold `count` hard clauses
 * over variables 1..nv: every item an int in -nv..nv, every clause closed
 * by a 0 and none empty, and `count` 0s.  Returns the largest variable
 * used (0 for no clause), or -1 when anything is wrong; the interpreter's
 * exception, if one was raised, is cleared, as the caller names the fault
 * itself. */
long sr_check(void *list, long n, long count, long nv) {
    long top = 0, zeros = 0;
    int open = 0, bad;
    for (long i = 0; i < n; i++) {
        long v = item(list, i, &bad);
        if (bad) {
            py.clear();
            return -1;
        }
        if (!v) {
            if (!open)
                return -1; /* an empty clause */
            open = 0;
            zeros++;
            continue;
        }
        if (v > nv || v < -nv)
            return -1;
        if (v < 0)
            v = -v;
        if (v > top)
            top = v;
        open = 1;
    }
    return open || zeros != count ? -1 : top;
}

/* Write v in decimal at p; returns the end. */
static char *put_long(char *p, long v) {
    static const char pairs[] = "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
                                "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
                                "8081828384858687888990919293949596979899";
    unsigned long u = v < 0 ? -(unsigned long)v : (unsigned long)v;
    if (v < 0)
        *p++ = '-';
    int n = 1;
    for (unsigned long x = u; x >= 10; x /= 10)
        n++;
    char *end = p + n;
    for (p = end; u >= 100; u /= 100) {
        p -= 2;
        memcpy(p, pairs + 2 * (u % 100), 2);
    }
    if (u >= 10) {
        p -= 2;
        memcpy(p, pairs + 2 * u, 2);
    } else
        *--p = (char)('0' + u);
    return end;
}

/* The WCNF text of items start..stop-1 of a checked list of hard clauses,
 * as a new str: each literal and a space, and each closing 0 as "0", a
 * newline and `prefix` (the next hard line's weight and a space).  `buf`
 * holds `cap` bytes.  Returns NULL when the text does not fit or an item
 * is not an int (with the interpreter's exception set for the latter). */
void *sr_wcnf(void *list, long start, long stop, char *buf, long cap, const char *prefix, long plen) {
    char *p = buf, *end = buf + cap - 24 - plen; /* room for one more item */
    int bad;
    for (long i = start; i < stop; i++) {
        if (p > end)
            return NULL;
        long v = item(list, i, &bad);
        if (bad)
            return NULL;
        if (v) {
            p = put_long(p, v);
            *p++ = ' ';
        } else {
            *p++ = '0';
            *p++ = '\n';
            memcpy(p, prefix, (size_t)plen);
            p += plen;
        }
    }
    return py.latin1(buf, p - buf, NULL);
}

typedef struct {
    int *d;
    int n, cap;
} Vec;

typedef struct {
    int nv, size;
    double until;                    /* the deadline, a monotonic time (infinity for none) */
    int reduce_growth;               /* how much longer each gap between reductions is than the one before */

    /* per literal */
    signed char *lv; /* 1 true, -1 false, 0 unassigned */
    int *lvl;        /* decision level, under the true literal */
    int *rsn;        /* reason, under the true literal */
    char *seen;      /* conflict analysis marks, under the true literal */
    char *mark;      /* literals already in a bound conflict */
    Vec *watches;    /* long clauses to visit when the key turns true */
    Vec *implied;    /* binary clauses: literals the key forces */
    int *socc_at;    /* soft clauses containing a literal: socc[socc_at[l] .. socc_at[l + 1]] */
    int *socc;

    /* per variable */
    int *preferred; /* a soft clause's variable: the literal it is decided to */
    int *saved;     /* the literal it last had */
    char *model;    /* the incumbent, model[v] for v = 1..nv */

    /* per decision level */
    unsigned *stamp;
    unsigned stamp_now;

    /* clauses */
    int *arena;
    long alen, acap, learned_at; /* learned clauses start at learned_at */

    /* soft clauses */
    int *soft_at; /* clause si is soft_lits[soft_at[si] .. soft_at[si + 1]] */
    int *soft_lits;
    i64 *weight;
    int *sfree;     /* non-false literals per soft clause */
    int *falsified; /* falsified soft clauses, in trail order */
    int nf;

    /* search state */
    int *trail, *trail_lim, *learnt, *kept, *confl;
    int tn, qhead, dl, nxt;
    int resume, exhausted, has_model;
    i64 lb, best, lower, next_reduce, gap;
    i64 decisions, conflicts, props;
} S;

static double now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

static int push(Vec *v, int x) {
    if (v->n == v->cap) {
        int cap = v->cap ? 2 * v->cap : 4;
        int *d = realloc(v->d, (size_t)cap * sizeof(int));
        if (!d)
            return -1;
        v->d = d;
        v->cap = cap;
    }
    v->d[v->n++] = x;
    return 0;
}

static int code(int lit) { return lit > 0 ? 2 * lit : -2 * lit + 1; }

/* The clause arena moved from `old_cap` ints to `cap`, contents kept.  A
 * timed search learns clauses until its deadline, so its arena's last
 * doublings depend on the host's speed; as a mapping that mremap grows
 * without a copy and munmap gives back, they leave no freed copy in the
 * heap, and peak memory does not depend on how far the search got. */
static int *arena_resize(int *old, long old_cap, long cap) {
#ifdef MREMAP_MAYMOVE
    if (cap >= MAP_INTS) {
        size_t was = (size_t)old_cap * sizeof(int), bytes = (size_t)cap * sizeof(int);
        void *a = old_cap >= MAP_INTS ? mremap(old, was, bytes, MREMAP_MAYMOVE)
                                      : mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (a == MAP_FAILED)
            return NULL;
        if (old_cap < MAP_INTS) {
            memcpy(a, old, was);
            free(old);
        }
        return a;
    }
#endif
    return realloc(old, (size_t)cap * sizeof(int));
}

static int reserve(S *s, long need) {
    if (s->alen + need <= s->acap)
        return 0;
    if (s->alen + need > INT_MAX)
        return -1;
    long cap = 2 * s->acap > s->alen + need ? 2 * s->acap : s->alen + need;
    if (cap > INT_MAX)
        cap = INT_MAX;
    int *a = arena_resize(s->arena, s->acap, cap);
    if (!a)
        return -1;
    s->arena = a;
    s->acap = cap;
    return 0;
}

void sr_free(S *s) {
    if (!s)
        return;
    if (s->watches)
        for (int l = 0; l < s->size; l++)
            free(s->watches[l].d);
    if (s->implied)
        for (int l = 0; l < s->size; l++)
            free(s->implied[l].d);
#ifdef MREMAP_MAYMOVE
    if (s->acap >= MAP_INTS) { /* a mapping (see arena_resize), so not freed below */
        munmap(s->arena, (size_t)s->acap * sizeof(int));
        s->arena = NULL;
    }
#endif
    void *blocks[] = {s->lv, s->lvl, s->rsn, s->seen, s->mark, s->watches, s->implied, s->socc_at,
                      s->socc, s->preferred, s->saved, s->model, s->stamp, s->arena, s->soft_at,
                      s->soft_lits, s->weight, s->sfree, s->falsified, s->trail, s->trail_lim, s->learnt,
                      s->kept, s->confl};
    for (size_t k = 0; k < sizeof blocks / sizeof *blocks; k++)
        free(blocks[k]);
    free(s);
}

/* Set up a solver over the first `nhard` items of `hard`, a Python list
 * of DIMACS hard clauses, each closed by a 0, and `nsoft` soft clauses
 * laid out the same way in an int array, with their weights.  It searches
 * below `upper` until the monotonic time `until` (infinity for none), and
 * stops as optimal at an incumbent of `lower` or less.  Variable v starts
 * with the saved value true when polarity[v] is non-zero, false
 * otherwise.  It reduces its learned clauses after `reduce_first`
 * conflicts, then after gaps `reduce_growth` longer each time.  The
 * set-up stops at `until` too.  Needs sr_init.  On failure returns NULL
 * with *err set. */
S *sr_new(int nv, void *hard, long nhard, const int *soft, const i64 *weight, int nsoft, i64 upper, double until,
          i64 lower, const char *polarity, int reduce_first, int reduce_growth, int *err) {
    *err = ERR_NOMEM;
    if (nv < 0 || nv > (INT_MAX - 2) / 2 || nsoft < 0)
        return NULL;
    Vec c = {0}; /* the hard clause being read, in index form */
    S *s = calloc(1, sizeof *s);
    if (!s)
        return NULL;
    int size = 2 * nv + 2;
    s->nv = nv;
    s->size = size;
    s->until = until;
    s->reduce_growth = reduce_growth;
    s->lv = calloc((size_t)size, 1);
    s->lvl = calloc((size_t)size, sizeof(int));
    s->rsn = calloc((size_t)size, sizeof(int));
    s->seen = calloc((size_t)size, 1);
    s->mark = calloc((size_t)size, 1);
    s->watches = calloc((size_t)size, sizeof(Vec));
    s->implied = calloc((size_t)size, sizeof(Vec));
    s->socc_at = calloc((size_t)size + 1, sizeof(int));
    s->preferred = calloc((size_t)nv + 1, sizeof(int));
    s->saved = malloc(((size_t)nv + 1) * sizeof(int));
    s->model = calloc((size_t)nv + 1, 1);
    s->stamp = calloc((size_t)nv + 2, sizeof(unsigned));
    s->trail = malloc(((size_t)nv + 1) * sizeof(int));
    s->trail_lim = malloc(((size_t)nv + 1) * sizeof(int));
    s->learnt = malloc(((size_t)nv + 1) * sizeof(int));
    s->kept = malloc(((size_t)nv + 1) * sizeof(int));
    s->confl = malloc(((size_t)size) * sizeof(int));
    s->soft_at = malloc(((size_t)nsoft + 1) * sizeof(int));
    s->weight = malloc(((size_t)nsoft + 1) * sizeof(i64));
    s->sfree = malloc(((size_t)nsoft + 1) * sizeof(int));
    s->falsified = malloc(((size_t)nsoft + 1) * sizeof(int));
    s->acap = 1024;
    s->arena = malloc((size_t)s->acap * sizeof(int));
    if (!s->lv || !s->lvl || !s->rsn || !s->seen || !s->mark || !s->watches ||
        !s->implied || !s->socc_at || !s->preferred || !s->saved || !s->model || !s->stamp || !s->trail ||
        !s->trail_lim || !s->learnt || !s->kept || !s->confl || !s->soft_at || !s->weight || !s->sfree ||
        !s->falsified || !s->arena)
        goto fail;
    s->alen = 1; /* offset 0 names no clause */

    /* Hard clauses, in order: units, asserted at level 0 as they are read,
     * binary implications and watched clauses. */
    for (long i = 0; i < nhard; i++) {
        int bad;
        if (!(i & SETUP_MASK) && now() >= until) {
            *err = ERR_EXPIRED;
            goto fail;
        }
        long v = item(hard, i, &bad);
        if (bad || v > nv || v < -nv) {
            if (bad)
                py.clear();
            *err = ERR_MALFORMED;
            goto fail;
        }
        if (v) {
            if (push(&c, code((int)v)))
                goto nomem;
            continue;
        }
        int w = c.n, a = c.d ? c.d[0] : 0;
        c.n = 0;
        if (w == 0) {
            *err = ERR_EMPTY_CLAUSE;
            goto fail;
        }
        if (w == 1) {
            if (!s->lv[a]) {
                s->lv[a] = 1;
                s->lv[a ^ 1] = -1;
                s->trail[s->tn++] = a;
            } else if (s->lv[a] == -1)
                s->exhausted = 1; /* unit clauses that contradict each other */
        } else if (w == 2) {
            int b = c.d[1];
            if (push(&s->implied[a ^ 1], b) || push(&s->implied[b ^ 1], a))
                goto nomem;
        } else {
            if (reserve(s, 2 + w))
                goto nomem;
            int cr = (int)s->alen;
            s->arena[cr] = w;
            s->arena[cr + 1] = 0;
            memcpy(s->arena + cr + 2, c.d, (size_t)w * sizeof(int));
            s->alen += 2 + w;
            if (push(&s->watches[a ^ 1], cr) || push(&s->watches[c.d[1] ^ 1], cr))
                goto nomem;
        }
    }
    if (c.n) {
        *err = ERR_MALFORMED; /* the last clause is not closed */
        goto fail;
    }
    s->learned_at = s->alen;

    /* Soft clauses: index-form literals, occurrence lists, preferred literals. */
    long nsl = 0;
    for (int si = 0, k = 0; si < nsoft; si++) {
        while (soft[k]) {
            if (soft[k] > nv || soft[k] < -nv) {
                *err = ERR_MALFORMED;
                goto fail;
            }
            s->socc_at[code(soft[k]) + 1]++;
            k++, nsl++;
        }
        k++;
    }
    s->soft_lits = malloc(((size_t)nsl + 1) * sizeof(int));
    s->socc = malloc(((size_t)nsl + 1) * sizeof(int));
    int *fill = calloc((size_t)size, sizeof(int));
    if (!s->soft_lits || !s->socc || !fill) {
        free(fill);
        goto nomem;
    }
    for (int l = 0; l < size; l++)
        s->socc_at[l + 1] += s->socc_at[l];
    for (int si = 0, k = 0, n = 0; si < nsoft; si++) {
        s->soft_at[si] = n;
        s->weight[si] = weight[si];
        for (; soft[k]; k++) {
            int lit = code(soft[k]);
            s->soft_lits[n++] = lit;
            s->socc[s->socc_at[lit] + fill[lit]++] = si;
            if (!(lit & 1) || !s->preferred[lit >> 1])
                s->preferred[lit >> 1] = lit;
        }
        k++;
        s->soft_at[si + 1] = n;
        s->sfree[si] = n - s->soft_at[si];
    }
    free(fill);
    for (int v = 0; v <= nv; v++)
        s->saved[v] = polarity[v] ? 2 * v : 2 * v + 1;
    s->nxt = 2;
    s->best = upper;
    s->lower = lower;
    s->gap = s->next_reduce = reduce_first;
    free(c.d);
    *err = ERR_NONE;
    return s;
nomem:
    *err = ERR_NOMEM;
fail:
    free(c.d);
    sr_free(s);
    return NULL;
}

typedef struct {
    int lbd, ref, index;
} Ranked;

static int worse_first(const void *x, const void *y) {
    const Ranked *a = x, *b = y;
    if (a->lbd != b->lbd)
        return a->lbd > b->lbd ? -1 : 1;
    return a->ref < b->ref ? -1 : a->ref > b->ref;
}

static int find(const int *refs, int n, int ref) {
    int lo = 0, hi = n - 1;
    while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (refs[mid] < ref)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Delete the worse half of the learned long clauses, ranked by LBD
 * (highest first), then oldest first, except those with LBD <= 2 and
 * those that are the reason for an assigned literal; then compact the
 * arena.  The arena holds learned clauses in learning order, so an
 * offset ranks age. */
static int reduce(S *s) {
    int m = 0;
    for (long cr = s->learned_at; cr < s->alen; cr += 2 + s->arena[cr])
        m++;
    if (m < 2)
        return 0;
    Ranked *rank = malloc((size_t)m * sizeof *rank);
    int *refs = malloc((size_t)m * sizeof(int));
    int *moved = malloc((size_t)m * sizeof(int));
    char *dead = calloc((size_t)m, 1);
    if (!rank || !refs || !moved || !dead) {
        free(rank), free(refs), free(moved), free(dead);
        return -1;
    }
    int *arena = s->arena;
    int i = 0;
    for (long cr = s->learned_at; cr < s->alen; cr += 2 + arena[cr], i++) {
        refs[i] = (int)cr;
        rank[i] = (Ranked){arena[cr + 1], (int)cr, i};
    }
    qsort(rank, (size_t)m, sizeof *rank, worse_first);
    for (i = 0; i < m / 2; i++) {
        int cr = rank[i].ref, c0 = arena[cr + 2];
        if (rank[i].lbd > 2 && !(s->lv[c0] == 1 && s->rsn[c0] == cr))
            dead[rank[i].index] = 1;
    }
    long at = s->learned_at;
    for (i = 0; i < m; i++) {
        moved[i] = (int)at;
        if (!dead[i])
            at += 2 + arena[refs[i]];
    }
    for (int l = 0; l < s->size; l++) {
        Vec *ws = &s->watches[l];
        int j = 0;
        for (int k = 0; k < ws->n; k++) {
            int cr = ws->d[k];
            if (cr >= s->learned_at) {
                int x = find(refs, m, cr);
                if (dead[x])
                    continue;
                cr = moved[x];
            }
            ws->d[j++] = cr;
        }
        ws->n = j;
    }
    for (int k = 0; k < s->tn; k++) {
        int q = s->trail[k];
        if (s->rsn[q] >= s->learned_at)
            s->rsn[q] = moved[find(refs, m, s->rsn[q])];
    }
    for (i = 0; i < m; i++)
        if (!dead[i] && moved[i] != refs[i])
            memmove(arena + moved[i], arena + refs[i], (size_t)(2 + arena[refs[i]]) * sizeof(int));
    s->alen = at;
    free(rank), free(refs), free(moved), free(dead);
    return 0;
}

/* The search; *ts is the saved interpreter state while the lock is let go, NULL while it is held. */
static int run(S *s, void **ts) {
    signed char *lv = s->lv;
    int *lvl = s->lvl, *rsn = s->rsn, *saved = s->saved, *preferred = s->preferred;
    char *seen = s->seen, *mark = s->mark;
    Vec *watches = s->watches, *implied = s->implied;
    int *socc_at = s->socc_at, *socc = s->socc, *sfree = s->sfree, *falsified = s->falsified;
    int *soft_at = s->soft_at, *soft_lits = s->soft_lits;
    i64 *weight = s->weight;
    int *trail = s->trail, *trail_lim = s->trail_lim, *learnt = s->learnt, *kept = s->kept;
    const int size = s->size;
    int pair[2];
    int tn, qhead, dl, nxt, nf;
    i64 lb, best, props;
    const double until = s->until;
    int *cl; /* the clause being analysed, and its width */
    int cn;

#define LOAD() (tn = s->tn, qhead = s->qhead, dl = s->dl, nxt = s->nxt, nf = s->nf, lb = s->lb, \
                best = s->best, props = s->props)
#define STORE() (s->tn = tn, s->qhead = qhead, s->dl = dl, s->nxt = nxt, s->nf = nf, s->lb = lb, \
                 s->best = best, s->props = props)
#define ASSIGN(lit, reason) (lv[lit] = 1, lv[(lit) ^ 1] = -1, lvl[lit] = dl, rsn[lit] = (reason), \
                             trail[tn++] = (lit))

    if (s->resume) {
        s->resume = 0;
        LOAD();
        goto after_leaf;
    }
    if (s->exhausted || (until < INFINITY && now() >= until))
        return EV_DONE;
    LOAD();
    for (;;) {
        /* -- unit propagation: binary implications, then watched clauses */
        cl = NULL;
        cn = 0;
        while (qhead < tn) {
            int p = trail[qhead++];
            if (!(++props & CHECK_MASK)) {
                py.restore(*ts);
                *ts = NULL;
                if (py.check()) {
                    STORE();
                    return EV_INTERRUPTED;
                }
                *ts = py.save();
                if (until < INFINITY && now() > until)
                    goto done;
            }
            int np = p ^ 1;
            for (int k = socc_at[np]; k < socc_at[np + 1]; k++) {
                int si = socc[k];
                if (!--sfree[si]) {
                    lb += weight[si];
                    falsified[nf++] = si;
                }
            }
            Vec *im = &implied[p];
            for (int k = 0; k < im->n; k++) {
                int q = im->d[k];
                signed char x = lv[q];
                if (x == 1)
                    continue;
                if (x == -1) {
                    pair[0] = q;
                    pair[1] = np;
                    cl = pair;
                    cn = 2;
                    break;
                }
                ASSIGN(q, -np);
            }
            if (cl)
                break;
            int *arena = s->arena;
            Vec *ws = &watches[p];
            int *w = ws->d;
            int i = 0, j = 0, end = ws->n;
            while (i < end) {
                int cr = w[i++];
                int *c = arena + cr + 2;
                int f = c[0];
                if (f == np) {
                    f = c[1];
                    if (lv[f] == 1) {
                        w[j++] = cr;
                        continue;
                    }
                    c[0] = f;
                    c[1] = np;
                } else if (lv[f] == 1) {
                    w[j++] = cr;
                    continue;
                }
                int width = arena[cr], k;
                for (k = 2; k < width; k++) {
                    int q = c[k];
                    if (lv[q] != -1) {
                        c[1] = q;
                        c[k] = np;
                        if (push(&watches[q ^ 1], cr)) {
                            STORE();
                            return EV_NOMEM; /* the caller frees the solver */
                        }
                        break;
                    }
                }
                if (k < width)
                    continue;
                w[j++] = cr;
                if (lv[f]) {
                    cl = c;
                    cn = width;
                    break;
                }
                ASSIGN(f, cr);
            }
            if (j < i)
                memmove(w + j, w + i, (size_t)(end - i) * sizeof(int));
            ws->n = j + (end - i);
            if (cl)
                break;
        }

        if (!cl) {
            if (lb < best) {
                int v = nxt;
                while (v < size && lv[v])
                    v += 2;
                nxt = v;
                if (v < size) {
                    s->decisions++;
                    trail_lim[dl++] = tn;
                    int u = preferred[v >> 1] ? preferred[v >> 1] : saved[v >> 1];
                    ASSIGN(u, 0);
                    continue;
                }
                best = lb; /* leaf: every variable assigned */
                for (int x = 1; x <= s->nv; x++)
                    s->model[x] = lv[2 * x] == 1;
                s->has_model = 1;
                s->resume = 1;
                STORE();
                return EV_INCUMBENT;
            after_leaf:
                if (best <= s->lower) {
                    s->exhausted = 1;
                    break;
                }
            }
            /* Bound conflict: the earliest-falsified soft clauses whose
             * weight reaches the incumbent's cannot all stay falsified. */
            i64 acc = 0;
            cn = 0;
            cl = s->confl;
            for (int k = 0; k < nf; k++) {
                int si = falsified[k];
                for (int m = soft_at[si]; m < soft_at[si + 1]; m++) {
                    int q = soft_lits[m];
                    if (!mark[q]) {
                        mark[q] = 1;
                        cl[cn++] = q;
                    }
                }
                acc += weight[si];
                if (acc >= best)
                    break;
            }
            for (int k = 0; k < cn; k++)
                mark[cl[k]] = 0;
        }

        /* -- conflict analysis at the clause's highest level */
        s->conflicts++;
        int top = 0;
        for (int k = 0; k < cn; k++)
            if (lvl[cl[k] ^ 1] > top)
                top = lvl[cl[k] ^ 1];
        if (!top) {
            s->exhausted = 1;
            break;
        }
        int ln = 1, path = 0, p = 0;
        int idx = top == dl ? tn - 1 : trail_lim[top] - 1; /* the last literal of level top */
        for (;;) {
            for (int k = 0; k < cn; k++) {
                int q = cl[k];
                if (q == p)
                    continue;
                int t = q ^ 1;
                if (!seen[t] && lvl[t]) {
                    seen[t] = 1;
                    if (lvl[t] == top)
                        path++;
                    else
                        learnt[ln++] = q;
                }
            }
            while (!seen[trail[idx]])
                idx--;
            p = trail[idx--];
            seen[p] = 0;
            if (!--path)
                break;
            int r = rsn[p];
            if (r > 0) {
                cl = s->arena + r + 2;
                cn = s->arena[r];
            } else {
                pair[0] = p;
                pair[1] = -r;
                cl = pair;
                cn = r ? 2 : 0;
            }
        }
        int u = p ^ 1;

        /* Local minimization: drop a literal whose reason is covered by
         * the rest of the clause (or by level-0 facts). */
        kept[0] = u;
        int kn = 1;
        for (int k = 1; k < ln; k++) {
            int q = learnt[k], t = q ^ 1, r = rsn[t];
            if (!r) {
                kept[kn++] = q;
                continue;
            }
            int *rl = pair, rn = 2;
            if (r > 0) {
                rl = s->arena + r + 2;
                rn = s->arena[r];
            } else {
                pair[0] = t;
                pair[1] = -r;
            }
            for (int m = 0; m < rn; m++) {
                int x = rl[m];
                if (x != t && !seen[x ^ 1] && lvl[x ^ 1]) {
                    kept[kn++] = q;
                    break;
                }
            }
        }
        for (int k = 1; k < ln; k++)
            seen[learnt[k] ^ 1] = 0;

        /* Jump to the clause's second-highest level and assert the first
         * UIP there; count the clause's levels (its LBD) on the way. */
        int level = 0, at = 0, lbd = 1;
        s->stamp_now++;
        for (int k = 1; k < kn; k++) {
            int x = lvl[kept[k] ^ 1];
            if (s->stamp[x] != s->stamp_now) {
                s->stamp[x] = s->stamp_now;
                lbd++;
            }
            if (x > level) {
                level = x;
                at = k;
            }
        }
        if (at) {
            int x = kept[1];
            kept[1] = kept[at];
            kept[at] = x;
        }
        int lim = trail_lim[level];
        nxt = trail[lim] & ~1; /* the first decision undone */
        for (int k = lim; k < qhead; k++) {
            int nq = trail[k] ^ 1;
            for (int m = socc_at[nq]; m < socc_at[nq + 1]; m++) {
                int si = socc[m];
                if (!sfree[si]) {
                    lb -= weight[si];
                    nf--;
                }
                sfree[si]++;
            }
        }
        for (int k = lim; k < tn; k++) {
            int q = trail[k];
            lv[q] = lv[q ^ 1] = 0;
            saved[q >> 1] = q;
        }
        tn = qhead = lim;
        dl = level;
        int r = 0;
        if (kn == 2) {
            int b = kept[1];
            if (push(&implied[u ^ 1], b) || push(&implied[b ^ 1], u)) {
                STORE();
                return EV_NOMEM;
            }
            r = -b;
        } else if (kn > 2) {
            if (reserve(s, 2 + kn) || push(&watches[u ^ 1], (int)s->alen) ||
                push(&watches[kept[1] ^ 1], (int)s->alen)) {
                STORE();
                return EV_NOMEM;
            }
            r = (int)s->alen;
            s->arena[r] = kn;
            s->arena[r + 1] = lbd;
            memcpy(s->arena + r + 2, kept, (size_t)kn * sizeof(int));
            s->alen += 2 + kn;
        }
        ASSIGN(u, r);
        if (s->conflicts >= s->next_reduce) {
            s->tn = tn;
            if (reduce(s)) {
                STORE();
                return EV_NOMEM;
            }
            s->gap += s->reduce_growth;
            s->next_reduce += s->gap;
        }
    }
done:
    STORE();
    return EV_DONE;
#undef LOAD
#undef STORE
#undef ASSIGN
}

int sr_run(S *s) {
    void *ts = py.save();
    int event = run(s, &ts);
    if (ts)
        py.restore(ts);
    return event;
}

/* out: decisions, conflicts, propagations, incumbent weight, exhausted,
 * has a model.  With a model and a buffer of nv + 1 bytes, the model's
 * values go to `model`; with a buffer of nv + 1 bytes, the saved values go
 * to `polarity`, 1 for true (both with index 0 unused, and 0). */
void sr_result(const S *s, i64 *out, char *model, char *polarity) {
    i64 vals[] = {s->decisions, s->conflicts, s->props, s->best, s->exhausted, s->has_model};
    memcpy(out, vals, sizeof vals);
    if (model && s->has_model)
        memcpy(model, s->model, (size_t)s->nv + 1);
    if (polarity)
        for (int v = 0; v <= s->nv; v++)
            polarity[v] = !(s->saved[v] & 1);
}
