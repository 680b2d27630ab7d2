/*
 * Program-order simulation loops behind repro.perf.kernels.
 *
 * Each sim_* function walks a trace's line addresses once, in program
 * order, and makes the decisions of its reference model's access()
 * (the oracle the differential tests compare against), writing its
 * counts to `out`.  Per-set state lives in flat arrays and the
 * hit-last bits or next-use positions in a hash map, all allocated per
 * call, so the functions keep no global state and are safe to call
 * from forked processes.  Each returns 0, or -1 when an allocation
 * fails.
 *
 * Each cache organisation has one loop body: direct_mapped() runs the
 * direct-mapped cache, dynamic exclusion (the paper's Figure 1 FSM) and
 * the two-level hierarchy, set_associative() runs LRU and
 * set-associative exclusion.  The entry points call their body with
 * constant arguments, and the bodies are always_inline, so each entry
 * point still compiles to its own loop with the unused branches gone.
 * The victim cache and Belady have loops of their own.
 *
 * repro/perf/kernels.py builds this file on first use with
 * `cc -O2 -shared -fPIC` and calls it through ctypes.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
typedef int64_t i64;

/* Per-line flags of the direct-mapped loop: FULL marks a filled set;
   STICKY and HIT_LAST are the dynamic-exclusion FSM's sticky bit and
   the resident word's hit-last copy (sticky_levels == 1). */
enum { FULL = 1, STICKY = 2, HIT_LAST = 4 };

#define NEVER INT64_MAX

/* -- line -> value map: open addressing, linear probing --------------- */

/* A slot is empty while its value is negative; every stored value (a
   hit-last bit, a trace position) is >= 0, so any key can be stored. */
typedef struct {
    u64 key;
    i64 val;
} slot_t;

typedef struct {
    slot_t *slots;
    u64 mask;
    u64 used;
    unsigned shift;
} map_t;

static u64 map_home(const map_t *m, u64 key) {
    return (key * 0x9E3779B97F4A7C15ull) >> m->shift;
}

static int map_init(map_t *m, unsigned bits) {
    size_t bytes = sizeof(slot_t) << bits;
    m->slots = malloc(bytes);
    if (!m->slots) return -1;
    memset(m->slots, 0xff, bytes);
    m->mask = ((u64)1 << bits) - 1;
    m->used = 0;
    m->shift = 64 - bits;
    return 0;
}

static slot_t *map_slot(const map_t *m, u64 key) {
    u64 i = map_home(m, key);
    while (m->slots[i].val >= 0 && m->slots[i].key != key) i = (i + 1) & m->mask;
    return &m->slots[i];
}

static i64 map_get(const map_t *m, u64 key, i64 missing) {
    const slot_t *s = map_slot(m, key);
    return s->val < 0 ? missing : s->val;
}

static int map_grow(map_t *m) {
    map_t bigger;
    if (map_init(&bigger, 64 - m->shift + 1)) return -1;
    for (u64 i = 0; i <= m->mask; i++)
        if (m->slots[i].val >= 0) *map_slot(&bigger, m->slots[i].key) = m->slots[i];
    bigger.used = m->used;
    free(m->slots);
    *m = bigger;
    return 0;
}

/* The slot of `key`, added (its value still negative, for the caller
   to set) if the key was absent; NULL if the table cannot grow. */
static slot_t *map_claim(map_t *m, u64 key) {
    slot_t *s = map_slot(m, key);
    if (s->val >= 0) return s;
    if (2 * (m->used + 1) > m->mask + 1) {
        if (map_grow(m)) return NULL;
        s = map_slot(m, key);
    }
    s->key = key;
    m->used++;
    return s;
}

/* Remove `key`, shifting later slots of its probe chain back. */
static void map_del(map_t *m, u64 key) {
    slot_t *s = map_slot(m, key);
    if (s->val < 0) return;
    u64 hole = (u64)(s - m->slots), j = hole;
    m->used--;
    for (;;) {
        j = (j + 1) & m->mask;
        if (m->slots[j].val < 0) break;
        /* Slot j may move into the hole if the hole lies on its probe
           path, between its home slot and j. */
        if (((j - map_home(m, m->slots[j].key)) & m->mask) >= ((j - hole) & m->mask)) {
            m->slots[hole] = m->slots[j];
            hole = j;
        }
    }
    m->slots[hole].val = -1;
}

/* -- small helpers ------------------------------------------------------ */

static i64 find(const u64 *tags, i64 count, u64 line) {
    for (i64 k = 0; k < count; k++)
        if (tags[k] == line) return k;
    return -1;
}

/* Close the gap at `at` in an array of `count` elements of `size` bytes. */
static void remove_at(void *array, size_t size, i64 count, i64 at) {
    char *base = array;
    memmove(base + at * size, base + (at + 1) * size, (size_t)(count - at - 1) * size);
}

/* Write back a hit-last copy to an ideal store (a map) or a hashed
   table; counts a write that changes the store's answer for the word. */
static int write_back(map_t *bits, unsigned char *table, u64 table_mask,
                      int missing, u64 word, int bit, i64 *flips) {
    if (table) {
        unsigned char *cell = &table[word & table_mask];
        *flips += *cell != bit;
        *cell = (unsigned char)bit;
        return 0;
    }
    slot_t *s = map_claim(bits, word);
    if (!s) return -1;
    *flips += (s->val < 0 ? missing : s->val) != bit;
    s->val = bit;
    return 0;
}

/* -- the direct-mapped loop ---------------------------------------------- */

/* repro.hierarchy.two_level.Strategy, in the order kernels.py passes. */
enum { DIRECT_MAPPED, IDEAL, ASSUME_HIT, ASSUME_MISS, HASHED };

typedef struct {
    u64 mask;
    u64 *tag;
    unsigned char *full;
} level_t;

static int holds(const level_t *l2, u64 line) {
    u64 set = line & l2->mask;
    return l2->full[set] && l2->tag[set] == line;
}

/* A direct-mapped L1 (with dynamic exclusion unless the strategy is
   DIRECT_MAPPED) over a direct-mapped L2 with the same line size, or
   over nothing when l2_sets is 0.  Hit-last bits live in a hashed table
   of table_bits bits (a power of two) keyed by the word's low bits when
   table_bits is not 0 (HASHED; words that share a bit may map to
   different sets: program order handles that), else in a per-word map
   (IDEAL) or with the L2 line (ASSUME_*), where they die when L2 drops
   the line; a word's cold bit is `missing`.  ASSUME_MISS and HASHED keep
   L2 exclusive: it takes L1 victims and bypassed words, never misses.
   Each entry point below is one call of this body with constant
   arguments; always_inline makes each its own specialised loop.
   out: L1 hits, cold misses, evictions, bypasses, hit-last loads,
   flips, then L2 hits, cold misses, evictions, bypasses. */
static inline __attribute__((always_inline)) int
direct_mapped(const u64 *lines, i64 n, u64 l1_sets, u64 l2_sets, int strategy,
              int missing, u64 table_bits, i64 *out) {
    int exclusion = strategy != DIRECT_MAPPED;
    int exclusive = strategy == ASSUME_MISS || strategy == HASHED;
    int l2_backed = strategy == ASSUME_HIT || strategy == ASSUME_MISS;
    u64 l1_mask = l1_sets - 1, table_mask = table_bits - 1;
    u64 *tag = calloc(l1_sets, sizeof *tag);
    unsigned char *state = calloc(l1_sets, 1);
    level_t l2 = {l2_sets - 1, NULL, NULL};
    unsigned char *table = NULL;
    map_t bits = {0};
    i64 hits = 0, cold = 0, evictions = 0, bypasses = 0, loads = 0, flips = 0;
    i64 l2_hits = 0, l2_cold = 0, l2_evictions = 0, l2_bypasses = 0;
    if (!tag || !state) goto fail;
    if (l2_sets && (!(l2.tag = calloc(l2_sets, sizeof(u64))) || !(l2.full = calloc(l2_sets, 1))))
        goto fail;
    if (exclusion && table_bits) {
        if (!(table = malloc(table_bits))) goto fail;
        memset(table, missing, table_bits);
    } else if (exclusion && map_init(&bits, 10)) {
        goto fail;
    }
    for (i64 i = 0; i < n; i++) {
        u64 line = lines[i], set = line & l1_mask;
        unsigned char s = state[set];
        if (tag[set] == line && s) {
            hits++;
            if (exclusion) state[set] = FULL | STICKY | HIT_LAST;
            continue;
        }
        int bypassed = 0, evicted = 0;
        u64 victim = tag[set];
        if (!s) {
            cold++;
        } else if (exclusion && s & STICKY &&
                   !(table ? table[line & table_mask]
                     : l2_backed && !holds(&l2, line) ? missing
                     : map_get(&bits, line, missing))) {
            /* Sticky resident, and the incoming word's bit is clear. */
            bypassed = 1;
            bypasses++;
            state[set] = s & ~STICKY;
            if (!l2_sets) continue; /* nothing left to do without an L2 */
        } else {
            /* Replace; assume-hit drops write-backs of words L2 lacks. */
            loads += exclusion && s & STICKY;
            if (exclusion && (strategy != ASSUME_HIT || holds(&l2, victim)) &&
                write_back(&bits, table, table_mask, missing, victim, (s & HIT_LAST) != 0, &flips))
                goto fail;
            evicted = 1;
            evictions++;
        }
        if (!bypassed) {
            tag[set] = line;
            /* A hit-last load over a sticky resident starts its copy at 0. */
            state[set] = exclusion && s & STICKY ? FULL | STICKY : FULL | STICKY | HIT_LAST;
        }
        if (!l2_sets) continue;
        u64 l2_set = line & l2.mask;
        if (holds(&l2, line)) {
            l2_hits++;
        } else if (exclusive) {
            l2_bypasses++;
        } else {
            if (l2.full[l2_set]) {
                l2_evictions++;
                if (l2_backed) map_del(&bits, l2.tag[l2_set]);
            } else {
                l2_cold++;
            }
            l2.full[l2_set] = 1;
            l2.tag[l2_set] = line;
        }
        if (!exclusive || !(bypassed || evicted)) continue;
        /* An exclusive L2 takes the bypassed word or the L1 victim. */
        u64 moved = bypassed ? line : victim;
        l2_set = moved & l2.mask;
        if (l2_backed && l2.full[l2_set] && l2.tag[l2_set] != moved)
            map_del(&bits, l2.tag[l2_set]);
        l2.full[l2_set] = 1;
        l2.tag[l2_set] = moved;
    }
    out[0] = hits, out[1] = cold, out[2] = evictions, out[3] = bypasses;
    out[4] = loads, out[5] = flips;
    out[6] = l2_hits, out[7] = l2_cold, out[8] = l2_evictions, out[9] = l2_bypasses;
    free(tag), free(state), free(l2.tag), free(l2.full), free(table), free(bits.slots);
    return 0;
fail:
    free(tag), free(state), free(l2.tag), free(l2.full), free(table), free(bits.slots);
    return -1;
}

int sim_direct_mapped(const u64 *lines, i64 n, u64 sets, i64 *out) {
    return direct_mapped(lines, n, sets, 0, DIRECT_MAPPED, 1, 0, out);
}

/* One sticky bit per line over the ideal store (table_bits 0) or a
   hashed table. */
int sim_dynamic_exclusion(const u64 *lines, i64 n, u64 sets, int missing,
                          u64 table_bits, i64 *out) {
    return direct_mapped(lines, n, sets, 0, IDEAL, missing, table_bits, out);
}

int sim_two_level(const u64 *lines, i64 n, u64 l1_sets, u64 l2_sets, int strategy,
                  u64 table_bits, i64 *out) {
    return direct_mapped(lines, n, l1_sets, l2_sets, strategy, strategy != ASSUME_MISS,
                         table_bits, out);
}

/* -- the set-associative loop -------------------------------------------- */

/* LRU sets of `ways` ways, each set's filled ways kept least recently
   used first.  With `exclusion`, each way has its own sticky bit and
   hit-last copy over an ideal store whose cold bit is `missing`, and
   the LRU way is the candidate victim; without it, plain LRU.
   out: hits, cold misses, evictions, bypasses. */
static inline __attribute__((always_inline)) int
set_associative(const u64 *lines, i64 n, u64 sets, i64 ways, int exclusion,
                int missing, i64 *out) {
    u64 mask = sets - 1;
    u64 *tags = calloc(sets * ways, sizeof *tags);
    unsigned char *states = exclusion ? calloc(sets * ways, 1) : NULL;
    i64 *filled = calloc(sets, sizeof *filled);
    map_t bits = {0};
    i64 hits = 0, cold = 0, evictions = 0, bypasses = 0, unused = 0;
    if (!tags || !filled || (exclusion && (!states || map_init(&bits, 10)))) goto fail;
    for (i64 i = 0; i < n; i++) {
        u64 line = lines[i], set = line & mask;
        u64 *tag = tags + set * ways;
        unsigned char *state = exclusion ? states + set * ways : NULL;
        unsigned char fresh = STICKY | HIT_LAST;
        i64 count = filled[set];
        i64 at = find(tag, count, line);
        if (at >= 0) {
            hits++;
            remove_at(tag, sizeof *tag, count, at);
            if (exclusion) remove_at(state, 1, count, at);
        } else if (count < ways) {
            cold++;
            filled[set] = ++count;
        } else {
            if (exclusion && state[0] & STICKY) {
                if (!map_get(&bits, line, missing)) {
                    bypasses++;
                    state[0] &= ~STICKY;
                    continue;
                }
                fresh = STICKY; /* hit-last gate: the copy starts clear */
            }
            if (exclusion &&
                write_back(&bits, NULL, 0, missing, tag[0], (state[0] & HIT_LAST) != 0, &unused))
                goto fail;
            evictions++;
            remove_at(tag, sizeof *tag, count, 0);
            if (exclusion) remove_at(state, 1, count, 0);
        }
        tag[count - 1] = line;
        if (exclusion) state[count - 1] = fresh;
    }
    out[0] = hits, out[1] = cold, out[2] = evictions, out[3] = bypasses;
    free(tags), free(states), free(filled), free(bits.slots);
    return 0;
fail:
    free(tags), free(states), free(filled), free(bits.slots);
    return -1;
}

int sim_lru(const u64 *lines, i64 n, u64 sets, i64 ways, i64 *out) {
    return set_associative(lines, n, sets, ways, 0, 1, out);
}

int sim_set_associative_exclusion(const u64 *lines, i64 n, u64 sets, i64 ways,
                                  int missing, i64 *out) {
    return set_associative(lines, n, sets, ways, 1, missing, out);
}

/* -- victim cache ----------------------------------------------------- */

/* Append an L1 victim, dropping the least recently inserted line of a
   full buffer.  The victim is never in the buffer already: a line is
   never in L1 and the buffer at once. */
static void buffer_insert(u64 *buffer, i64 *held, i64 entries, u64 line) {
    if (*held == entries) remove_at(buffer, sizeof *buffer, (*held)--, 0);
    buffer[(*held)++] = line;
}

/* A direct-mapped L1 and an `entries`-deep LRU buffer of its victims.
   out: hits, buffer hits, cold misses, evictions. */
int sim_victim(const u64 *lines, i64 n, u64 sets, i64 entries, i64 *out) {
    u64 mask = sets - 1;
    u64 *tag = calloc(sets, sizeof *tag);
    unsigned char *full = calloc(sets, 1);
    u64 *buffer = calloc((size_t)entries, sizeof *buffer); /* LRU first */
    i64 held = 0, hits = 0, buffer_hits = 0, cold = 0, evictions = 0;
    if (!tag || !full || !buffer) goto fail;
    for (i64 i = 0; i < n; i++) {
        u64 line = lines[i], set = line & mask;
        if (full[set] && tag[set] == line) {
            hits++;
            continue;
        }
        u64 resident = tag[set];
        int was_full = full[set];
        i64 at = find(buffer, held, line);
        tag[set] = line;
        full[set] = 1;
        if (at >= 0) {
            /* Swap: the buffered line moves into L1, the L1 line out. */
            hits++;
            buffer_hits++;
            remove_at(buffer, sizeof *buffer, held--, at);
        } else if (was_full) {
            evictions++;
        } else {
            cold++;
        }
        if (was_full) buffer_insert(buffer, &held, entries, resident);
    }
    out[0] = hits, out[1] = buffer_hits, out[2] = cold, out[3] = evictions;
    free(tag), free(full), free(buffer);
    return 0;
fail:
    free(tag), free(full), free(buffer);
    return -1;
}

/* -- Belady with bypass ------------------------------------------------- */

/* Keep the lines used soonest: on a miss in a full set, the way with
   the farthest next use (the first filled among equals) is replaced if
   the incoming line is used sooner, else the incoming line bypasses.
   Each set's ways are kept in fill order.
   out: hits, cold misses, evictions, bypasses. */
int sim_belady(const u64 *lines, i64 n, u64 sets, i64 ways, i64 *out) {
    u64 mask = sets - 1;
    i64 *next = malloc((size_t)(n > 0 ? n : 1) * sizeof *next);
    u64 *tags = calloc(sets * ways, sizeof *tags);
    i64 *uses = calloc(sets * ways, sizeof *uses);
    i64 *filled = calloc(sets, sizeof *filled);
    map_t seen = {0};
    i64 hits = 0, cold = 0, evictions = 0, bypasses = 0;
    if (!next || !tags || !uses || !filled || map_init(&seen, 10)) goto fail;
    /* next[i]: the position of the next reference to lines[i]. */
    for (i64 i = n - 1; i >= 0; i--) {
        slot_t *s = map_claim(&seen, lines[i]);
        if (!s) goto fail;
        next[i] = s->val < 0 ? NEVER : s->val;
        s->val = i;
    }
    free(seen.slots);
    seen.slots = NULL;
    for (i64 i = 0; i < n; i++) {
        u64 line = lines[i], set = line & mask;
        u64 *tag = tags + set * ways;
        i64 *use = uses + set * ways;
        i64 count = filled[set];
        i64 at = find(tag, count, line);
        if (at >= 0) {
            hits++;
            use[at] = next[i];
            continue;
        }
        if (count < ways) {
            cold++;
            filled[set] = ++count;
        } else {
            i64 victim = 0;
            for (i64 k = 1; k < count; k++)
                if (use[k] > use[victim]) victim = k;
            if (next[i] >= use[victim]) {
                bypasses++;
                continue;
            }
            evictions++;
            remove_at(tag, sizeof *tag, count, victim);
            remove_at(use, sizeof *use, count, victim);
        }
        tag[count - 1] = line;
        use[count - 1] = next[i];
    }
    out[0] = hits, out[1] = cold, out[2] = evictions, out[3] = bypasses;
    free(next), free(tags), free(uses), free(filled);
    return 0;
fail:
    free(next), free(tags), free(uses), free(filled), free(seen.slots);
    return -1;
}
