# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of ``_core_py``.

Function-for-function mirror of the pure-Python kernels, including the
order of floating-point accumulation; both backends must produce
bit-identical traces and value tables.  See ``_core_py`` for the shared
conventions, including the early exit of the committing kernels once a
round tries no new edge.
"""

from cython.operator cimport dereference as deref, preincrement as princ
from libcpp.unordered_map cimport unordered_map
from libcpp.vector cimport vector

ctypedef unsigned long long u64

BACKEND = "compiled"

cdef extern from *:
    """
    static inline int rm_popcount(unsigned long long x) { return __builtin_popcountll(x); }
    static inline int rm_ctz(unsigned long long x) { return __builtin_ctzll(x); }
    """
    int rm_popcount(u64 x) nogil
    int rm_ctz(u64 x) nogil


cdef inline bint _lex_less(u64 a, u64 b) nogil:
    cdef u64 diff
    cdef int d
    if a == b:
        return False
    diff = a ^ b
    d = rm_ctz(diff)
    if (a >> d) & 1:
        return (b >> d) != 0
    return (a >> d) == 0


def lex_less(a, b):
    """Strict lexicographic order on the sorted edge-id tuples of two masks."""
    return bool(_lex_less(<u64> a, <u64> b))


def sm_trace(tables, real):
    """Stable-matching process: greedy by descending probability, committing."""
    cdef int m = tables.m
    cdef int n = tables.n
    cdef int rounds = len(tables.weights)
    cdef u64 rl = <u64> real
    cdef vector[double] p
    cdef vector[int] order
    cdef vector[u64] inc
    cdef vector[int] cap
    cdef vector[int] ev_off
    cdef vector[int] ev_flat
    cdef int i, t, oi, e, k, v
    cdef bint fits
    cdef u64 committed = 0, failed = 0, new, base, tried

    for i in range(m):
        p.push_back(tables.p[i])
        order.push_back(tables.order[i])
    for i in range(n):
        inc.push_back(tables.inc[i])
        cap.push_back(tables.cap[i])
    ev_off.push_back(0)
    for i in range(m):
        for v in tables.ev[i]:
            ev_flat.push_back(v)
        ev_off.push_back(ev_flat.size())

    sels = []
    for t in range(rounds):
        new = 0
        tried = committed | failed
        for oi in range(m):
            e = order[oi]
            if (tried >> e) & 1 or p[e] <= 0.0:
                continue
            base = committed | new
            fits = True
            for k in range(ev_off[e], ev_off[e + 1]):
                v = ev_flat[k]
                if rm_popcount(base & inc[v]) >= cap[v]:
                    fits = False
                    break
            if fits:
                new |= (<u64> 1) << e
        sels.append(committed | new)
        if new == 0:
            sels += sels[-1:] * (rounds - len(sels))
            break
        committed |= new & rl
        failed |= new & ~rl
    return sels


def gc_trace(tables, real):
    """Greedy-commit: per round, the max-expected-weight augmentation of the
    committed successes, tie-broken toward the lexicographically smallest set."""
    cdef int m = tables.m
    cdef int rounds = len(tables.weights)
    cdef u64 rl = <u64> real
    cdef u64 posp = <u64> tables.posp_mask
    cdef u64 all_mask = <u64> tables.all_mask
    cdef vector[double] p
    cdef vector[u64] feas
    cdef int i, t, e
    cdef u64 committed = 0, failed = 0, pool, mask, new, best_new, x
    cdef double w, best_w
    cdef size_t fi, nfeas

    for i in range(m):
        p.push_back(tables.p[i])
    for mask_obj in tables.feas:
        feas.push_back(<u64> mask_obj)
    nfeas = feas.size()

    sels = []
    for t in range(rounds):
        pool = all_mask & ~(committed | failed) & posp
        best_w = -1.0
        best_new = 0
        for fi in range(nfeas):
            mask = feas[fi]
            if (mask & committed) != committed:
                continue
            new = mask & ~committed
            if new & ~pool:
                continue
            w = 0.0
            x = new
            while x:
                e = rm_ctz(x)
                w += p[e]
                x &= x - 1
            if w > best_w or (w == best_w and _lex_less(new, best_new)):
                best_w = w
                best_new = new
        sels.append(committed | best_new)
        if best_new == 0:
            sels += sels[-1:] * (rounds - len(sels))
            break
        committed |= best_new & rl
        failed |= best_new & ~rl
    return sels


cdef class _Dp:
    cdef int m, rounds
    cdef bint commit, prune
    cdef u64 posp, all_mask
    cdef vector[double] p
    cdef vector[double] weights
    cdef vector[u64] feas
    cdef vector[u64] ext
    cdef unordered_map[u64, double] values
    cdef unordered_map[u64, u64] actions

    def __init__(self, tables, bint commit, bint prune):
        cdef int i
        self.m = tables.m
        self.rounds = len(tables.weights)
        self.commit = commit
        self.prune = prune
        self.posp = <u64> tables.posp_mask
        self.all_mask = <u64> tables.all_mask
        for i in range(self.m):
            self.p.push_back(tables.p[i])
        for w in tables.weights:
            self.weights.push_back(w)
        for mask_obj in tables.feas:
            self.feas.push_back(<u64> mask_obj)
        for mask_obj in tables.ext:
            self.ext.push_back(<u64> mask_obj)

    cdef double solve(self, u64 s, u64 f, int t) except? -1e300:
        cdef u64 key, avail, mask, unknown, x, low, r, best_a
        cdef double w_t, sp, v, pr, best_v
        cdef int e
        cdef size_t idx, nfeas
        cdef bint have
        if t > self.rounds:
            return 0.0
        key = ((<u64> t) << (2 * self.m)) | (s << self.m) | f
        it = self.values.find(key)
        if it != self.values.end():
            return deref(it).second
        avail = ((self.all_mask & ~(s | f)) & self.posp) | s
        w_t = self.weights[t - 1]
        best_v = -1.0
        best_a = 0
        have = False
        nfeas = self.feas.size()
        for idx in range(nfeas):
            mask = self.feas[idx]
            if mask & ~avail:
                continue
            if self.commit and (mask & s) != s:
                continue
            if self.prune and (self.ext[idx] & avail & ~mask):
                continue
            unknown = mask & ~s
            sp = 0.0
            x = unknown
            while x:
                e = rm_ctz(x)
                sp += self.p[e]
                x &= x - 1
            v = w_t * (rm_popcount(mask & s) + sp)
            r = unknown
            while True:
                pr = 1.0
                x = unknown
                while x:
                    e = rm_ctz(x)
                    low = x & (0 - x)
                    if r & low:
                        pr *= self.p[e]
                    else:
                        pr *= 1.0 - self.p[e]
                    x &= x - 1
                if pr > 0.0:
                    v += pr * self.solve(s | r, f | (unknown ^ r), t + 1)
                if r == 0:
                    break
                r = (r - 1) & unknown
            if (not have) or v > best_v or (v == best_v and _lex_less(mask, best_a)):
                best_v = v
                best_a = mask
                have = True
        if not have:
            raise ValueError("no feasible action; committed successes exceed capacity")
        self.values[key] = best_v
        self.actions[key] = best_a
        return best_v

    def run(self):
        cdef double root = self.solve(0, 0, 1)
        values = {}
        actions = {}
        cdef unordered_map[u64, double].iterator vit = self.values.begin()
        while vit != self.values.end():
            values[deref(vit).first] = deref(vit).second
            princ(vit)
        cdef unordered_map[u64, u64].iterator ait = self.actions.begin()
        while ait != self.actions.end():
            actions[deref(ait).first] = deref(ait).second
            princ(ait)
        return root, values, actions


def dp_solve(tables, commit, prune):
    """Expectimax over knowledge states; see the pure twin for semantics."""
    return _Dp(tables, commit, prune).run()
