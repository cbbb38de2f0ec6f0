/* Count-only removal kernels for the two validators of the discovery loop,
 * partition refinement over sorted partitions, and the split behind an
 * append's class patches.
 *
 * Both counts walk a range of a CSR's equivalence classes in order and
 * stop after the first class that takes the count above `limit`, so each
 * returned count equals the class-by-class reference over the same
 * classes, partials included.  Each job (an OC pair, an OFD column) names
 * its own class range [lo, hi): a discovery batch gives every job all of
 * one context's classes, and incremental repair concatenates the patch
 * classes of many contexts into one CSR and gives each job its context's
 * slice.  Every entry returns -1 instead of reading or writing out of
 * bounds when an input does not fit.
 */
#include <stdint.h>
#include <string.h>

/* Classes are rows[offsets[c] .. offsets[c + 1]) for c < num_classes.
 * Returns 0 when every class lies inside the rows and every row indexes a
 * column of `column_length` entries, else -1. */
static int64_t check_classes(const int64_t *rows, int64_t num_rows,
                             const int64_t *offsets, int64_t num_classes,
                             int64_t column_length)
{
    if (num_classes < 0)
        return -1;
    for (int64_t c = 0; c < num_classes; c++)
        if (offsets[c] < 0 || offsets[c + 1] < offsets[c]
            || offsets[c + 1] > num_rows)
            return -1;
    for (int64_t i = 0; i < num_rows; i++)
        if (rows[i] < 0 || rows[i] >= column_length)
            return -1;
    return 0;
}

/* Job j covers classes ranges[2j] .. ranges[2j + 1] - 1.  Returns 0 when
 * every range lies inside the `num_classes` classes, else -1. */
static int64_t check_ranges(const int64_t *ranges, int64_t num_jobs,
                            int64_t num_classes)
{
    for (int64_t j = 0; j < num_jobs; j++)
        if (ranges[2 * j] < 0 || ranges[2 * j + 1] < ranges[2 * j]
            || ranges[2 * j + 1] > num_classes)
            return -1;
    return 0;
}

/* Classes up to this size are insertion-sorted, larger ones radix-sorted. */
#define INSERTION_MAX 32

static int bit_length(uint64_t x)
{
    return x ? 64 - __builtin_clzll(x) : 0;
}

static void insertion_sort(uint64_t *keys, int64_t n)
{
    for (int64_t i = 1; i < n; i++) {
        uint64_t x = keys[i];
        int64_t j = i;
        for (; j > 0 && keys[j - 1] > x; j--)
            keys[j] = keys[j - 1];
        keys[j] = x;
    }
}

/* 8-bit LSD radix sort of the low `bits` bits of keys[0 .. n), ping-ponging
 * with `other`; returns whichever of the two holds the sorted keys.  A pass
 * whose digit is the same in every key is skipped. */
static uint64_t *radix_sort(uint64_t *keys, uint64_t *other, int64_t n,
                            int bits)
{
    int64_t count[256];
    for (int shift = 0; shift < bits; shift += 8) {
        memset(count, 0, sizeof count);
        for (int64_t i = 0; i < n; i++)
            count[(keys[i] >> shift) & 0xFF]++;
        if (count[keys[0] >> shift & 0xFF] == n)
            continue;
        for (int64_t d = 0, sum = 0; d < 256; d++) {
            int64_t size = count[d];
            count[d] = sum;
            sum += size;
        }
        for (int64_t i = 0; i < n; i++)
            other[count[(keys[i] >> shift) & 0xFF]++] = keys[i];
        uint64_t *swap = keys;
        keys = other;
        other = swap;
    }
    return keys;
}

/* Removals of Algorithm 2 for one sorted class: n - LNDS of the values
 * keys[i] & mask.  A class whose values are non-decreasing removes nothing
 * (the screen); otherwise the patience DP runs in `tails`.  A value at or
 * above the last tail is appended; within a non-decreasing run the insert
 * position only moves right, so it is galloped for from the previous one. */
static int64_t class_removals(const uint64_t *keys, int64_t n, uint64_t mask,
                              uint64_t *tails)
{
    int64_t i = 1;
    while (i < n && (keys[i - 1] & mask) <= (keys[i] & mask))
        i++;
    if (i >= n)
        return 0;
    /* The non-decreasing prefix is its own tails array. */
    int64_t len = i, pos = i - 1;
    for (int64_t k = 0; k < i; k++)
        tails[k] = keys[k] & mask;
    uint64_t prev = tails[pos];
    for (; i < n; i++) {
        uint64_t x = keys[i] & mask;
        if (x >= tails[len - 1]) {
            tails[len] = x;
            pos = len++;
            prev = x;
            continue;
        }
        /* bisect_right: the first tail > x lies in [lo, hi]. */
        int64_t lo = 0, hi = pos;
        if (x >= prev) {
            /* tails[pos] == prev <= x < tails[len - 1] */
            lo = hi = pos + 1;
            for (int64_t step = 1; tails[hi] <= x; step <<= 1) {
                lo = hi + 1;
                hi = hi + step < len - 1 ? hi + step : len - 1;
            }
        }
        while (lo < hi) {
            int64_t mid = lo + ((hi - lo) >> 1);
            if (tails[mid] <= x)
                lo = mid + 1;
            else
                hi = mid;
        }
        tails[lo] = x;
        pos = lo;
        prev = x;
    }
    return n - len;
}

/* Algorithm 2 (AOC) for a batch of (A, B) rank-column pairs, each over its
 * range of classes, each class sorted on demand.
 *
 * Pair p is columns[pairs[2p]] as A and columns[pairs[2p + 1]] as B, each
 * an int32 rank column of `column_length` entries, counted over classes
 * ranges[2p] .. ranges[2p + 1] - 1.  Per pair, each class of its range in
 * order is gathered through `rows` into one key per row, (A, B) less the
 * class's minima, packed with bit widths from the class's own maxima; the
 * keys, unless already in order, are sorted, which orders the class by
 * [A ASC, B ASC], and the class adds length - LNDS(B) to the pair's count
 * (see class_removals).  A two-row class is decided without keys.  The
 * pair stops after the first class that takes its count above `limit`,
 * and counts[p] receives the count.
 *
 * `scratch` holds two slots per row of the longest class.  Returns 0, or
 * -1 when the classes do not fit (see check_classes), a range does not fit
 * them (see check_ranges), a pair names no column, a rank is negative or
 * the scratch is too short.
 */
int64_t oc_removal_batch(const int64_t *rows, int64_t num_rows,
                         const int64_t *offsets, int64_t num_classes,
                         const int32_t *const *columns, int64_t num_columns,
                         int64_t column_length,
                         const int64_t *pairs, int64_t num_pairs,
                         const int64_t *ranges,
                         uint64_t *scratch, int64_t num_scratch,
                         int64_t limit, int64_t *counts)
{
    if (check_classes(rows, num_rows, offsets, num_classes, column_length)
        || check_ranges(ranges, num_pairs, num_classes))
        return -1;
    for (int64_t p = 0; p < 2 * num_pairs; p++)
        if (pairs[p] < 0 || pairs[p] >= num_columns)
            return -1;
    for (int64_t p = 0; p < num_pairs; p++) {
        const int32_t *a = columns[pairs[2 * p]], *b = columns[pairs[2 * p + 1]];
        int64_t count = 0;
        for (int64_t c = ranges[2 * p]; c < ranges[2 * p + 1] && count <= limit;
             c++) {
            const int64_t *members = rows + offsets[c];
            int64_t n = offsets[c + 1] - offsets[c];
            if (n < 2)
                continue;
            if (n == 2) {
                /* One row goes iff A and B order the two oppositely. */
                int64_t x0 = a[members[0]], x1 = a[members[1]];
                int64_t y0 = b[members[0]], y1 = b[members[1]];
                if ((x0 | x1 | y0 | y1) < 0)
                    return -1;
                count += (x0 - x1) * (y0 - y1) < 0;
                continue;
            }
            if (n > num_scratch / 2)
                return -1;
            int32_t a_min = INT32_MAX, a_max = 0, b_min = INT32_MAX, b_max = 0;
            for (int64_t i = 0; i < n; i++) {
                int32_t x = a[members[i]], y = b[members[i]];
                if ((x | y) < 0)
                    return -1;
                a_min = x < a_min ? x : a_min;
                a_max = x > a_max ? x : a_max;
                b_min = y < b_min ? y : b_min;
                b_max = y > b_max ? y : b_max;
            }
            int b_bits = bit_length((uint64_t)(b_max - b_min));
            uint64_t *keys = scratch, *other = scratch + n;
            int sorted = 1;
            for (int64_t i = 0; i < n; i++) {
                keys[i] = (uint64_t)(a[members[i]] - a_min) << b_bits
                          | (uint64_t)(b[members[i]] - b_min);
                sorted &= i == 0 || keys[i - 1] <= keys[i];
            }
            if (!sorted) {
                if (n <= INSERTION_MAX)
                    insertion_sort(keys, n);
                else
                    keys = radix_sort(keys, other, n, b_bits + bit_length(
                        (uint64_t)(a_max - a_min)));
            }
            count += class_removals(keys, n, ((uint64_t)1 << b_bits) - 1,
                                    keys == scratch ? scratch + n : scratch);
        }
        counts[p] = count;
    }
    return 0;
}

/* TANE's g3 (AOFD) for a batch of RHS rank columns, each over its range of
 * classes: per class, every row not carrying the class's most frequent RHS
 * value is removed.
 *
 * Each of the `num_columns` int32 columns has `column_length` entries; the
 * classes are as in check_classes, and column k is counted over classes
 * ranges[2k] .. ranges[2k + 1] - 1.  `freq` is `num_freq` zeroed
 * counters, one per rank; each class counts its ranks there and zeroes them
 * again before the next, so `freq` is all zeroes on return, on the -1 path
 * too, and can be reused.  Column k stops after the first class that takes
 * its count above `limit`, and counts[k] receives the count.
 *
 * Returns 0, or -1 when the classes or a range do not fit (see
 * check_classes, check_ranges) or a rank is outside `freq`.
 */
int64_t ofd_removal_count(const int64_t *rows, int64_t num_rows,
                          const int64_t *offsets, int64_t num_classes,
                          const int32_t *const *columns, int64_t num_columns,
                          int64_t column_length, const int64_t *ranges,
                          int64_t *freq, int64_t num_freq,
                          int64_t limit, int64_t *counts)
{
    if (check_classes(rows, num_rows, offsets, num_classes, column_length)
        || check_ranges(ranges, num_columns, num_classes))
        return -1;
    for (int64_t k = 0; k < num_columns; k++) {
        const int32_t *ranks = columns[k];
        int64_t count = 0;
        for (int64_t c = ranges[2 * k]; c < ranges[2 * k + 1] && count <= limit;
             c++) {
            int64_t start = offsets[c], end = offsets[c + 1];
            int64_t best = 0, i;
            for (i = start; i < end; i++) {
                int64_t rank = ranks[rows[i]];
                if (rank < 0 || rank >= num_freq)
                    break;
                if (++freq[rank] > best)
                    best = freq[rank];
            }
            /* rows[start .. i) passed the check, so they index freq safely. */
            for (int64_t j = start; j < i; j++)
                freq[ranks[rows[j]]] = 0;
            if (i < end)
                return -1;
            count += (end - start) - best;
        }
        counts[k] = count;
    }
    return 0;
}

/* Sorted partitions: partition refinement in one pass over a cached row
 * order, without a sort.
 *
 * The parent partition's classes are rows[offsets[c] .. offsets[c + 1]) for
 * c < num_classes, over the `num_ranks` rows of the int32 rank column
 * `ranks`; `order` lists every row in (rank, row) order.  Walking `order`,
 * each parent row is appended to its class's bucket, so every bucket lists
 * its class in (rank, row) order.  Each bucket is then cut where the rank
 * changes, and the runs of two or more rows are the child classes, each
 * ascending; singletons are dropped.  The child classes are written to
 * out_rows / out_offsets in canonical order, by first row: the first row
 * of each run is marked with the run's number in the row-indexed `mark`,
 * and one walk over the rows emits the runs in row order.
 *
 * `mark` is scratch with one slot per row, `work` scratch with num_rows
 * (bucket) slots plus max(num_classes, num_rows) (cursor, then run) slots;
 * out_offsets needs one slot per child class plus one.  Returns the number
 * of child classes, their rows out_rows[0 .. out_offsets[k]), or -1 when
 * the classes do not fit (see check_classes), two classes share a row,
 * `order` is not a permutation of the rows, or an array is too short.
 */
#define VISITED(c) ((int32_t)(INT32_MIN + 1 + (c))) /* < -1 for c >= -1 */

int64_t refine_partition(const int64_t *rows, int64_t num_rows,
                         const int64_t *offsets, int64_t num_classes,
                         const int32_t *ranks, int64_t num_ranks,
                         const int32_t *order, int64_t num_order,
                         int32_t *mark, int64_t num_mark,
                         int32_t *work, int64_t num_work,
                         int64_t *out_rows, int64_t num_out_rows,
                         int64_t *out_offsets, int64_t num_out_offsets)
{
    if (num_ranks > INT32_MAX || num_classes > INT32_MAX - 2
        || num_order != num_ranks || num_mark < num_ranks
        || num_out_offsets < 1
        || check_classes(rows, num_rows, offsets, num_classes, num_ranks)
        || num_work < num_rows + (num_classes > num_rows ? num_classes
                                                         : num_rows))
        return -1;
    int32_t *bucket = work, *cursor = work + num_rows, *runs = cursor;
    /* mark[row] is the row's parent class, -1 for a row in none. */
    for (int64_t row = 0; row < num_ranks; row++)
        mark[row] = -1;
    for (int64_t c = 0; c < num_classes; c++) {
        cursor[c] = (int32_t)offsets[c];
        for (int64_t i = offsets[c]; i < offsets[c + 1]; i++) {
            if (mark[rows[i]] != -1)
                return -1; /* a row in two classes, or twice in one */
            mark[rows[i]] = (int32_t)c;
        }
    }
    /* A visited row is marked below -1, so a repeat is caught before it is
     * written: each class's bucket receives exactly its distinct members. */
    for (int64_t i = 0; i < num_order; i++) {
        int64_t row = order[i];
        if (row < 0 || row >= num_ranks || mark[row] < -1)
            return -1; /* out of range, or visited before */
        int32_t c = mark[row];
        mark[row] = VISITED(c);
        if (c >= 0)
            bucket[cursor[c]++] = (int32_t)row;
    }
    /* The cursors are spent; runs[2j], runs[2j + 1] are the start and length
     * of child class j in `bucket`, and only first rows are marked >= 0. */
    int64_t num_runs = 0;
    for (int64_t c = 0; c < num_classes; c++) {
        for (int64_t i = offsets[c], end = offsets[c + 1], j; i < end; i = j) {
            int32_t rank = ranks[bucket[i]];
            for (j = i + 1; j < end && ranks[bucket[j]] == rank; j++)
                ;
            if (j - i < 2)
                continue;
            mark[bucket[i]] = (int32_t)num_runs;
            runs[2 * num_runs] = (int32_t)i;
            runs[2 * num_runs + 1] = (int32_t)(j - i);
            num_runs++;
        }
    }
    if (num_out_offsets <= num_runs)
        return -1;
    int64_t total = 0, k = 0;
    out_offsets[0] = 0;
    for (int64_t row = 0; row < num_ranks; row++) {
        if (mark[row] < 0)
            continue;
        const int32_t *run = runs + 2 * (int64_t)mark[row];
        if (run[1] > num_out_rows - total)
            return -1;
        for (int32_t i = 0; i < run[1]; i++)
            out_rows[total + i] = bucket[run[0] + i];
        total += run[1];
        out_offsets[++k] = total;
    }
    return num_runs;
}

/* Appends: the touched groups of a context split by one more rank column.
 *
 * Group g is rows[offsets[g] .. offsets[g + 1]), rows ascending, and job j
 * splits groups ranges[2j] .. ranges[2j + 1] - 1.  Rows of one group with
 * one rank form a subgroup, in row order; a group's subgroups are taken by
 * first row, bucketed through `slot` (one entry per rank, -1 on entry and
 * on return) in two passes and no sort.  A subgroup of two rows or more
 * that holds a row >= `old` (an appended row: it is the last) is written
 * out, its rows to out_rows and its size, rows below `old` and job to
 * out_groups[3k .. 3k + 2].  `work` holds two slots per row of the longest
 * group.  Returns the number of subgroups written (`slot` is left dirty
 * only when it returns -1).
 */
int64_t split_groups(const int32_t *rows, int64_t num_rows,
                     const int64_t *offsets, int64_t num_groups,
                     const int64_t *ranges, int64_t num_jobs,
                     const int32_t *ranks, int64_t num_ranks, int64_t old,
                     int32_t *slot, int64_t num_slot,
                     int32_t *work, int64_t num_work,
                     int32_t *out_rows, int64_t num_out_rows,
                     int64_t *out_groups, int64_t num_out_groups)
{
    if (num_groups < 0 || check_ranges(ranges, num_jobs, num_groups))
        return -1;
    int64_t written = 0, found = 0;
    for (int64_t j = 0; j < num_jobs; j++) {
        for (int64_t g = ranges[2 * j]; g < ranges[2 * j + 1]; g++) {
            const int32_t *group = rows + offsets[g];
            int64_t size = offsets[g + 1] - offsets[g];
            if (offsets[g] < 0 || size < 0 || offsets[g + 1] > num_rows
                || 2 * size > num_work)
                return -1;
            int32_t *count = work, *bucket = work + size, distinct = 0;
            for (int64_t i = 0; i < size; i++) {
                if (group[i] < 0 || group[i] >= num_ranks
                    || ranks[group[i]] < 0 || ranks[group[i]] >= num_slot)
                    return -1;
                int32_t rank = ranks[group[i]];
                if (slot[rank] < 0) {
                    slot[rank] = distinct;
                    count[distinct++] = 0;
                }
                count[slot[rank]]++;
            }
            for (int32_t d = 0, start = 0; d < distinct; d++) {
                int32_t length = count[d];
                count[d] = start;
                start += length;
            }
            /* count[d] ends as subgroup d's end in the bucket. */
            for (int64_t i = 0; i < size; i++)
                bucket[count[slot[ranks[group[i]]]]++] = group[i];
            for (int64_t i = 0; i < size; i++)
                slot[ranks[group[i]]] = -1;
            for (int32_t d = 0, start = 0; d < distinct; start = count[d++]) {
                int32_t end = count[d];
                if (end - start < 2 || bucket[end - 1] < old)
                    continue;
                if (end - start > num_out_rows - written
                    || 3 * (found + 1) > num_out_groups)
                    return -1;
                int64_t below = 0;
                for (int32_t i = start; i < end; i++) {
                    below += bucket[i] < old;
                    out_rows[written++] = bucket[i];
                }
                out_groups[3 * found] = end - start;
                out_groups[3 * found + 1] = below;
                out_groups[3 * found + 2] = j;
                found++;
            }
        }
    }
    return found;
}
