/* Count-only removal kernels for the two validators of the discovery loop,
 * and the scatter that feeds them and partition refinement sorted rows.
 *
 * Both counts walk a context's equivalence classes in order and stop after
 * the first class that takes the count above `limit`, so the returned count
 * equals the class-by-class reference, partials included.  Every entry
 * returns -1 instead of reading or writing out of bounds when an input does
 * not fit.
 */
#include <stdint.h>

/* Algorithm 2 (AOC): fused screen + LNDS.
 *
 * `values` holds the B projection of every equivalence class, each class
 * already ordered by [A ASC, B ASC]; class c is values[offsets[c] ..
 * offsets[c + 1]).  A class whose projection is non-decreasing removes
 * nothing (the screen); any other class adds `length - LNDS(length)`,
 * computed with the patience DP into `tails`.
 *
 * Returns -1 when the offsets do not describe `num_values` values or a
 * class is longer than `num_tails`.
 */
int64_t oc_removal_count(const int64_t *values, int64_t num_values,
                         const int64_t *offsets, int64_t num_classes,
                         int64_t *tails, int64_t num_tails, int64_t limit)
{
    int64_t count = 0;
    if (num_classes < 0)
        return -1;
    for (int64_t c = 0; c < num_classes; c++) {
        int64_t start = offsets[c], n = offsets[c + 1] - start;
        if (start < 0 || n < 0 || start + n > num_values)
            return -1;
        const int64_t *v = values + start;
        int64_t i = 1;
        while (i < n && v[i - 1] <= v[i])
            i++;
        if (i < n) {
            /* The non-decreasing prefix v[0 .. i) is its own tails array. */
            if (n > num_tails)
                return -1;
            int64_t len = i;
            for (int64_t k = 0; k < i; k++)
                tails[k] = v[k];
            for (; i < n; i++) {
                int64_t x = v[i], lo = 0, hi = len;
                while (lo < hi) { /* bisect_right: first tail > x */
                    int64_t mid = lo + ((hi - lo) >> 1);
                    if (tails[mid] <= x)
                        lo = mid + 1;
                    else
                        hi = mid;
                }
                tails[lo] = x;
                if (lo == len)
                    len++;
            }
            count += n - len;
        }
        if (count > limit)
            break;
    }
    return count;
}

/* TANE's g3 (AOFD): per class, every row not carrying the class's most
 * frequent RHS value is removed.
 *
 * Class c is the rows rows[offsets[c] .. offsets[c + 1]) of the `ranks`
 * column.  `freq` is `num_freq` zeroed counters, one per rank; each class
 * counts its ranks there and zeroes them again before the next, so `freq`
 * is all zeroes on return, on the -1 path too, and can be reused.
 *
 * Returns -1 when the offsets do not describe `num_rows` row indices, a row
 * index is outside `ranks`, or a rank is outside `freq`.
 */
int64_t ofd_removal_count(const int32_t *ranks, int64_t num_ranks,
                          const int64_t *rows, int64_t num_rows,
                          const int64_t *offsets, int64_t num_classes,
                          int64_t *freq, int64_t num_freq, int64_t limit)
{
    int64_t count = 0;
    if (num_classes < 0)
        return -1;
    for (int64_t c = 0; c < num_classes; c++) {
        int64_t start = offsets[c], end = offsets[c + 1];
        if (start < 0 || end < start || end > num_rows)
            return -1;
        int64_t best = 0, i;
        for (i = start; i < end; i++) {
            int64_t row = rows[i];
            if (row < 0 || row >= num_ranks)
                break;
            int64_t rank = ranks[row];
            if (rank < 0 || rank >= num_freq)
                break;
            if (++freq[rank] > best)
                best = freq[rank];
        }
        /* rows[start .. i) passed the checks, so they index freq safely. */
        for (int64_t k = start; k < i; k++)
            freq[ranks[rows[k]]] = 0;
        if (i < end)
            return -1;
        count += (end - start) - best;
        if (count > limit)
            break;
    }
    return count;
}

/* Sorted partitions: bucket the grouped rows of a partition by class, in
 * the order of a cached row order, in O(n) and without a sort.
 *
 * `order` is a permutation of the `num_rows` rows (for instance every row
 * in (C, row) order).  `class_of` maps each row to its class, or -1 for a
 * row in no class.  Walking `order`, each grouped row is appended to its
 * class's bucket out[offsets[c] .. offsets[c + 1]); with num_values >= 0
 * the row's value values[row] is written instead of the row itself.  Each
 * bucket thus lists its class in `order`'s order.  `cursor` is scratch with
 * one slot per class plus one.
 *
 * With num_tails >= 0 the buckets are then screened and counted as in
 * oc_removal_count, and that count is returned; otherwise 0.
 *
 * The walk marks each visited row's class id in `class_of`, which detects
 * a repeated row; the marks are undone before returning, on the -1 path
 * too.  Returns -1 when `order` is not a permutation of the rows, `values`
 * is shorter than the rows, a class id is outside [-1, num_classes), or
 * the offsets do not cut `num_out` slots into one bucket per class member.
 */
#define VISITED(c) ((int32_t)(INT32_MIN + 1 + (c))) /* < -1 for c >= -1 */

int64_t scatter_classes(const int32_t *order, int64_t num_order,
                        int32_t *class_of, int64_t num_rows,
                        const int64_t *offsets, int64_t num_classes,
                        int64_t *cursor, int64_t num_cursor,
                        const int32_t *values, int64_t num_values,
                        int64_t *out, int64_t num_out,
                        int64_t *tails, int64_t num_tails, int64_t limit)
{
    int64_t status = 0, sink;
    if (num_classes < 0 || num_classes > INT32_MAX - 2
        || num_cursor <= num_classes || num_order != num_rows
        || (num_values >= 0 && num_values < num_rows))
        return -1;
    /* cursor[c + 1] counts class c's members, cursor[0] the other rows. */
    for (int64_t c = 0; c <= num_classes; c++)
        cursor[c] = 0;
    for (int64_t row = 0; row < num_rows; row++) {
        int32_t c = class_of[row];
        if (c < -1 || c >= num_classes)
            return -1;
        cursor[c + 1]++;
    }
    /* From here on cursor[c + 1] is class c's next slot. */
    for (int64_t c = 0; c < num_classes; c++) {
        if (offsets[c] < 0 || offsets[c + 1] > num_out
            || offsets[c + 1] - offsets[c] != cursor[c + 1])
            return -1;
        cursor[c + 1] = offsets[c];
    }
    /* Every bucket fits its class and a repeated row is caught before it
     * is written, so no write leaves its bucket. */
    for (int64_t i = 0; i < num_order; i++) {
        int64_t row = order[i];
        if (row < 0 || row >= num_rows || class_of[row] < -1) {
            status = -1; /* out of range, or visited before */
            break;
        }
        int32_t c = class_of[row];
        class_of[row] = VISITED(c);
        int64_t slot = cursor[c + 1]++;
        *(c >= 0 ? out + slot : &sink) = num_values >= 0 ? values[row] : row;
    }
    /* Only marks are below -1: every entry was checked above. */
    for (int64_t row = 0; row < num_rows; row++)
        if (class_of[row] < -1)
            class_of[row] -= VISITED(0);
    if (status == 0 && num_tails >= 0)
        status = oc_removal_count(out, num_out, offsets, num_classes,
                                  tails, num_tails, limit);
    return status;
}
