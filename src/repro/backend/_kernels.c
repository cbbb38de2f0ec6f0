/* Count-only removal kernels for the two validators of the discovery loop.
 *
 * Both walk a context's equivalence classes in order and stop after the
 * first class that takes the count above `limit`, so the returned count
 * equals the class-by-class reference, partials included.  Both return -1
 * instead of reading or writing out of bounds when an input does not fit.
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
