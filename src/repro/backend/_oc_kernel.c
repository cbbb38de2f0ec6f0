/* Fused screen + LNDS kernel for Algorithm 2's removal count.
 *
 * `values` holds the B projection of every equivalence class, each class
 * already ordered by [A ASC, B ASC]; class c is values[offsets[c] ..
 * offsets[c + 1]).  Classes are walked in order.  A class whose projection
 * is non-decreasing removes nothing (the screen); any other class adds
 * `length - LNDS(length)`, computed with the patience DP into `tails`.  The
 * walk stops after the first class that takes the count above `limit`, so
 * the returned count equals the class-by-class reference, partials included.
 *
 * Returns -1 instead of reading or writing out of bounds when the offsets do
 * not describe `num_values` values or a class is longer than `num_tails`.
 */
#include <stdint.h>

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
