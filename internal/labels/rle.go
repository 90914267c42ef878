package labels

import (
	"fmt"
	"strings"
)

// Com-D label compression (Duong & Zhang [8], paper §3.1.2): repetitive
// letters or letter groups inside an LSDX-style label are replaced by a
// repeat count, e.g. "aaaaabcbcbcdddde" -> "5a3(bc)4de". The compressed
// form is storage-only; comparisons operate on the uncompressed label.

// CompressRuns rewrites s replacing runs of a repeated unit (a single
// letter, or a group wrapped in parentheses) with "<count><unit>". Units
// of up to maxGroup letters are considered; the published example uses
// two-letter groups. Counts apply to units repeated at least twice
// (single letters) or at least twice (groups) when the rewrite shortens
// the output.
func CompressRuns(s string) string {
	const maxGroup = 4
	var sb strings.Builder
	i := 0
	for i < len(s) {
		bestLen, bestCount, bestSaving := 1, 1, 0
		// Consider candidate unit sizes; pick the one with the biggest
		// byte saving at this position.
		for u := 1; u <= maxGroup && i+u <= len(s); u++ {
			unit := s[i : i+u]
			count := 1
			for i+u*(count+1) <= len(s) && s[i+u*count:i+u*(count+1)] == unit {
				count++
			}
			if count < 2 {
				continue
			}
			plain := u * count
			var compressed int
			if u == 1 {
				compressed = len(fmt.Sprintf("%d", count)) + 1
			} else {
				compressed = len(fmt.Sprintf("%d", count)) + u + 2
			}
			if saving := plain - compressed; saving > bestSaving {
				bestLen, bestCount, bestSaving = u, count, saving
			}
		}
		if bestSaving <= 0 {
			sb.WriteByte(s[i])
			i++
			continue
		}
		unit := s[i : i+bestLen]
		if bestLen == 1 {
			fmt.Fprintf(&sb, "%d%s", bestCount, unit)
		} else {
			fmt.Fprintf(&sb, "%d(%s)", bestCount, unit)
		}
		i += bestLen * bestCount
	}
	return sb.String()
}
