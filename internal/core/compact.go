package core

import "hbmsim/internal/model"

// compactTraces renumbers the workload's pages into the dense space
// [0, U) in first-appearance order (cores scanned in index order, each
// trace front to back), so stores and replacement policies can index
// flat slices by page instead of hashing sparse 64-bit PageIDs on every
// Contains/Touch/Insert. Because the model's reference sequences are
// mutually disjoint (Property 1), the renaming is a bijection on the
// referenced pages and U — the total unique-page count — is known up
// front; renaming page identities cannot change any identity-based
// policy decision, so the compacted simulation is bit-identical to the
// sparse one (the direct-mapped store additionally hashes the *original*
// ID per page, see hbm.NewDirectMapped).
//
// It returns the per-core dense traces, the reverse table origOf
// (origOf[dense] = original PageID) for the Observer/Result boundary,
// and U. When the workload is already dense in first-appearance order —
// which is exactly what trace.NewWorkload produces — the input traces
// are returned unchanged and origOf is nil: no copy is made and no
// translation is needed.
func compactTraces(traces [][]model.PageID) (dense [][]model.PageID, origOf []model.PageID, universe int) {
	// Identity fast path: under first-appearance numbering, the mapping
	// is the identity iff every new page equals the running unique count.
	// A reference below the count was assigned earlier (IDs 0..count-1
	// name exactly the pages seen so far); one above it breaks identity.
	unique := model.PageID(0)
	identity := true
scan:
	for _, tr := range traces {
		for _, p := range tr {
			if p == unique {
				unique++
			} else if p > unique {
				identity = false
				break scan
			}
		}
	}
	if identity {
		return traces, nil, int(unique)
	}

	total := 0
	for _, tr := range traces {
		total += len(tr)
	}

	// First-appearance numbering fused with the trace rewrite, into one
	// flat backing array (a single allocation for the whole workload),
	// in a single pass over the references. Compact ID ranges use a flat
	// lookup table that doubles as larger IDs appear; the first ID past
	// the threshold switches the assignment to a map (migrating the
	// entries made so far), so genuinely sparse 64-bit IDs never
	// allocate a giant table. This is construction-time work — the tick
	// path never sees either structure.
	const lutCap = 1 << 26
	thresh := uint64(4*total) + 1024
	if thresh > lutCap {
		thresh = lutCap
	}
	lut := make([]int32, 1024)
	for i := range lut {
		lut[i] = -1
	}
	var m map[model.PageID]int32
	origOf = make([]model.PageID, 0, 1024)
	backing := make([]model.PageID, total)
	dense = make([][]model.PageID, len(traces))
	off := 0
	for i, tr := range traces {
		dt := backing[off : off+len(tr) : off+len(tr)]
		off += len(tr)
		for j, p := range tr {
			id := int32(-1)
			if m != nil {
				if got, ok := m[p]; ok {
					id = got
				}
			} else if uint64(p) < uint64(len(lut)) {
				id = lut[p]
			} else if uint64(p) < thresh {
				// Grow the table past p (power-of-two steps, capped at
				// the threshold); p itself is still unassigned.
				nl := len(lut)
				for uint64(nl) <= uint64(p) {
					nl <<= 1
				}
				if uint64(nl) > thresh {
					nl = int(thresh)
				}
				grown := make([]int32, nl)
				n := copy(grown, lut)
				for k := n; k < nl; k++ {
					grown[k] = -1
				}
				lut = grown
			} else {
				// Sparse ID: abandon the table for a map, carrying over
				// every assignment made so far (origOf has them all).
				m = make(map[model.PageID]int32, 2*len(origOf)+1024)
				for d, op := range origOf {
					m[op] = int32(d)
				}
				lut = nil
			}
			if id < 0 {
				id = int32(len(origOf))
				origOf = append(origOf, p)
				if m != nil {
					m[p] = id
				} else {
					lut[p] = id
				}
			}
			dt[j] = model.PageID(id)
		}
		dense[i] = dt
	}
	return dense, origOf, len(origOf)
}
