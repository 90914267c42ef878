package labels

import "fmt"

// ResetBulks empties every bulk table, so that a test can watch the
// first computation of a row as well as its later hits.
func ResetBulks() {
	bulks.Range(func(_, b any) bool {
		t := b.(*Bulk)
		t.mu.Lock()
		t.rows, t.list = nil, nil
		t.mu.Unlock()
		return true
	})
}

// BulkMax is the longest assignment a table keeps.
const BulkMax = bulkMax

// VerifyBulks recomputes every kept row and list prefix and compares.
// A table does not know how its rows were computed, so the caller names
// the algebras — one of each kind in use: VerifyBulks sets the kept
// tables aside, has every algebra assign every kept length into the
// emptied ones, and holds each code that was kept against the one just
// computed. A caller that wrote into a view shows here, not in another
// document's labels. It returns the number of codes compared; a row no
// given algebra recomputes is not counted. Not to be run beside a
// goroutine that assigns.
func VerifyBulks(algebras ...Algebra) (compared int, err error) {
	type table struct {
		b    *Bulk
		rows map[int]bulkRow
		list []Code
	}
	var kept []table
	lengths, listLen := map[int]bool{}, map[*Bulk]int{}
	bulks.Range(func(_, b any) bool {
		t := table{b: b.(*Bulk)}
		t.b.mu.Lock()
		t.rows, t.list, t.b.rows, t.b.list = t.b.rows, t.b.list, nil, nil
		t.b.mu.Unlock()
		for n := range t.rows {
			lengths[n] = true
		}
		listLen[t.b] = len(t.list)
		kept = append(kept, t)
		return true
	})
	for _, a := range algebras {
		for n := range lengths {
			a.Assign(n) // an algebra that cannot assign n kept no such row
		}
		if ia, ok := a.(*IntAlgebra); ok {
			ia.Assign(listLen[ia.bulk])
		}
	}
	same := func(what string, was, now []Code) {
		for i := 0; i < len(was) && i < len(now); i++ {
			compared++
			if err == nil && (was[i] == nil || was[i].String() != now[i].String() || was[i].Bits() != now[i].Bits()) {
				err = fmt.Errorf("labels: %s: kept code %d is %v, computed again it is %v", what, i, was[i], now[i])
			}
		}
	}
	for _, t := range kept {
		t.b.mu.Lock()
		for n, row := range t.rows {
			if now := t.b.rows[n].codes; now != nil {
				if len(row.codes) != n && err == nil {
					err = fmt.Errorf("labels: kept row %d holds %d codes", n, len(row.codes))
				}
				same(fmt.Sprintf("row %d", n), row.codes, now)
			}
		}
		same("list", t.list, t.b.list)
		t.b.mu.Unlock()
	}
	return compared, err
}
