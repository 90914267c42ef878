package labels

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
