package main

import (
	"fmt"
	"sort"

	"xmldyn/internal/labels"
	"xmldyn/internal/repo"
)

// The shadow pipeline of a traced run appends the same WAL payloads
// DurableRepository.Batch and MultiBatch append, and its shadow
// recovery reads them back, so the payload grammar of
// docs/DURABILITY.md is repeated here from its public pieces (record
// type bytes, length-prefixed strings, LEB128).

// recordPart is one document's share of a commit record: its name and
// its update.EncodeOps bytes.
type recordPart struct {
	name string
	ops  []byte
}

// commitPayload frames a commit as the repository does: RecBatch for
// one part, RecMulti (parts in sorted-name order) for several.
func commitPayload(parts []recordPart) []byte {
	if len(parts) == 1 {
		return append(labels.AppendString([]byte{repo.RecBatch}, parts[0].name), parts[0].ops...)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].name < parts[j].name })
	out := append([]byte{repo.RecMulti}, labels.EncodeLEB128(uint64(len(parts)))...)
	for _, p := range parts {
		out = labels.AppendString(out, p.name)
		out = append(out, labels.EncodeLEB128(uint64(len(p.ops)))...)
		out = append(out, p.ops...)
	}
	return out
}

// parseCommit is commitPayload's inverse. The log suffix a shadow
// recovery replays starts after a checkpoint, so it holds commit
// records only; any other type is an error.
func parseCommit(payload []byte) ([]recordPart, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("empty record")
	}
	body := payload[1:]
	switch payload[0] {
	case repo.RecBatch:
		name, pos, err := labels.CutString(body, 0)
		if err != nil {
			return nil, err
		}
		return []recordPart{{name, body[pos:]}}, nil
	case repo.RecMulti:
		count, pos, err := labels.DecodeLEB128(body)
		if err != nil {
			return nil, err
		}
		var parts []recordPart
		for i := uint64(0); i < count; i++ {
			name, next, err := labels.CutString(body, pos)
			if err != nil {
				return nil, err
			}
			n, sz, err := labels.DecodeLEB128(body[next:])
			if err != nil || n > uint64(len(body)-next-sz) {
				return nil, fmt.Errorf("multi record part %d overruns the payload", i)
			}
			pos = next + sz + int(n)
			parts = append(parts, recordPart{name, body[next+sz : pos]})
		}
		return parts, nil
	default:
		return nil, fmt.Errorf("record type %d in a post-checkpoint log suffix", payload[0])
	}
}
