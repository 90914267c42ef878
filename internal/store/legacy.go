// The per-file checkpoint layout packs replaced: a MANIFEST naming one
// doc-*.snap file per document. A durable repository refuses a
// directory holding either name (ReadPacks). The rest of this file is
// kept only because bench/traced.go's shadow engine writes that layout
// for its own shadow state and reads a leader's crash copy through
// ReadManifest; ROADMAP item 2a deletes that engine, and this file with
// it.

package store

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"xmldyn/internal/labels"
)

// legacyManifest is the manifest file name of the per-file layout.
const legacyManifest = "MANIFEST"

// DocSnapPattern is the file-name pattern of the per-file layout's
// document files: the FNV-1a 64 hash of the document name (hex) and
// the generation.
const DocSnapPattern = "doc-%016x-%06d.snap"

// DocSnapName returns the per-file layout's name for a document's file
// at a generation; a nonzero salt is mixed into the hash after the name.
func DocSnapName(docName string, gen, salt uint64) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(docName))
	if salt != 0 {
		_, _ = h.Write(labels.AppendLEB128(nil, salt))
	}
	return fmt.Sprintf(DocSnapPattern, h.Sum64(), gen)
}

// IsLegacyName reports whether a file name belongs to the per-file
// layout: MANIFEST, or a file of the DocSnapPattern shape.
func IsLegacyName(name string) bool {
	return name == legacyManifest || strings.HasPrefix(name, "doc-") && strings.HasSuffix(name, ".snap")
}

// Manifest is the per-file layout's manifest: a generation, the first
// live segment and one file per document.
type Manifest struct {
	Gen      uint64
	WALFirst uint64
	Docs     []ManifestDoc
}

// ManifestDoc is one document of a Manifest: its name, its file and
// the generation that wrote the file.
type ManifestDoc struct {
	Name string
	File string
	Gen  uint64
}

// MarshalManifest encodes a manifest in the version-5 layout the
// per-file checkpoints used.
func MarshalManifest(m Manifest) []byte {
	out := append([]byte(magic), 5)
	out = labels.AppendLEB128(out, m.Gen)
	out = labels.AppendLEB128(out, m.WALFirst)
	out = labels.AppendLEB128(out, uint64(len(m.Docs)))
	for _, d := range m.Docs {
		out = appendString(out, d.Name)
		out = appendString(out, d.File)
		out = labels.AppendLEB128(out, d.Gen)
	}
	return sealRecord(out)
}

// WriteManifest atomically writes m as dir's MANIFEST.
func WriteManifest(dir string, m Manifest) error {
	return WriteFileAtomic(filepath.Join(dir, legacyManifest), MarshalManifest(m))
}

// ReadManifest presents the current pack of dir in the per-file layout:
// it writes each document's record as a one-document image
// (MarshalDocSnap) into the subdirectory export-<generation> of dir and
// returns a manifest naming those files, relative to dir. The
// subdirectory is outside the durable layout, so recovery ignores it.
func ReadManifest(dir string) (Manifest, error) {
	p, packs, err := ReadPacks(dir)
	if err != nil {
		return Manifest{}, err
	}
	sub := fmt.Sprintf("export-%06d", p.Gen)
	if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
		return Manifest{}, err
	}
	m := Manifest{Gen: p.Gen, WALFirst: p.WALFirst}
	for _, e := range p.Docs {
		s, err := UnmarshalRecord(packs[e.Ref.Gen], e)
		if err != nil {
			return Manifest{}, err
		}
		file := filepath.Join(sub, DocSnapName(e.Name, e.Ref.Gen, 0))
		if err := os.WriteFile(filepath.Join(dir, file), MarshalDocSnap(s), 0o644); err != nil {
			return Manifest{}, err
		}
		m.Docs = append(m.Docs, ManifestDoc{Name: e.Name, File: file, Gen: e.Ref.Gen})
	}
	return m, nil
}
