package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"xmldyn/internal/wal"
)

// crashCopy copies an open leader's directory src into dst as a crash
// at log position end would have left it: segments past end.Segment
// are dropped, segment end.Segment is cut at end.Offset, and atomic-
// write temp files are skipped. Take end from EndPosition() while no
// commit or checkpoint is in flight: every commit acknowledged before
// then lies below it, and under SyncPerCommit and SyncGrouped every
// byte below it was fsynced before its commit was acknowledged, so the
// copy holds exactly the flushed bytes. (Under SyncAsync the last
// FlushInterval of commits is written but maybe not synced; the copy
// then models a process crash, not a power loss.) The source is only
// read; it need not be closed.
func crashCopy(src, dst string, end wal.Position) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || strings.HasSuffix(name, ".tmp") {
			continue
		}
		limit := int64(-1)
		if idx, ok := wal.ParseSegmentName(name); ok {
			if idx > end.Segment {
				continue
			}
			if idx == end.Segment {
				limit = end.Offset
			}
		}
		if err := copyFile(filepath.Join(src, name), filepath.Join(dst, name), limit); err != nil {
			return fmt.Errorf("crash copy %s: %w", name, err)
		}
	}
	return nil
}

// copyFile copies src to dst, at most limit bytes when limit >= 0.
func copyFile(src, dst string, limit int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if limit >= 0 {
		r = io.LimitReader(in, limit)
	}
	if _, err := io.Copy(out, r); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
