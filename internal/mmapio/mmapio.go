// Package mmapio memory-maps files for zero-copy reading, with a portable
// heap-read fallback for platforms without mmap support. It exists so the
// binary model snapshot format (core.BinaryVersion) can be served straight
// out of the page cache: loading a model becomes O(1) pointer arithmetic over
// the mapping instead of an O(model) parse-and-copy, and cold factor rows are
// paged in on first touch.
//
// Mappings are strictly read-only (PROT_READ); writing through a slice backed
// by a Mapping faults. Callers that need to mutate data — online updates,
// re-quantization — must copy first (core.Model.Clone does).
package mmapio

import (
	"fmt"
	"os"
)

// Mapping is a read-only byte view of a file. Data either aliases a memory
// mapping (Mapped true) or holds a plain heap copy (Mapped false, the
// fallback used on platforms without mmap and by parity tests). Close
// releases the mapping; the Data of a closed Mapping must not be touched.
type Mapping struct {
	Data   []byte
	Mapped bool
}

// Open maps path read-only, falling back to a heap read when the platform
// has no mmap support. An empty file yields an empty Data with no mapping.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mmapio: stat %s: %w", path, err)
	}
	if st.Size() == 0 {
		return &Mapping{}, nil
	}
	m, err := mmapFile(f, int(st.Size()))
	if err == nil {
		return m, nil
	}
	// Fall back to a plain read: same bytes, no zero-copy.
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		return nil, fmt.Errorf("mmapio: mmap failed (%v) and read failed: %w", err, rerr)
	}
	return &Mapping{Data: data}, nil
}

// Close unmaps the file. It is a no-op for heap-backed and already-closed
// mappings, and is safe to call on a nil Mapping.
func (m *Mapping) Close() error {
	if m == nil || !m.Mapped || m.Data == nil {
		if m != nil {
			m.Data = nil
		}
		return nil
	}
	data := m.Data
	m.Data, m.Mapped = nil, false
	if err := munmap(data); err != nil {
		return fmt.Errorf("mmapio: munmap: %w", err)
	}
	return nil
}
