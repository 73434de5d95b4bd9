// Package fault is the repository's failure model made executable. It
// provides, in one place, both the faults and the defenses the rest of the
// system is tested against:
//
//   - An injectable filesystem seam (FS/File) that every persistence write in
//     the repository goes through. Production code uses OS, the passthrough to
//     the real filesystem; the crash-kill harness substitutes an InjectFS.
//   - A deterministic fault injector (InjectFS) that can fail or kill any
//     single operation: error on create/write/sync/close/rename, short writes
//     that silently lie about success, crash-at-byte-N torn writes that leave
//     a prefix on disk and take the "process" down, and silent bit flips only
//     a checksum can catch. Faults are scheduled by an explicit Plan, so a
//     sweep over hundreds of crash points is reproducible run to run.
//   - Crash-safe write primitives hardened against exactly those faults:
//     WriteFileAtomic (temp file + fsync + atomic rename — a crash at any
//     byte leaves the previous file intact), WriteFileRotate (same, plus
//     N-deep rotation of prior copies so recovery can fall back past a file
//     lost after rename), and a CRC32-sealed framing envelope
//     (WriteFramed/ReadFramed) that turns silent corruption into a loud
//     ErrChecksum at load.
//   - Latency/error Hooks for non-filesystem paths, used by the serving
//     writer loop to exercise its circuit breaker under injected failures.
//
// The package has no knowledge of its consumers: internal/core and
// internal/train write checkpoints through it, internal/serve saves snapshots
// through it, and the harness tests in those packages drive the same code
// paths production runs under a swept fault schedule, asserting that every
// recovery finds a loadable last-good state.
package fault

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// File is the writable-file surface the crash-safe writers need. *os.File
// satisfies it; an injector wraps it to tear writes mid-stream.
type File interface {
	io.Writer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	Close() error
}

// FS is the filesystem seam persistence writes go through. Implementations
// must be safe for use by a single writer; the repository's persistence
// layers are all single-writer by construction (the training loop, the serve
// writer goroutine).
type FS interface {
	// Create opens the named file for writing, truncating it if it exists.
	Create(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// SyncDir flushes the directory entry metadata for dir to stable
	// storage (best-effort on platforms without directory fsync).
	SyncDir(dir string) error
}

// OS is the passthrough FS backed by the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error)     { return os.Create(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best-effort: a missing or unopenable dir is not a write failure
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Directory fsync is unsupported on some platforms/filesystems;
		// the data-file fsync already happened, so degrade silently.
		return nil
	}
	return nil
}

// orOS substitutes the real filesystem for a nil FS, so callers can leave the
// seam unset in the common case.
func orOS(fs FS) FS {
	if fs == nil {
		return OS
	}
	return fs
}

// RotatedPath returns the path of the i-th rotated predecessor of path
// (i >= 1): "ck.json" rotates through "ck.json.1", "ck.json.2", …
func RotatedPath(path string, i int) string {
	return fmt.Sprintf("%s.%d", path, i)
}

// FallbackPaths returns the recovery candidates for path in preference
// order: the file itself, then its rotated predecessors up to depth.
func FallbackPaths(path string, depth int) []string {
	out := make([]string, 0, depth+1)
	out = append(out, path)
	for i := 1; i <= depth; i++ {
		out = append(out, RotatedPath(path, i))
	}
	return out
}

// LadderDepth is how far down a rotation ladder recovery looks. It only has
// to be at least the largest keep any writer is configured with; rungs that
// do not exist cost one failed open each.
const LadderDepth = 16

// LoadNewest is the one recovery walk over a rotation ladder: it calls load
// on path, path.1, … path.LadderDepth in that order and returns the first
// rung load accepts. A rung that is missing (load's error wraps
// os.ErrNotExist) is skipped silently; one that exists but does not load —
// torn, corrupt, another format — is skipped too, falling back to the next
// older copy. When no rung loads, the error wraps the first real failure
// seen, or os.ErrNotExist when nothing exists at all.
func LoadNewest(path string, load func(rung string) error) (from string, err error) {
	var firstErr error
	for _, p := range FallbackPaths(path, LadderDepth) {
		err := load(p)
		if err == nil {
			return p, nil
		}
		if firstErr == nil && !errors.Is(err, os.ErrNotExist) {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = os.ErrNotExist
	}
	return "", fmt.Errorf("fault: nothing loadable at %s or its %d rotated copies: %w", path, LadderDepth, firstErr)
}
