package fault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeBytes(payload []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return b
}

func TestWriteFileAtomicHappyPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	want := bytes.Repeat([]byte("abc"), 100)
	if err := WriteFileAtomic(nil, path, writeBytes(want)); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); !bytes.Equal(got, want) {
		t.Fatalf("file holds %d bytes, want %d", len(got), len(want))
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind after successful write")
	}
}

// TestAtomicWriteCrashLeavesTargetIntact sweeps a crash through every write
// byte and several op positions; the destination must hold the previous
// complete contents at every crash point.
func TestAtomicWriteCrashLeavesTargetIntact(t *testing.T) {
	old := []byte("previous good contents\n")
	next := bytes.Repeat([]byte("0123456789abcdef"), 8) // 128 bytes

	for k := int64(1); k <= int64(len(next)); k += 7 {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.bin")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		inj := NewInjectFS(nil, Plan{CrashAtByte: k})
		err := WriteFileAtomic(inj, path, writeBytes(next))
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at byte %d: err = %v, want ErrCrashed", k, err)
		}
		if !inj.Crashed() {
			t.Fatalf("crash at byte %d did not fire", k)
		}
		if got := readFile(t, path); !bytes.Equal(got, old) {
			t.Fatalf("crash at byte %d: destination modified", k)
		}
	}

	for _, op := range []Op{OpCreate, OpSync, OpClose} {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.bin")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		inj := NewInjectFS(nil, Plan{CrashOp: op})
		if err := WriteFileAtomic(inj, path, writeBytes(next)); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at %s: err = %v, want ErrCrashed", op, err)
		}
		if got := readFile(t, path); !bytes.Equal(got, old) {
			t.Fatalf("crash at %s: destination modified", op)
		}
	}
}

// TestAtomicWriteRenameCrash kills the final rename: the new bytes never
// appear, the old file survives.
func TestAtomicWriteRenameCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	old := []byte("old")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	inj := NewInjectFS(nil, Plan{CrashOp: OpRename})
	if err := WriteFileAtomic(inj, path, writeBytes([]byte("new"))); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if got := readFile(t, path); !bytes.Equal(got, old) {
		t.Fatal("rename crash replaced the destination")
	}
}

func TestWriteFileRotateKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	for gen := 1; gen <= 4; gen++ {
		payload := []byte{byte('0' + gen)}
		if err := WriteFileRotate(nil, path, 2, writeBytes(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range map[string]string{
		path:                 "4",
		RotatedPath(path, 1): "3",
		RotatedPath(path, 2): "2",
	} {
		if got := string(readFile(t, i)); got != want {
			t.Fatalf("%s holds %q, want %q", i, got, want)
		}
	}
	if _, err := os.Stat(RotatedPath(path, 3)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("rotation exceeded its keep depth")
	}
}

// TestRotateCrashMidRotation kills the rename chain between shifting the
// primary aside and publishing the new file: the last good contents must
// survive somewhere on the fallback ladder.
func TestRotateCrashMidRotation(t *testing.T) {
	// Rename occurrences inside one WriteFileRotate(keep=2) over existing
	// path and path.1: [path.1 -> path.2], [path -> path.1], [tmp -> path].
	for idx := 0; idx < 3; idx++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "ck.json")
		if err := WriteFileRotate(nil, path, 2, writeBytes([]byte("g1"))); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileRotate(nil, path, 2, writeBytes([]byte("g2"))); err != nil {
			t.Fatal(err)
		}
		inj := NewInjectFS(nil, Plan{CrashOp: OpRename, CrashOpIndex: idx})
		if err := WriteFileRotate(inj, path, 2, writeBytes([]byte("g3"))); !errors.Is(err, ErrCrashed) {
			t.Fatalf("rename %d: err = %v, want ErrCrashed", idx, err)
		}
		found := ""
		for _, p := range FallbackPaths(path, 2) {
			b, err := os.ReadFile(p)
			if err != nil {
				continue
			}
			found = string(b)
			break
		}
		if found != "g2" && found != "g3" {
			t.Fatalf("rename crash %d: best fallback is %q, want g2 or g3", idx, found)
		}
	}
}

func TestFramedRoundTripAndRejections(t *testing.T) {
	payload := []byte(`{"hello":"world","nums":[1,2,3]}` + "\n")
	var buf bytes.Buffer
	if err := WriteFramed(&buf, 4, payload); err != nil {
		t.Fatal(err)
	}
	sealed := buf.Bytes()

	v, got, err := ReadFramed(sealed)
	if err != nil || v != 4 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: v=%d err=%v", v, err)
	}

	// Every truncation point of the payload section fails the integrity check.
	headerLen := len(sealed) - len(payload)
	for cut := headerLen; cut < len(sealed); cut++ {
		if _, _, err := ReadFramed(sealed[:cut]); !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: err = %v, want ErrChecksum", cut, err)
		}
	}
	// Every single-byte flip in the payload fails the CRC.
	for i := headerLen; i < len(sealed); i += 3 {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x01
		if _, _, err := ReadFramed(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrChecksum", i, err)
		}
	}

	// A JSON document that is not a frame header — no crc32, no length — is
	// a header error of the same class as garbage, never handed on unverified.
	for _, unsealed := range []string{`{"version":2,"rank":1}`, `{"rank":1}`, `{"version":2,"crc32":7}`, `{"version":2,"length":0}`} {
		if _, got, err := ReadFramed([]byte(unsealed)); err == nil || errors.Is(err, ErrChecksum) || got != nil {
			t.Fatalf("unsealed %s: payload=%q err=%v, want a header error", unsealed, got, err)
		}
	}
	// Garbage is a header error, not a checksum error.
	if _, _, err := ReadFramed([]byte("not json")); err == nil || errors.Is(err, ErrChecksum) {
		t.Fatalf("garbage: err = %v", err)
	}
	if _, _, err := ReadFramed(nil); err == nil {
		t.Fatal("empty input must error")
	}
}

// TestShortWriteOnlyChecksumCatches injects a silent short write through the
// atomic writer: the write "succeeds", rename publishes the torn file, and
// only the CRC frame notices.
func TestShortWriteOnlyChecksumCatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	payload := bytes.Repeat([]byte("x"), 256)
	var sealed bytes.Buffer
	if err := WriteFramed(&sealed, 1, payload); err != nil {
		t.Fatal(err)
	}
	inj := NewInjectFS(nil, Plan{ShortWriteAt: 64})
	if err := WriteFileAtomic(inj, path, writeBytes(sealed.Bytes())); err != nil {
		t.Fatalf("short write must report success, got %v", err)
	}
	if _, _, err := ReadFramed(readFile(t, path)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("torn published file: err = %v, want ErrChecksum", err)
	}
}

func TestFlipByteOnlyChecksumCatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	payload := bytes.Repeat([]byte("y"), 128)
	var sealed bytes.Buffer
	if err := WriteFramed(&sealed, 1, payload); err != nil {
		t.Fatal(err)
	}
	// Flip a byte well inside the payload section.
	inj := NewInjectFS(nil, Plan{FlipByteAt: int64(sealed.Len() - 10)})
	if err := WriteFileAtomic(inj, path, writeBytes(sealed.Bytes())); err != nil {
		t.Fatalf("flip must be silent, got %v", err)
	}
	if _, _, err := ReadFramed(readFile(t, path)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-rotted file: err = %v, want ErrChecksum", err)
	}
}

func TestFailOpIsTransient(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	inj := NewInjectFS(nil, Plan{FailOp: OpCreate, FailOpIndex: 0})
	if err := WriteFileAtomic(inj, path, writeBytes([]byte("a"))); !errors.Is(err, ErrInjected) {
		t.Fatalf("first attempt err = %v, want ErrInjected", err)
	}
	if err := WriteFileAtomic(inj, path, writeBytes([]byte("a"))); err != nil {
		t.Fatalf("second attempt must succeed after a transient fault, got %v", err)
	}
	if inj.Crashed() {
		t.Fatal("transient fault must not kill the filesystem")
	}
}

func TestCrashFileScopesByteOffsets(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	inj := NewInjectFS(nil, Plan{CrashFile: 2, CrashAtByte: 3})
	if err := WriteFileAtomic(inj, a, writeBytes(bytes.Repeat([]byte("a"), 100))); err != nil {
		t.Fatalf("first file must be untouched by a CrashFile=2 plan, got %v", err)
	}
	if err := WriteFileAtomic(inj, b, writeBytes(bytes.Repeat([]byte("b"), 100))); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second file err = %v, want ErrCrashed", err)
	}
	if got := readFile(t, a); len(got) != 100 {
		t.Fatalf("first file torn to %d bytes", len(got))
	}
}

func TestOnCrashFiresOnce(t *testing.T) {
	fired := 0
	inj := NewInjectFS(nil, Plan{CrashOp: OpCreate})
	inj.OnCrash = func() { fired++ }
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		WriteFileAtomic(inj, filepath.Join(dir, "f"), writeBytes([]byte("x")))
	}
	if fired != 1 {
		t.Fatalf("OnCrash fired %d times, want 1", fired)
	}
}

func TestHooks(t *testing.T) {
	var h *Hooks
	if err := h.Before("anything"); err != nil {
		t.Fatal("nil hooks must be a no-op")
	}
	h = NewHooks(1)
	h.FailNext(2, nil)
	if err := h.Before("op"); !errors.Is(err, ErrInjected) {
		t.Fatalf("first scripted failure: %v", err)
	}
	custom := errors.New("disk on fire")
	h.FailNext(1, custom)
	if err := h.Before("op"); !errors.Is(err, custom) {
		t.Fatalf("custom error lost: %v", err)
	}
	if err := h.Before("op"); err != nil {
		t.Fatalf("script exhausted but still failing: %v", err)
	}
	if h.Injected() != 2 {
		t.Fatalf("Injected() = %d, want 2", h.Injected())
	}

	// Latency injection goes through the sleep seam.
	var slept time.Duration
	h.sleep = func(d time.Duration) { slept += d }
	h.SetLatency(5 * time.Millisecond)
	h.Before("op")
	if slept != 5*time.Millisecond {
		t.Fatalf("slept %v, want 5ms", slept)
	}
	h.Clear()
	slept = 0
	if err := h.Before("op"); err != nil || slept != 0 {
		t.Fatal("Clear must remove all injections")
	}

	// Rate-based failures are deterministic for a fixed seed.
	a, b := NewHooks(7), NewHooks(7)
	a.SetFailRate(0.5, nil)
	b.SetFailRate(0.5, nil)
	for i := 0; i < 64; i++ {
		if (a.Before("x") == nil) != (b.Before("x") == nil) {
			t.Fatal("same seed must give the same failure stream")
		}
	}
	if a.Injected() == 0 || a.Injected() == 64 {
		t.Fatalf("rate 0.5 injected %d of 64", a.Injected())
	}
}

// TestUnsealGateOrder pins the one frame gate's order: header error, then the
// reader's own version sentinel, then the checksum verdict.
func TestUnsealGateOrder(t *testing.T) {
	sentinel := errors.New("reader: unsupported version")
	var buf bytes.Buffer
	if err := WriteFramed(&buf, 4, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	sealed := buf.Bytes()
	torn := sealed[:len(sealed)-1]

	if v, got, err := Unseal(sealed, sentinel, 4, 5); err != nil || v != 4 || string(got) != "payload" {
		t.Fatalf("accepted version: v=%d payload=%q err=%v", v, got, err)
	}
	if _, _, err := Unseal(torn, sentinel, 4, 5); !errors.Is(err, ErrChecksum) || errors.Is(err, sentinel) {
		t.Fatalf("torn, accepted version: err = %v, want ErrChecksum only", err)
	}
	// Another version wins over a damaged payload: the header survived.
	for _, data := range [][]byte{sealed, torn} {
		if _, got, err := Unseal(data, sentinel, 5); !errors.Is(err, sentinel) || errors.Is(err, ErrChecksum) || got != nil {
			t.Fatalf("foreign version: payload=%q err = %v, want the sentinel only", got, err)
		}
	}
	// No header, no version to gate on: neither sentinel.
	for _, data := range []string{"not json", "", `{"version":4,"rank":1}`} {
		if _, _, err := Unseal([]byte(data), sentinel, 4); err == nil || errors.Is(err, sentinel) || errors.Is(err, ErrChecksum) {
			t.Fatalf("header error on %q: err = %v", data, err)
		}
	}
}

// TestLoadNewest covers the one ladder walk: a gap is skipped, the rung that
// loads is named, the first real failure is the one reported, and an empty
// ladder is os.ErrNotExist.
func TestLoadNewest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	errTorn, errOlder := errors.New("torn"), errors.New("older and also bad")
	load := func(verdict map[string]error) (func(string) error, *[]string) {
		var seen []string
		return func(rung string) error {
			seen = append(seen, filepath.Base(rung))
			if err, ok := verdict[filepath.Base(rung)]; ok {
				return err
			}
			return fmt.Errorf("open %s: %w", rung, os.ErrNotExist)
		}, &seen
	}

	// path torn, path.1 missing (a gap), path.2 good: path.2 is loaded and
	// nothing older is touched.
	fn, seen := load(map[string]error{"snap": errTorn, "snap.2": nil, "snap.3": nil})
	from, err := LoadNewest(path, fn)
	if err != nil || from != RotatedPath(path, 2) {
		t.Fatalf("gap: from=%q err=%v, want snap.2", from, err)
	}
	if strings.Join(*seen, ",") != "snap,snap.1,snap.2" {
		t.Fatalf("gap: walked %v", *seen)
	}

	// Nothing loads: the newest rung's failure is the diagnosis, and the
	// whole ladder was tried.
	fn, seen = load(map[string]error{"snap": errTorn, "snap.1": errOlder})
	from, err = LoadNewest(path, fn)
	if from != "" || !errors.Is(err, errTorn) || errors.Is(err, errOlder) || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("all bad: from=%q err=%v, want the first real error", from, err)
	}
	if len(*seen) != LadderDepth+1 {
		t.Fatalf("all bad: tried %d rungs, want %d", len(*seen), LadderDepth+1)
	}

	// Nothing exists.
	fn, _ = load(nil)
	if from, err := LoadNewest(path, fn); from != "" || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty ladder: from=%q err=%v, want os.ErrNotExist", from, err)
	}
}

func TestFallbackPaths(t *testing.T) {
	got := FallbackPaths("ck.json", 2)
	want := []string{"ck.json", "ck.json.1", "ck.json.2"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("FallbackPaths = %v", got)
	}
}
