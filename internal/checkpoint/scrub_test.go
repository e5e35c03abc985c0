package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/chaos"
)

func writeContainerFile(t *testing.T, path string) []byte {
	t.Helper()
	c := New(KindCheckpoint, 1, 0xfeed)
	c.Add("state", []byte("deterministic bytes"))
	if _, err := WriteFileAtomic(path, c); err != nil {
		t.Fatalf("writing container: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScrubReportsAndRepairs(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "jobs", "j1")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	good := writeContainerFile(t, filepath.Join(sub, EpochFileName(1)))
	_ = good

	// Corrupt a second container by flipping one payload byte.
	badPath := filepath.Join(sub, EpochFileName(2))
	b := writeContainerFile(t, badPath)
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(badPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// A job journal record lives in the same tree and gets the same CRC
	// verification: one flipped bit in its spec makes it corrupt.
	jl, err := OpenJournal(filepath.Join(dir, "journal"), "j", KindJobJournal, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = jl.Write(new(RecordLock), "j1", func(box *Container) (int, error) {
		box.Add("job", []byte(`{"id":"j1","spec":{"seed":7},"state":"queued"}`))
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	badJournal := jl.Path("j1")
	jb, err := os.ReadFile(badJournal)
	if err != nil {
		t.Fatal(err)
	}
	jb[bytes.Index(jb, []byte(`7}`))] ^= 0x01
	if err := os.WriteFile(badJournal, jb, 0o644); err != nil {
		t.Fatal(err)
	}

	// Leave an orphaned temp file behind, as an interrupted writer would.
	orphan := filepath.Join(sub, "."+EpochFileName(3)+".tmp-123")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub(dir, false)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Scanned != 3 || rep.Intact != 1 || len(rep.Corrupt) != 2 {
		t.Fatalf("report %+v, want 3 scanned / 1 intact / 2 corrupt", rep)
	}
	for _, f := range rep.Corrupt {
		if !errors.Is(f.Err, ErrCorrupt) {
			t.Fatalf("corrupt finding %s error = %v", f.Path, f.Err)
		}
	}
	// Dry run removed only the temp orphan, never a container.
	if len(rep.Removed) != 1 || rep.Removed[0] != orphan {
		t.Fatalf("dry-run removed %v, want only the temp orphan", rep.Removed)
	}
	if _, err := os.Stat(badPath); err != nil {
		t.Fatal("dry run deleted the corrupt container")
	}

	rep, err = Scrub(dir, true)
	if err != nil {
		t.Fatalf("repair scrub: %v", err)
	}
	if len(rep.Removed) != 2 || rep.Removed[0] != badPath || rep.Removed[1] != badJournal {
		t.Fatalf("repair removed %v, want the corrupt container and journal record", rep.Removed)
	}
	for _, p := range []string{badJournal, badPath} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("corrupt %s survived repair", p)
		}
	}
	if _, err := ReadFile(filepath.Join(sub, EpochFileName(1))); err != nil {
		t.Fatalf("intact container damaged by scrub: %v", err)
	}
}

func TestWriteFaultHookCoversContainerWrites(t *testing.T) {
	dir := t.TempDir()

	// ENOSPC at rate 1: the write must fail cleanly and leave no file.
	inj := chaos.NewDiskInjector(chaos.DiskConfig{Seed: 1, ENOSPCRate: 1}, nil)
	prev := SetWriteFault(inj.Mutate)
	defer SetWriteFault(prev)
	c := New(KindCheckpoint, 1, 1)
	c.Add("s", []byte("data"))
	path := filepath.Join(dir, EpochFileName(1))
	if _, err := WriteFileAtomic(path, c); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("hooked write returned %v, want ENOSPC", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed write left a file behind")
	}

	// Bit flip at rate 1: the commit succeeds but the CRC ladder must
	// refuse the damaged container on read.
	SetWriteFault(chaos.NewDiskInjector(chaos.DiskConfig{Seed: 1, BitFlipRate: 1}, nil).Mutate)
	if _, err := WriteFileAtomic(path, c); err != nil {
		t.Fatalf("bit-flip write failed outright: %v", err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("flipped container decoded cleanly")
	}

	// Torn write at rate 1: same — committed, but detected.
	SetWriteFault(chaos.NewDiskInjector(chaos.DiskConfig{Seed: 1, TornRate: 1}, nil).Mutate)
	if _, err := WriteFileAtomic(path, c); err != nil {
		t.Fatalf("torn write failed outright: %v", err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("torn container decoded cleanly")
	}

	// Hook removed: writes are clean again and bytes match the encoder.
	SetWriteFault(nil)
	if _, err := WriteFileAtomic(path, c); err != nil {
		t.Fatalf("clean write failed: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := c.Encode()
	if !bytes.Equal(got, want) {
		t.Fatal("clean write bytes differ from Encode output")
	}
}
