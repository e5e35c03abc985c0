package checkpoint

import (
	"os"
	"reflect"
	"testing"
	"time"
)

// putRecord commits a one-section record with the given lifecycle rank.
func putRecord(t *testing.T, jl *Journal, lock *RecordLock, id string, rank int, state string) {
	t.Helper()
	err := jl.Write(lock, id, func(box *Container) (int, error) {
		box.Add("state", []byte(state))
		return rank, nil
	})
	if err != nil {
		t.Fatalf("writing %s: %v", id, err)
	}
}

// loadStates returns every record's "state" section in load order.
func loadStates(t *testing.T, jl *Journal) (ids, states []string, corrupt int) {
	t.Helper()
	corrupt, err := jl.Load(func(id string, box *Container) bool {
		st, ok := box.Section("state")
		if !ok || string(st) == "garbage" {
			return false
		}
		ids = append(ids, id)
		states = append(states, string(st))
		return true
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return ids, states, corrupt
}

// TestJournalWriteLoad: writes never move a record backwards, and a
// load returns intact records in numeric (not lexical) ID order while
// counting every file it cannot trust.
func TestJournalWriteLoad(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir, "j", KindJobJournal, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lock2 RecordLock
	putRecord(t, jl, &lock2, "j2", 2, "running")
	putRecord(t, jl, &lock2, "j2", 1, "queued") // stale: dropped
	putRecord(t, jl, new(RecordLock), "j10", 3, "succeeded")
	putRecord(t, jl, new(RecordLock), "j1", 1, "queued")
	putRecord(t, jl, new(RecordLock), "j3", 1, "garbage") // rejected by the caller

	// Untrustworthy files: a torn record, a record of another kind, a
	// name that is not a canonical ID, and one a bit flip damaged.
	if err := os.WriteFile(jl.Path("j4"), []byte("SKYRBOX1 torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := New(KindCampaignJournal, 1, 0)
	if _, err := WriteFileAtomic(jl.Path("j5"), foreign); err != nil {
		t.Fatal(err)
	}
	putRecord(t, jl, new(RecordLock), "j06", 1, "queued")
	putRecord(t, jl, new(RecordLock), "j7", 1, "queued")
	b, err := os.ReadFile(jl.Path("j7"))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-6] ^= 0x01
	if err := os.WriteFile(jl.Path("j7"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	ids, states, corrupt := loadStates(t, jl)
	if want := []string{"j1", "j2", "j10"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("loaded %v, want %v", ids, want)
	}
	if want := []string{"queued", "running", "succeeded"}; !reflect.DeepEqual(states, want) {
		t.Fatalf("states %v, want %v", states, want)
	}
	if corrupt != 5 {
		t.Fatalf("corrupt = %d, want 5 (j3 rejected, j4 torn, j5 foreign, j06 misnamed, j7 flipped)", corrupt)
	}

	// A nil journal (persistence disabled) accepts writes as no-ops.
	var none *Journal
	if err := none.Write(new(RecordLock), "j1", nil); err != nil {
		t.Fatalf("nil journal write: %v", err)
	}
}

// TestJournalSweepRetainAndMaxAge: the shared retention sweep keeps
// the retain highest-numbered terminal records, also collects any older
// than maxAge against the injected clock, and never touches a record it
// was not handed (a non-terminal one).
func TestJournalSweepRetainAndMaxAge(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir, "c", KindCampaignJournal, 1)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2030, 1, 1, 12, 0, 0, 0, time.UTC)
	age := map[string]time.Duration{
		"c1":  time.Hour, // young, but beyond retain
		"c2":  time.Hour,
		"c3":  time.Hour,
		"c9":  5 * time.Hour, // within retain, but too old
		"c10": time.Hour,
		"c11": 10 * time.Hour, // non-terminal: never swept
	}
	for id, a := range age {
		putRecord(t, jl, new(RecordLock), id, 1, "done")
		mt := now.Add(-a)
		if err := os.Chtimes(jl.Path(id), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	terminal := []string{"c10", "c2", "c9", "c1", "c3"}

	if removed, err := jl.Sweep(terminal, 0, 0, now); err != nil || len(removed) != 0 {
		t.Fatalf("sweep with retention off removed %v (%v)", removed, err)
	}
	removed, err := jl.Sweep(terminal, 3, 2*time.Hour, now)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"c1", "c2", "c9"}; !reflect.DeepEqual(removed, want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	ids, _, corrupt := loadStates(t, jl)
	if want := []string{"c3", "c10", "c11"}; !reflect.DeepEqual(ids, want) || corrupt != 0 {
		t.Fatalf("left %v (corrupt %d), want %v", ids, corrupt, want)
	}

	// maxAge alone, against a clock an hour later: c3 and c10 are now
	// two hours old, past a 90-minute limit.
	removed, err = jl.Sweep([]string{"c10", "c3"}, 0, 90*time.Minute, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"c3", "c10"}; !reflect.DeepEqual(removed, want) {
		t.Fatalf("maxAge sweep removed %v, want %v", removed, want)
	}
}
